/**
 * @file
 * Physical-address → DRAM-coordinate mapping (§II-D "address mapping unit").
 *
 * A mapping is an ordered list of fields consumed from the least-significant
 * end of the channel-local byte address (after the intra-column offset).
 * The evaluation sweeps mappings for both systems and keeps the best
 * (§VI-A), which bench_addrmap reproduces.
 */

#ifndef ROME_MC_ADDRMAP_H
#define ROME_MC_ADDRMAP_H

#include <cstdint>
#include <string>
#include <vector>

#include "dram/address.h"

namespace rome
{

/** Address-bit field kinds. */
enum class AddrField { Pc, Sid, Bg, Bank, Col, Row };

/** One field in LSB→MSB order; Col may be split across entries. */
struct AddrFieldSpec
{
    AddrField field;
    int bits;
};

/** Maps channel-local byte addresses to DRAM coordinates. */
class AddressMapping
{
  public:
    /**
     * Build a mapping for @p org with fields listed LSB→MSB in @p spec.
     * Field widths must cover the organization exactly (checked).
     */
    AddressMapping(const Organization& org, std::vector<AddrFieldSpec> spec,
                   std::string name);

    /** Decode a byte address (the intra-column offset is dropped). */
    DramAddress
    decode(std::uint64_t addr) const
    {
        return decodeLine(lineOf(addr));
    }

    /** Line (column-sized address unit) holding byte address @p addr. */
    std::uint64_t
    lineOf(std::uint64_t addr) const
    {
        return addr >> colOffsetBits_;
    }

    /** Decode line @p line, i.e. byte address line * column bytes. */
    DramAddress decodeLine(std::uint64_t line) const;

    /**
     * Lines (column-sized address units) between consecutive columns of
     * one bank row: 2^(bits mapped below the column field). 0 when the
     * column field is split, so no single stride exists.
     */
    std::uint64_t columnStrideLines() const { return colStrideLines_; }

    /**
     * Step @p a, the decode of some line L, to the decode of line
     * L + columnStrideLines() without decoding: only the column advances.
     * Returns false, leaving @p a unchanged, when the column would wrap
     * into the fields above it or the column field is split; the caller
     * then decodes.
     */
    bool
    stepColumn(DramAddress& a) const
    {
        if (colStrideLines_ == 0 || a.col + 1 >= org_.columnsPerRow())
            return false;
        ++a.col;
        return true;
    }

    /** Human-readable mapping name, e.g. "RoSiBaBgCoPc". */
    const std::string& name() const { return name_; }

    const Organization& organization() const { return org_; }

  private:
    Organization org_;
    std::vector<AddrFieldSpec> spec_;
    std::string name_;
    int colOffsetBits_;
    std::uint64_t colStrideLines_ = 0;
};

/**
 * Mapping presets, LSB→MSB after the 32 B column offset.
 *
 * The names read MSB→LSB in the Ramulator tradition: e.g. RoSiBaBgCoPc puts
 * the PC bit lowest (consecutive 32 B alternate PCs) and the row bits
 * highest.
 */
std::vector<AddressMapping> standardMappings(const Organization& org);

/** The mapping the baseline evaluation uses (best streaming bandwidth). */
AddressMapping bestBaselineMapping(const Organization& org);

} // namespace rome

#endif // ROME_MC_ADDRMAP_H
