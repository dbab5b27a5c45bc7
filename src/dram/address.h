/**
 * @file
 * DRAM topology description and per-channel addressing.
 *
 * An HBM cube is organized as channel → pseudo channel (PC) → stack ID (SID,
 * the HBM equivalent of a rank) → bank group (BG) → bank → row → column.
 * All DRAM-level simulation in this project is per-channel (the systems the
 * paper evaluates are channel-replicated), so DramAddress names a location
 * within one channel.
 */

#ifndef ROME_DRAM_ADDRESS_H
#define ROME_DRAM_ADDRESS_H

#include <cstdint>
#include <string>

#include "common/log.h"
#include "common/strfmt.h"

namespace rome
{

/** Static organization of one HBM channel (and the cube it belongs to). */
struct Organization
{
    /** Channels per cube (HBM4: 32; RoMe: 36). */
    int channelsPerCube = 32;
    /** Pseudo channels per channel (HBM4: 2). */
    int pcsPerChannel = 2;
    /** Stack IDs (ranks) per channel (HBM4 16-Hi: 4). */
    int sidsPerChannel = 4;
    /** Bank groups per (PC, SID). */
    int bankGroupsPerSid = 4;
    /** Banks per bank group. */
    int banksPerGroup = 4;
    /** Rows per bank. */
    int rowsPerBank = 8192;
    /** Row size of one bank within one PC, in bytes (HBM4: 1 KB). */
    std::uint64_t rowBytes = 1024;
    /** Column access granularity of one PC, in bytes (HBM4: 32 B). */
    std::uint64_t columnBytes = 32;
    /** DQ pins per PC (HBM4: 32). */
    int dqPinsPerPc = 32;
    /** Data rate per pin, Gb/s (HBM4: 8). */
    double dataRateGbps = 8.0;

    /** Banks per (PC, SID): bankGroupsPerSid × banksPerGroup. */
    int
    banksPerSid() const
    {
        return bankGroupsPerSid * banksPerGroup;
    }

    /** Total banks in a channel, counting each PC's banks separately. */
    int
    banksPerChannel() const
    {
        return pcsPerChannel * sidsPerChannel * banksPerSid();
    }

    /** Columns per row of one bank within one PC. */
    int
    columnsPerRow() const
    {
        return static_cast<int>(rowBytes / columnBytes);
    }

    /** Bytes addressable by one channel. */
    std::uint64_t
    channelCapacity() const
    {
        return static_cast<std::uint64_t>(banksPerChannel()) *
               static_cast<std::uint64_t>(rowsPerBank) * rowBytes;
    }

    /** Bytes addressable by one cube. */
    std::uint64_t
    cubeCapacity() const
    {
        return channelCapacity() * static_cast<std::uint64_t>(channelsPerCube);
    }

    /** Peak bandwidth of one PC in bytes per nanosecond. */
    double
    pcBandwidthBytesPerNs() const
    {
        return static_cast<double>(dqPinsPerPc) * dataRateGbps / 8.0;
    }

    /** Peak bandwidth of one channel in bytes per nanosecond. */
    double
    channelBandwidthBytesPerNs() const
    {
        return pcBandwidthBytesPerNs() *
               static_cast<double>(pcsPerChannel);
    }

    /** Nanoseconds to burst one column access on one PC. */
    double
    burstNs() const
    {
        return static_cast<double>(columnBytes) / pcBandwidthBytesPerNs();
    }
};

/** Location of a row/column within one channel. */
struct DramAddress
{
    int pc = 0;
    int sid = 0;
    int bg = 0;
    int bank = 0;
    int row = 0;
    int col = 0;

    bool
    sameBank(const DramAddress& o) const
    {
        return pc == o.pc && sid == o.sid && bg == o.bg && bank == o.bank;
    }

    std::string
    str() const
    {
        return strfmt("pc%d.s%d.bg%d.ba%d.r%d.c%d", pc, sid, bg, bank, row,
                      col);
    }
};

/** Dense index of a bank within its channel (PC-major). */
inline int
flatBankIndex(const Organization& org, const DramAddress& a)
{
    int idx = a.pc;
    idx = idx * org.sidsPerChannel + a.sid;
    idx = idx * org.bankGroupsPerSid + a.bg;
    idx = idx * org.banksPerGroup + a.bank;
    return idx;
}

/** True when every field of @p a lies inside the organization. */
inline bool
addressInRange(const Organization& org, const DramAddress& a)
{
    return a.pc >= 0 && a.pc < org.pcsPerChannel && a.sid >= 0 &&
           a.sid < org.sidsPerChannel && a.bg >= 0 &&
           a.bg < org.bankGroupsPerSid && a.bank >= 0 &&
           a.bank < org.banksPerGroup && a.row >= 0 &&
           a.row < org.rowsPerBank && a.col >= 0 &&
           a.col < org.columnsPerRow();
}

/** Validate an address against the organization (panics when out of range). */
inline void
checkAddress(const Organization& org, const DramAddress& a)
{
    if (!addressInRange(org, a))
        panic("address out of range: %s", a.str().c_str());
}

} // namespace rome

#endif // ROME_DRAM_ADDRESS_H
