#include "mc/addrmap.h"

#include <bit>

#include "common/log.h"

namespace rome
{

namespace
{

int
log2Exact(std::uint64_t v, const char* what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        fatal("%s (%llu) must be a power of two", what,
              static_cast<unsigned long long>(v));
    return static_cast<int>(std::bit_width(v)) - 1;
}

int
fieldWidth(const Organization& org, AddrField f)
{
    switch (f) {
      case AddrField::Pc:
        return log2Exact(static_cast<std::uint64_t>(org.pcsPerChannel),
                         "pcsPerChannel");
      case AddrField::Sid:
        return log2Exact(static_cast<std::uint64_t>(org.sidsPerChannel),
                         "sidsPerChannel");
      case AddrField::Bg:
        return log2Exact(static_cast<std::uint64_t>(org.bankGroupsPerSid),
                         "bankGroupsPerSid");
      case AddrField::Bank:
        return log2Exact(static_cast<std::uint64_t>(org.banksPerGroup),
                         "banksPerGroup");
      case AddrField::Col:
        return log2Exact(static_cast<std::uint64_t>(org.columnsPerRow()),
                         "columnsPerRow");
      case AddrField::Row:
        return log2Exact(static_cast<std::uint64_t>(org.rowsPerBank),
                         "rowsPerBank");
    }
    panic("unknown field");
}

} // namespace

AddressMapping::AddressMapping(const Organization& org,
                               std::vector<AddrFieldSpec> spec,
                               std::string name)
    : org_(org), spec_(std::move(spec)), name_(std::move(name)),
      colOffsetBits_(log2Exact(org.columnBytes, "columnBytes"))
{
    // The widths per field must cover the organization exactly.
    int widths[6] = {0, 0, 0, 0, 0, 0};
    for (const auto& s : spec_)
        widths[static_cast<int>(s.field)] += s.bits;
    const AddrField all[] = {AddrField::Pc, AddrField::Sid, AddrField::Bg,
                             AddrField::Bank, AddrField::Col, AddrField::Row};
    for (AddrField f : all) {
        if (widths[static_cast<int>(f)] != fieldWidth(org_, f)) {
            fatal("mapping %s: field %d covers %d bits, organization needs "
                  "%d",
                  name_.c_str(), static_cast<int>(f),
                  widths[static_cast<int>(f)], fieldWidth(org_, f));
        }
    }
    // A stepping stride exists when the column bits form one field.
    int below = 0;
    int col_fields = 0;
    for (const auto& s : spec_) {
        if (s.field == AddrField::Col)
            ++col_fields;
        else if (col_fields == 0)
            below += s.bits;
    }
    if (col_fields == 1)
        colStrideLines_ = 1ULL << below;
}

DramAddress
AddressMapping::decodeLine(std::uint64_t line) const
{
    std::uint64_t v = line;
    DramAddress out;
    int colShift = 0;
    for (const auto& s : spec_) {
        const std::uint64_t chunk = v & ((1ULL << s.bits) - 1);
        v >>= s.bits;
        const int ichunk = static_cast<int>(chunk);
        switch (s.field) {
          case AddrField::Pc: out.pc |= ichunk; break;
          case AddrField::Sid: out.sid |= ichunk; break;
          case AddrField::Bg: out.bg |= ichunk; break;
          case AddrField::Bank: out.bank |= ichunk; break;
          case AddrField::Col:
            out.col |= ichunk << colShift;
            colShift += s.bits;
            break;
          case AddrField::Row: out.row |= ichunk; break;
        }
    }
    return out;
}

std::vector<AddressMapping>
standardMappings(const Organization& org)
{
    const int cb = fieldWidth(org, AddrField::Col);
    const int rb = fieldWidth(org, AddrField::Row);
    const int pb = fieldWidth(org, AddrField::Pc);
    const int sb = fieldWidth(org, AddrField::Sid);
    const int gb = fieldWidth(org, AddrField::Bg);
    const int bb = fieldWidth(org, AddrField::Bank);

    std::vector<AddressMapping> maps;
    // Names read MSB→LSB; specs are LSB→MSB.
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Col, cb},
            {AddrField::Bg, gb}, {AddrField::Bank, bb}, {AddrField::Sid, sb},
            {AddrField::Row, rb}},
        "RoSiBaBgCoPc");
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Bg, gb},
            {AddrField::Col, cb}, {AddrField::Bank, bb}, {AddrField::Sid, sb},
            {AddrField::Row, rb}},
        "RoSiBaCoBgPc");
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Col, cb},
            {AddrField::Bank, bb}, {AddrField::Bg, gb}, {AddrField::Sid, sb},
            {AddrField::Row, rb}},
        "RoSiBgBaCoPc");
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Bg, gb},
            {AddrField::Bank, bb}, {AddrField::Col, cb}, {AddrField::Sid, sb},
            {AddrField::Row, rb}},
        "RoSiCoBaBgPc");
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Col, cb},
            {AddrField::Bg, gb}, {AddrField::Bank, bb}, {AddrField::Row, rb},
            {AddrField::Sid, sb}},
        "SiRoBaBgCoPc");
    // Pathological: row bits below the column bits (row-buffer thrash).
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Row, rb},
            {AddrField::Col, cb}, {AddrField::Bg, gb}, {AddrField::Bank, bb},
            {AddrField::Sid, sb}},
        "SiBaBgCoRoPc");
    return maps;
}

AddressMapping
bestBaselineMapping(const Organization& org)
{
    // RoSiBaCoBgPc: the BG bits sit directly above the PC bit, so a
    // sequential stream alternates bank groups every 64 B and sustains the
    // tCCDS cadence (a single bank group is limited to tCCDL, i.e. half the
    // bandwidth — §II-C). bench_addrmap reproduces this sweep.
    return standardMappings(org)[1];
}

} // namespace rome
