/**
 * @file
 * Address-mapping tests: bijectivity over the channel space, interleaving
 * order of the presets, column stepping against decode, and configuration
 * validation.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/random.h"
#include "dram/hbm4_config.h"
#include "mc/addrmap.h"

namespace rome
{
namespace
{

using namespace rome::literals;

std::tuple<int, int, int, int, int, int>
key(const DramAddress& a)
{
    return {a.pc, a.sid, a.bg, a.bank, a.row, a.col};
}

TEST(AddrMap, PresetsAreBijectiveOnSample)
{
    const Organization org = hbm4Config().org;
    for (const auto& m : standardMappings(org)) {
        std::set<std::tuple<int, int, int, int, int, int>> seen;
        // Stride through the space with a large odd stride to sample all
        // field combinations.
        const std::uint64_t stride = 32 * 1009;
        for (std::uint64_t a = 0; a < org.channelCapacity();
             a += stride) {
            const DramAddress d = m.decode(a);
            ASSERT_TRUE(seen.insert(key(d)).second)
                << m.name() << " collides at addr " << a;
        }
    }
}

TEST(AddrMap, DecodedCoordinatesAreInRange)
{
    const Organization org = hbm4Config().org;
    for (const auto& m : standardMappings(org)) {
        const std::uint64_t stride = 32 * 4093;
        for (std::uint64_t a = 0; a < org.channelCapacity(); a += stride) {
            const DramAddress d = m.decode(a);
            ASSERT_NO_THROW(checkAddress(org, d)) << m.name();
        }
    }
}

TEST(AddrMap, DefaultMappingInterleavesPcThenBg)
{
    const Organization org = hbm4Config().org;
    const AddressMapping m = bestBaselineMapping(org);
    EXPECT_EQ(m.name(), "RoSiBaCoBgPc");

    // Consecutive 32 B lines alternate pseudo channels.
    EXPECT_EQ(m.decode(0).pc, 0);
    EXPECT_EQ(m.decode(32).pc, 1);
    // Consecutive 64 B blocks rotate bank groups.
    EXPECT_EQ(m.decode(0).bg, 0);
    EXPECT_EQ(m.decode(64).bg, 1);
    EXPECT_EQ(m.decode(128).bg, 2);
    EXPECT_EQ(m.decode(192).bg, 3);
    EXPECT_EQ(m.decode(256).bg, 0);
    EXPECT_EQ(m.decode(256).col, 1);
    // Same row while within the 8 KB (2 PC × 4 BG × 1 KB-row slice) region.
    EXPECT_EQ(m.decode(0).row, m.decode(8 * 1024 - 32).row);
}

TEST(AddrMap, RowMajorPresetFillsRowBeforeSwitchingBank)
{
    const Organization org = hbm4Config().org;
    const AddressMapping m = standardMappings(org)[0]; // RoSiBaBgCoPc
    // Within 2 KB (both PCs of one bank's row) the bank does not change.
    const DramAddress a0 = m.decode(0);
    const DramAddress a1 = m.decode(2047);
    EXPECT_TRUE(a0.sameBank(a1) || (a0.pc != a1.pc && a0.bg == a1.bg &&
                                    a0.bank == a1.bank));
    // The next 2 KB lands in the following bank group.
    EXPECT_EQ(m.decode(2048).bg, 1);
}

TEST(AddrMap, PathologicalMappingThrashesRows)
{
    const Organization org = hbm4Config().org;
    const AddressMapping m = standardMappings(org).back(); // SiBaBgCoRoPc
    // Consecutive 64 B land in different rows of the same bank.
    const DramAddress a0 = m.decode(0);
    const DramAddress a1 = m.decode(64);
    EXPECT_TRUE(a0.sameBank(a1));
    EXPECT_NE(a0.row, a1.row);
}

TEST(AddrMap, LineStepMatchesDecode)
{
    // Admission steps each line of a request from the line one column
    // stride earlier instead of decoding it. The step must equal decode
    // on every line it accepts and refuse exactly at the column wrap.
    const Organization org = hbm4Config().org;
    const std::uint64_t line = org.columnBytes;
    const std::uint64_t lines = org.channelCapacity() / line;
    // PC; PC+BG; PC; PC+BG+bank; PC; PC+row bits below the column.
    const std::uint64_t strides[] = {2, 8, 2, 32, 2, 1ULL << 14};
    Rng rng(11);
    std::size_t i = 0;
    for (const AddressMapping& m : standardMappings(org)) {
        const std::uint64_t s = m.columnStrideLines();
        EXPECT_EQ(s, strides[i++]) << m.name();
        int steps = 0;
        int wraps = 0;
        const auto check = [&](std::uint64_t l) {
            DramAddress a = m.decode(l * line);
            const DramAddress from = a;
            const DramAddress want = m.decode((l + s) * line);
            if (m.stepColumn(a)) {
                ++steps;
                EXPECT_EQ(key(a), key(want)) << m.name() << " line " << l;
            } else {
                ++wraps;
                EXPECT_EQ(from.col, org.columnsPerRow() - 1) << m.name();
                EXPECT_EQ(key(a), key(from)) << m.name();
                EXPECT_FALSE(from.sameBank(want) && from.row == want.row)
                    << m.name() << " line " << l;
            }
        };
        // Every line of random 2-16 KB requests (many cross a wrap).
        for (int r = 0; r < 100; ++r) {
            const std::uint64_t n = 64 + rng.below(449);
            const std::uint64_t first = rng.below(lines - n);
            for (std::uint64_t l = first; l + s < first + n; ++l)
                check(l);
        }
        // Random lines anywhere, so the widest stride is stepped too.
        for (int r = 0; r < 2000; ++r)
            check(rng.below(lines - s));
        EXPECT_GT(steps, 0) << m.name();
        EXPECT_GT(wraps, 0) << m.name();
    }

    // A split column field has no single stride: never stepped.
    const AddressMapping split(org,
                               {{AddrField::Pc, 1}, {AddrField::Col, 2},
                                {AddrField::Bg, 2}, {AddrField::Col, 3},
                                {AddrField::Bank, 2}, {AddrField::Sid, 2},
                                {AddrField::Row, 13}},
                               "split");
    EXPECT_EQ(split.columnStrideLines(), 0u);
    DramAddress a = split.decode(0);
    EXPECT_FALSE(split.stepColumn(a));
    EXPECT_EQ(key(a), key(split.decode(0)));
}

TEST(AddrMap, MisconfiguredWidthsAreFatal)
{
    const Organization org = hbm4Config().org;
    EXPECT_THROW(
        AddressMapping(org,
                       {{AddrField::Pc, 2}, {AddrField::Col, 5},
                        {AddrField::Bg, 2}, {AddrField::Bank, 2},
                        {AddrField::Sid, 2}, {AddrField::Row, 13}},
                       "bad"),
        std::runtime_error);
}

} // namespace
} // namespace rome
