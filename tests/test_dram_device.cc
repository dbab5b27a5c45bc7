/**
 * @file
 * Timing-rule tests for the HBM channel device: every JEDEC-style constraint
 * the paper's Table II lists is exercised, plus bank FSM observability,
 * refresh windows, command-bus serialization, and event counters — plus a
 * differential test of the command-bus SlotCalendar against a naive set of
 * slot starts.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "dram/device.h"
#include "dram/hbm4_config.h"
#include "dram/hbm_generations.h"
#include "dram/slot_calendar.h"

namespace rome
{
namespace
{

using namespace rome::literals;

class DeviceTest : public ::testing::Test
{
  protected:
    DeviceTest() : cfg_(hbm4Config()), dev_(cfg_.org, cfg_.timing) {}

    static DramAddress
    addr(int pc, int sid, int bg, int bank, int row = 0, int col = 0)
    {
        return DramAddress{pc, sid, bg, bank, row, col};
    }

    DramConfig cfg_;
    ChannelDevice dev_;
};

TEST_F(DeviceTest, OrganizationMatchesTableV)
{
    const Organization& o = cfg_.org;
    EXPECT_EQ(o.channelsPerCube, 32);
    EXPECT_EQ(o.banksPerChannel(), 128);
    EXPECT_EQ(o.channelCapacity(), 1_GiB);
    EXPECT_EQ(o.cubeCapacity(), 32_GiB);
    EXPECT_EQ(o.columnsPerRow(), 32);
    // 64 GB/s per channel, 2 TB/s per cube.
    EXPECT_DOUBLE_EQ(o.channelBandwidthBytesPerNs(), 64.0);
    EXPECT_DOUBLE_EQ(o.channelBandwidthBytesPerNs() * 32, 2048.0);
    EXPECT_DOUBLE_EQ(o.burstNs(), 1.0);
}

TEST_F(DeviceTest, TimingPresetMatchesTableV)
{
    const TimingParams& t = cfg_.timing;
    EXPECT_EQ(t.tRC, 45_ns);
    EXPECT_EQ(t.tRP, 16_ns);
    EXPECT_EQ(t.tRAS, 29_ns);
    EXPECT_EQ(t.tCL, 16_ns);
    EXPECT_EQ(t.tRCDRD, 16_ns);
    EXPECT_EQ(t.tRCDWR, 16_ns);
    EXPECT_EQ(t.tWR, 16_ns);
    EXPECT_EQ(t.tFAW, 12_ns);
    EXPECT_EQ(t.tCCDL, 2_ns);
    EXPECT_EQ(t.tCCDS, 1_ns);
    EXPECT_EQ(t.tCCDR, 2_ns);
    EXPECT_EQ(t.tRRDS, 2_ns);
    EXPECT_EQ(t.tRC, t.tRAS + t.tRP);
}

TEST_F(DeviceTest, ReadRequiresActivationDelay)
{
    const auto a = addr(0, 0, 0, 0, /*row=*/7);
    dev_.issue({CmdKind::Act, a}, 0);
    Command rd{CmdKind::Rd, a};
    EXPECT_EQ(dev_.earliestIssue(rd, 0), cfg_.timing.tRCDRD);
    // Issuing early panics (device-side verification).
    EXPECT_THROW(dev_.issue(rd, cfg_.timing.tRCDRD - 1_ns), std::logic_error);
    auto res = dev_.issue(rd, cfg_.timing.tRCDRD);
    EXPECT_EQ(res.dataFrom, cfg_.timing.tRCDRD + cfg_.timing.tCL);
    EXPECT_EQ(res.dataUntil, res.dataFrom + cfg_.timing.tBURST);
}

TEST_F(DeviceTest, ReadToWrongRowIsStructurallyIllegal)
{
    const auto a = addr(0, 0, 0, 0, 7);
    dev_.issue({CmdKind::Act, a}, 0);
    auto wrong = a;
    wrong.row = 8;
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, wrong}, 0), kTickMax);
}

TEST_F(DeviceTest, ActToOpenBankIsStructurallyIllegal)
{
    const auto a = addr(0, 0, 0, 0, 7);
    dev_.issue({CmdKind::Act, a}, 0);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, a}, 100_ns), kTickMax);
}

TEST_F(DeviceTest, SameBankActToActIsTrc)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    const Tick pre_at = dev_.earliestIssue({CmdKind::Pre, a}, 0);
    EXPECT_EQ(pre_at, cfg_.timing.tRAS);
    dev_.issue({CmdKind::Pre, a}, pre_at);
    auto next = a;
    next.row = 2;
    // tRC (45) dominates tRAS + tRP here (29 + 16 = 45): equal by design.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, next}, 0), cfg_.timing.tRC);
}

TEST_F(DeviceTest, ActToActSpacingAcrossBanks)
{
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    // Same bank group: tRRDL.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 0, 1, 1)}, 0),
              cfg_.timing.tRRDL);
    // Different bank group: tRRDS.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 1, 0, 1)}, 0),
              cfg_.timing.tRRDS);
}

TEST_F(DeviceTest, FourActivateWindow)
{
    // Four ACTs at the tRRDS cadence, then the fifth must respect tFAW.
    Tick when = 0;
    for (int i = 0; i < 4; ++i) {
        dev_.issue({CmdKind::Act, addr(0, 0, i % 4, i / 4, 1)}, when);
        when += cfg_.timing.tRRDS;
    }
    const Tick fifth =
        dev_.earliestIssue({CmdKind::Act, addr(0, 0, 0, 2, 1)}, 0);
    EXPECT_EQ(fifth, cfg_.timing.tFAW); // 12 ns > 4 * tRRDS
}

TEST_F(DeviceTest, FawDoesNotCrossSids)
{
    Tick when = 0;
    for (int i = 0; i < 4; ++i) {
        dev_.issue({CmdKind::Act, addr(0, 0, i, 0, 1)}, when);
        when += cfg_.timing.tRRDS;
    }
    // A different SID has its own tFAW window; only the row-bus slot and no
    // ACT-to-ACT constraint applies across SIDs in our model.
    const Tick other_sid =
        dev_.earliestIssue({CmdKind::Act, addr(0, 1, 0, 0, 1)}, 0);
    EXPECT_LT(other_sid, cfg_.timing.tFAW);
}

TEST_F(DeviceTest, CasToCasSpacing)
{
    // Open rows in three banks: same BG, different BG, different SID.
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 1, 1)}, 2_ns);
    dev_.issue({CmdKind::Act, addr(0, 0, 1, 0, 1)}, 4_ns);
    dev_.issue({CmdKind::Act, addr(0, 1, 0, 0, 1)}, 6_ns);

    const Tick t0 = 30_ns;
    dev_.issue({CmdKind::Rd, addr(0, 0, 0, 0, 1)}, t0);
    // Same bank group: tCCDL.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, addr(0, 0, 0, 1, 1)}, 0),
              t0 + cfg_.timing.tCCDL);
    // Different bank group: tCCDS.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, addr(0, 0, 1, 0, 1)}, 0),
              t0 + cfg_.timing.tCCDS);
    // Different SID: tCCDR.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, addr(0, 1, 0, 0, 1)}, 0),
              t0 + cfg_.timing.tCCDR);
}

TEST_F(DeviceTest, PseudoChannelsHaveIndependentCasStreams)
{
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    dev_.issue({CmdKind::Act, addr(1, 0, 0, 0, 1)}, 2_ns);
    const Tick t0 = 30_ns;
    dev_.issue({CmdKind::Rd, addr(0, 0, 0, 0, 1)}, t0);
    // The other PC's CAS stream is unconstrained by tCCD; the C/A pins can
    // issue RD/WR to both PCs every tCCDS (§IV-D).
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, addr(1, 0, 0, 0, 1)}, t0),
              t0);
}

TEST_F(DeviceTest, ReadToPrechargeIsTrtp)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    const Tick rd_at = cfg_.timing.tRCDRD + 20_ns; // past tRAS shadow
    dev_.issue({CmdKind::Rd, a}, rd_at);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Pre, a}, 0),
              rd_at + cfg_.timing.tRTP);
}

TEST_F(DeviceTest, WriteRecoveryBeforePrecharge)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    const Tick wr_at = cfg_.timing.tRAS; // past the tRAS shadow
    dev_.issue({CmdKind::Wr, a}, wr_at);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Pre, a}, 0),
              wr_at + cfg_.timing.tWR);
}

TEST_F(DeviceTest, PrechargeAndRefreshFloorsNeverExceedExactProbes)
{
    // preFloor: a sound, nontrivial lower bound on earliestIssue(PRE)
    // after ACT (tRAS), read (tRTP), and write (tWR) histories.
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    EXPECT_EQ(dev_.preFloor(a, 0), cfg_.timing.tRAS);
    EXPECT_LE(dev_.preFloor(a, 0), dev_.earliestIssue({CmdKind::Pre, a}, 0));

    const Tick wr_at = cfg_.timing.tRAS;
    dev_.issue({CmdKind::Wr, a}, wr_at);
    EXPECT_EQ(dev_.preFloor(a, 0), wr_at + cfg_.timing.tWR);
    EXPECT_LE(dev_.preFloor(a, 0), dev_.earliestIssue({CmdKind::Pre, a}, 0));

    // refPbFloor: bounded by the precharge completion, then by tRREFD
    // spacing after a refresh elsewhere in the (PC, SID).
    const Tick pre_at = dev_.earliestIssue({CmdKind::Pre, a}, 0);
    dev_.issue({CmdKind::Pre, a}, pre_at);
    EXPECT_EQ(dev_.refPbFloor(a, pre_at), pre_at + cfg_.timing.tRP);
    EXPECT_LE(dev_.refPbFloor(a, pre_at),
              dev_.earliestIssue({CmdKind::RefPb, a}, pre_at));

    const auto other = addr(0, 0, 1, 0);
    const Tick ref_at = dev_.earliestIssue({CmdKind::RefPb, other}, pre_at);
    dev_.issue({CmdKind::RefPb, other}, ref_at);
    EXPECT_GE(dev_.refPbFloor(a, ref_at), ref_at + cfg_.timing.tRREFD);
    EXPECT_LE(dev_.refPbFloor(a, ref_at),
              dev_.earliestIssue({CmdKind::RefPb, a}, ref_at));
}

TEST_F(DeviceTest, ReadToWriteTurnaround)
{
    const auto a = addr(0, 0, 0, 0, 1);
    const auto b = addr(0, 0, 1, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Act, b}, 2_ns);
    const Tick rd_at = 30_ns;
    dev_.issue({CmdKind::Rd, a}, rd_at);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Wr, b}, 0),
              rd_at + cfg_.timing.tRTW);
}

TEST_F(DeviceTest, WriteToReadTurnaround)
{
    const auto a = addr(0, 0, 0, 0, 1);
    const auto b = addr(0, 0, 1, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Act, b}, 2_ns);
    const Tick wr_at = 30_ns;
    dev_.issue({CmdKind::Wr, a}, wr_at);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, b}, 0),
              wr_at + cfg_.timing.tWTRS);
}

TEST_F(DeviceTest, PrechargeToActivateIsTrp)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Pre, a}, cfg_.timing.tRAS);
    auto next = a;
    next.row = 5;
    // tRC == tRAS + tRP for the Table V values, so both bounds agree.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, next}, 0),
              cfg_.timing.tRAS + cfg_.timing.tRP);
    dev_.issue({CmdKind::Act, next}, cfg_.timing.tRAS + cfg_.timing.tRP);
    EXPECT_EQ(dev_.openRow(next), 5);
}

TEST_F(DeviceTest, PerBankRefreshBlocksBankAndSpacing)
{
    const auto a = addr(0, 0, 0, 0);
    const auto b = addr(0, 0, 0, 1);
    dev_.issue({CmdKind::RefPb, a}, 0);
    EXPECT_EQ(dev_.bankState(a, 1_ns), BankState::Refreshing);
    EXPECT_EQ(dev_.bankState(a, cfg_.timing.tRFCpb), BankState::Idle);
    // Same-(PC,SID) REFpb spacing: tRREFD.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::RefPb, b}, 0), cfg_.timing.tRREFD);
    // ACT to the refreshing bank waits for tRFCpb.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 0, 0, 3)}, 0),
              cfg_.timing.tRFCpb);
    // Another bank can activate immediately (row-bus slot only).
    EXPECT_LE(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 2, 0, 3)}, 0),
              1_ns);
}

TEST_F(DeviceTest, RefreshRequiresIdleBank)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::RefPb, a}, 0), kTickMax);
}

TEST_F(DeviceTest, AllBankRefreshBlocksSid)
{
    const auto a = addr(0, 0, 0, 0);
    dev_.issue({CmdKind::RefAb, a}, 0);
    EXPECT_EQ(dev_.bankState(addr(0, 0, 3, 3), 1_ns), BankState::Refreshing);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 2, 1, 1)}, 0),
              cfg_.timing.tRFCab);
    // Other SIDs are unaffected.
    EXPECT_LE(dev_.earliestIssue({CmdKind::Act, addr(0, 1, 0, 0, 1)}, 0),
              1_ns);
}

TEST_F(DeviceTest, RowBusSlotsArePerPc)
{
    // The C/A pins can feed both PCs each slot (§IV-D): an ACT to the other
    // PC may issue in the same nanosecond...
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(1, 0, 0, 0, 1)}, 0), 0);
    // ...but a second row command on the same PC (different SID, so no
    // tRRD constraint) waits for the next slot.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 1, 0, 0, 1)}, 0),
              1_ns);
}

TEST_F(DeviceTest, BankStateLifecycle)
{
    const auto a = addr(0, 0, 0, 0, 1);
    EXPECT_EQ(dev_.bankState(a, 0), BankState::Idle);
    dev_.issue({CmdKind::Act, a}, 0);
    EXPECT_EQ(dev_.bankState(a, 1_ns), BankState::Activating);
    EXPECT_EQ(dev_.bankState(a, cfg_.timing.tRCDRD), BankState::Active);
    const Tick rd_at = 30_ns;
    dev_.issue({CmdKind::Rd, a}, rd_at);
    EXPECT_EQ(dev_.bankState(a, rd_at + cfg_.timing.tCL),
              BankState::Reading);
    const Tick idle_again = rd_at + cfg_.timing.tCL + cfg_.timing.tBURST;
    EXPECT_EQ(dev_.bankState(a, idle_again), BankState::Active);
    const Tick pre_at = dev_.earliestIssue({CmdKind::Pre, a}, idle_again);
    dev_.issue({CmdKind::Pre, a}, pre_at);
    EXPECT_EQ(dev_.bankState(a, pre_at + 1_ns), BankState::Precharging);
    EXPECT_EQ(dev_.bankState(a, pre_at + cfg_.timing.tRP), BankState::Idle);
}

TEST_F(DeviceTest, CountersTrackCommandsAndData)
{
    const auto a = addr(0, 0, 0, 0, 1);
    const auto b = addr(0, 0, 1, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Act, b}, 2_ns);
    Tick when = 30_ns;
    for (int i = 0; i < 8; ++i) {
        const auto& target = (i % 2) ? b : a;
        Command rd{CmdKind::Rd, target};
        when = dev_.earliestIssue(rd, when);
        dev_.issue(rd, when);
    }
    EXPECT_EQ(dev_.counters().acts.value(), 2u);
    EXPECT_EQ(dev_.counters().reads.value(), 8u);
    EXPECT_EQ(dev_.counters().dataBytes.value(), 8u * 32u);
    EXPECT_EQ(dev_.counters().dataBusBusyTicks.value(),
              8u * static_cast<std::uint64_t>(cfg_.timing.tBURST));
    EXPECT_EQ(dev_.counters().rowCmds.value(), 2u);
    EXPECT_EQ(dev_.counters().colCmds.value(), 8u);
}

TEST_F(DeviceTest, InterleavedReadsSaturateBus)
{
    // Alternating bank groups at tCCDS saturates one PC's data bus: the
    // bus-busy time equals the span between first and last data beat.
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    dev_.issue({CmdKind::Act, addr(0, 0, 1, 0, 1)}, 2_ns);
    Tick when = 30_ns;
    const Tick first = when;
    const int n = 64;
    for (int i = 0; i < n; ++i) {
        Command rd{CmdKind::Rd, addr(0, 0, i % 2, 0, 1)};
        const Tick at = dev_.earliestIssue(rd, when);
        ASSERT_EQ(at, when) << "bubble at read " << i;
        dev_.issue(rd, at);
        when += cfg_.timing.tCCDS;
    }
    EXPECT_EQ(dev_.lastDataEnd(),
              first + (n - 1) * cfg_.timing.tCCDS + cfg_.timing.tCL +
              cfg_.timing.tBURST);
}

TEST_F(DeviceTest, TraceCallbackSeesCommands)
{
    std::vector<std::pair<Tick, CmdKind>> trace;
    dev_.setTrace([&](Tick at, const Command& c) {
        trace.emplace_back(at, c.kind);
    });
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Rd, a}, 30_ns);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].second, CmdKind::Act);
    EXPECT_EQ(trace[1].second, CmdKind::Rd);
}

TEST(HbmGenerations, TrendsMatchFigure2)
{
    const auto& gens = hbmGenerations();
    ASSERT_EQ(gens.size(), 6u);
    EXPECT_EQ(gens.front().name, "HBM1");
    EXPECT_EQ(gens.back().name, "HBM4");

    // Channel width halves HBM2E→HBM3, channel count doubles; HBM4 doubles
    // channels again without altering width (§II-B).
    EXPECT_EQ(gens[2].channelWidthBits, 128);
    EXPECT_EQ(gens[3].channelWidthBits, 64);
    EXPECT_EQ(gens[5].channelWidthBits, 64);
    EXPECT_EQ(gens[5].channelsPerCube, 2 * gens[4].channelsPerCube);

    // C/A-to-DQ pin ratio roughly doubles HBM1 → HBM3 and keeps rising.
    EXPECT_NEAR(gens[3].caPerDqRatio() / gens[0].caPerDqRatio(), 2.0, 0.1);
    EXPECT_GT(gens[5].caPerDqRatio(), gens[3].caPerDqRatio());

    // Data bandwidth grows monotonically; HBM4 reaches 2 TB/s.
    for (std::size_t i = 1; i < gens.size(); ++i)
        EXPECT_GT(gens[i].dataBandwidthGBs(), gens[i - 1].dataBandwidthGBs());
    EXPECT_DOUBLE_EQ(gens[5].dataBandwidthGBs(), 2048.0);

    // C/A bandwidth demand rises across generations (Fig 2(b)).
    EXPECT_GT(gens[5].caBandwidthGBs(), 4 * gens[0].caBandwidthGBs());
}

// ---- SlotCalendar -----------------------------------------------------

/** One slot per ns, as on the device's command buses. */
constexpr Tick kSlot = kTicksPerNs;
constexpr Tick kHorizon = SlotCalendar::kHorizonSlots * kSlot;

/** Reference model: every booked slot start in a set, never retired. */
struct NaiveCalendar
{
    std::set<Tick> starts;

    /** Some booked slot overlaps [from, until). */
    bool
    overlaps(Tick from, Tick until) const
    {
        const auto it = starts.lower_bound(from - kSlot + 1);
        return it != starts.end() && *it < until;
    }

    Tick
    nextFree(Tick t) const
    {
        for (;;) {
            const auto it = starts.lower_bound(t - kSlot + 1);
            if (it == starts.end() || *it >= t + kSlot)
                return t;
            t = *it + kSlot;
        }
    }
};

std::vector<std::uint8_t>
calendarState(const SlotCalendar& c)
{
    CheckpointWriter w;
    c.saveState(w);
    return w.data();
}

TEST(SlotCalendar, MatchesNaiveSlotSetUnderRandomBookings)
{
    // Bookings land at tick (sub-slot) granularity in a window that
    // slides forward, some behind the newest span (out of order), some
    // as runs at and off slot-width stride. The window slides past the
    // horizon many times over, so spans retire and the vector compacts,
    // while every query stays inside the horizon where answers must
    // match the naive set exactly.
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        SlotCalendar cal(kSlot);
        NaiveCalendar ref;
        Tick base = 0;
        const Tick window = 600 * kSlot;
        for (int op = 0; op < 60000; ++op) {
            const std::string where =
                "seed " + std::to_string(seed) + " op " + std::to_string(op);
            const Tick at = base + static_cast<Tick>(rng.below(
                                       static_cast<std::uint64_t>(window)));
            switch (rng.below(6)) {
              case 0:
              case 1:
                cal.reserve(at);
                ref.starts.insert(at);
                break;
              case 2: {
                const int count = 1 + static_cast<int>(rng.below(24));
                const Tick strides[] = {kSlot, kSlot + 1, 2 * kSlot,
                                        3 * kSlot + 2};
                const Tick stride = strides[rng.below(4)];
                cal.reserveRun(at, count, stride);
                for (int i = 0; i < count; ++i)
                    ref.starts.insert(at + i * stride);
                break;
              }
              case 3: {
                const Tick t = at - window / 2;
                ASSERT_EQ(cal.nextFree(t), ref.nextFree(t)) << where;
                break;
              }
              case 4: {
                const Tick from = at - window / 2;
                const Tick until =
                    from + 1 + static_cast<Tick>(rng.below(40 * kSlot));
                ASSERT_EQ(cal.rangeFree(from, until),
                          !ref.overlaps(from, until))
                    << where;
                break;
              }
              default:
                base += static_cast<Tick>(rng.below(48 * kSlot));
                break;
            }
        }
        EXPECT_GT(base, 10 * kHorizon) << "window never left the horizon";
        EXPECT_LT(cal.liveSpans(), ref.starts.size());

        // Save/load round trip: same answers, same blob.
        SlotCalendar back(kSlot);
        const auto blob = calendarState(cal);
        CheckpointReader r(blob);
        back.loadState(r);
        r.finish();
        EXPECT_EQ(calendarState(back), blob);
        for (Tick t = base - window; t < base + 2 * window; t += 3) {
            ASSERT_EQ(back.nextFree(t), cal.nextFree(t)) << t;
            ASSERT_EQ(back.rangeFree(t, t + 7), cal.rangeFree(t, t + 7)) << t;
        }
    }
}

TEST(SlotCalendar, ReservationsMergeWithNeighboursOnBothSides)
{
    SlotCalendar cal(kSlot);
    cal.reserve(8 * kSlot);
    cal.reserve(2 * kSlot); // out of order, before the newest span
    EXPECT_EQ(cal.liveSpans(), 2u);
    cal.reserve(3 * kSlot); // extends the left span rightwards
    cal.reserve(kSlot);     // ... and leftwards
    cal.reserve(7 * kSlot); // extends the right span leftwards
    EXPECT_EQ(cal.liveSpans(), 2u);
    EXPECT_EQ(cal.nextFree(kSlot), 4 * kSlot);
    EXPECT_EQ(cal.nextFree(5 * kSlot), 5 * kSlot);
    EXPECT_EQ(cal.nextFree(6 * kSlot), 6 * kSlot);
    EXPECT_EQ(cal.nextFree(6 * kSlot + 1), 9 * kSlot);
    cal.reserveRun(4 * kSlot, 3, kSlot); // fills the gap: one span
    EXPECT_EQ(cal.liveSpans(), 1u);
    EXPECT_EQ(cal.nextFree(0), 0);
    EXPECT_EQ(cal.nextFree(1), 9 * kSlot);
    EXPECT_FALSE(cal.rangeFree(0, kSlot + 1));
    EXPECT_TRUE(cal.rangeFree(0, kSlot));
    EXPECT_TRUE(cal.rangeFree(9 * kSlot, 10 * kSlot));
}

TEST(SlotCalendar, SubSlotGapsStaySeparateButFitNoSlot)
{
    SlotCalendar cal(kSlot);
    cal.reserve(0);
    cal.reserve(kSlot + 1); // one tick after the first slot ends
    EXPECT_EQ(cal.liveSpans(), 2u);
    EXPECT_TRUE(cal.rangeFree(kSlot, kSlot + 1));
    EXPECT_EQ(cal.nextFree(0), 2 * kSlot + 1);
    EXPECT_EQ(cal.nextFree(kSlot), 2 * kSlot + 1);
    cal.reserve(kSlot - 2); // overlapping booking: the union is kept
    EXPECT_EQ(cal.liveSpans(), 1u);
    EXPECT_EQ(cal.nextFree(0), 2 * kSlot + 1);
}

TEST(SlotCalendar, RunsAreOneSpanOnlyAtSlotWidthStride)
{
    SlotCalendar cal(kSlot);
    cal.reserveRun(100, 64, kSlot);
    EXPECT_EQ(cal.liveSpans(), 1u);
    EXPECT_EQ(cal.nextFree(100), 100 + 64 * kSlot);
    cal.reserveRun(100 + 100 * kSlot, 64, 2 * kSlot);
    EXPECT_EQ(cal.liveSpans(), 65u);
    EXPECT_EQ(cal.nextFree(100 + 100 * kSlot), 101 * kSlot + 100);
    cal.reserveRun(0, 0, kSlot); // empty run books nothing
    EXPECT_EQ(cal.liveSpans(), 65u);
}

TEST(SlotCalendar, RetiresSpansPastTheHorizon)
{
    // A span is kept while it ends no more than the horizon before the
    // newest span's end.
    SlotCalendar kept(kSlot);
    kept.reserve(0);
    kept.reserve(kHorizon);
    EXPECT_EQ(kept.liveSpans(), 2u);
    EXPECT_EQ(kept.nextFree(0), kSlot);

    SlotCalendar retired(kSlot);
    retired.reserve(0);
    retired.reserve(kHorizon + 1);
    EXPECT_EQ(retired.liveSpans(), 1u);
    EXPECT_EQ(retired.nextFree(0), 0);

    // A long in-order stream stays bounded by the horizon.
    SlotCalendar stream(kSlot);
    for (Tick t = 0; t < 8 * kHorizon; t += 2 * kSlot)
        stream.reserve(t);
    EXPECT_LE(stream.liveSpans(),
              static_cast<std::size_t>(SlotCalendar::kHorizonSlots / 2 + 1));
}

TEST(DeviceDeathTest, IssueTooEarlyPanics)
{
    const DramConfig cfg = hbm4Config();
    ChannelDevice dev(cfg.org, cfg.timing);
    DramAddress a{0, 0, 0, 0, 1, 0};
    dev.issue({CmdKind::Act, a}, 0);
    EXPECT_THROW(dev.issue({CmdKind::Act, a}, 0), std::logic_error);
}

} // namespace
} // namespace rome
