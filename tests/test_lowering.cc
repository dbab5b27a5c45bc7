/**
 * @file
 * Template-vs-scalar lowering parity (§IV-C fast path). The precomputed
 * template path must be bit-identical to scalar per-command lowering:
 * identical RowOpResult fields, identical device command traces, and
 * identical ControllerStats through the RoMe MC — across every VBA design
 * point, both MC drive paths (indexed and legacy schedulers), and all
 * address-map orders. Forced-fallback scenarios (back-to-back same VBA,
 * REF-adjacent ops, stretch-the-schedule requests from the cmdgen header
 * comment) must take the scalar path and still agree. At the device level,
 * every template the bulk probe accepts from a random state must leave the
 * same device state and trace as a command-by-command replay.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/random.h"
#include "dram/hbm4_config.h"
#include "rome/cmdgen.h"
#include "rome/rome_mc.h"
#include "rome/rome_timing.h"
#include "sim/workloads.h"

// Parity tests drive the legacy scheduler / forced scalar lowering as
// decision oracles; perf builds compile them out (-DROME_ORACLES=OFF)
// and skip.
#if ROME_ORACLES
#define REQUIRE_ORACLES() ((void)0)
#else
#define REQUIRE_ORACLES() \
    GTEST_SKIP() << "test-only oracles compiled out (ROME_ORACLES=OFF)"
#endif

namespace rome
{
namespace
{

using namespace rome::literals;

struct Lowered
{
    Tick at;
    CmdKind kind;
    DramAddress addr;

    bool
    operator==(const Lowered& o) const
    {
        return at == o.at && kind == o.kind && addr.pc == o.addr.pc &&
               addr.sid == o.addr.sid && addr.bg == o.addr.bg &&
               addr.bank == o.addr.bank && addr.row == o.addr.row &&
               addr.col == o.addr.col;
    }
};

bool
sameResult(const CommandGenerator::RowOpResult& a,
           const CommandGenerator::RowOpResult& b)
{
    return a.start == b.start && a.dataFrom == b.dataFrom &&
           a.dataUntil == b.dataUntil && a.vbaReadyAt == b.vbaReadyAt &&
           a.acts == b.acts && a.cass == b.cass && a.pres == b.pres &&
           a.refPbs == b.refPbs && a.bytes == b.bytes;
}

/** One generator under test plus its recorded device trace. */
struct GenRig
{
    explicit GenRig(const VbaMap& map, bool templates)
        : dev(map.deviceOrganization(), map.deviceTiming()),
          gen(map, dev, templates)
    {
        dev.setTrace([this](Tick at, const Command& c) {
            trace.push_back(Lowered{at, c.kind, c.addr});
        });
    }

    ChannelDevice dev;
    CommandGenerator gen;
    std::vector<Lowered> trace;
};

/** Execute @p ops on a template and a scalar rig; all outputs must agree. */
void
expectLoweringParity(const VbaMap& map,
                     const std::vector<std::pair<RowCommand, Tick>>& ops,
                     const char* what)
{
    GenRig tmpl(map, true);
    GenRig scal(map, false);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto a = tmpl.gen.execute(ops[i].first, ops[i].second);
        const auto b = scal.gen.execute(ops[i].first, ops[i].second);
        EXPECT_TRUE(sameResult(a, b))
            << what << ": op " << i << " diverged on "
            << map.design().name();
    }
    ASSERT_EQ(tmpl.trace.size(), scal.trace.size())
        << what << " on " << map.design().name();
    for (std::size_t i = 0; i < tmpl.trace.size(); ++i) {
        EXPECT_TRUE(tmpl.trace[i] == scal.trace[i])
            << what << ": command " << i << " diverged on "
            << map.design().name();
    }
    const auto& ct = tmpl.dev.counters();
    const auto& cs = scal.dev.counters();
    EXPECT_EQ(ct.acts.value(), cs.acts.value());
    EXPECT_EQ(ct.reads.value(), cs.reads.value());
    EXPECT_EQ(ct.writes.value(), cs.writes.value());
    EXPECT_EQ(ct.pres.value(), cs.pres.value());
    EXPECT_EQ(ct.refPbs.value(), cs.refPbs.value());
    EXPECT_EQ(ct.dataBytes.value(), cs.dataBytes.value());
    EXPECT_EQ(ct.rowCmds.value(), cs.rowCmds.value());
    EXPECT_EQ(ct.colCmds.value(), cs.colCmds.value());
    EXPECT_EQ(tmpl.dev.lastDataEnd(), scal.dev.lastDataEnd());
}

TEST(LoweringParity, SteadyStateStreamAcrossAllDesigns)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        const RomeTimingParams rt = deriveRomeTiming(cfg.timing, map);
        std::vector<std::pair<RowCommand, Tick>> ops;
        Tick at = 0;
        for (int i = 0; i < 48; ++i) {
            const VbaAddress a{(i / map.vbasPerSid()) % 4,
                               i % map.vbasPerSid(), i % 32};
            const bool wr = i % 5 == 4;
            ops.push_back({{wr ? RowCmdKind::WrRow : RowCmdKind::RdRow, a},
                           at});
            at += wr ? rt.tW2RS : rt.tR2RS;
        }
        expectLoweringParity(map, ops, "steady stream");
    }
}

TEST(LoweringParity, SteadyStateMostlyHitsTheTemplatePath)
{
    const DramConfig cfg = hbm4Config();
    const VbaMap map(cfg.org, cfg.timing, VbaDesign::adopted());
    const RomeTimingParams rt = romeTableVTiming();
    GenRig rig(map, true);
    Tick at = 0;
    for (int i = 0; i < 64; ++i) {
        rig.gen.execute({RowCmdKind::RdRow, {0, i % map.vbasPerSid(), i}},
                        at);
        at += rt.tR2RS;
    }
    EXPECT_TRUE(rig.gen.templateLowering());
    EXPECT_GT(rig.gen.templateHits(), rig.gen.templateFallbacks());
    EXPECT_GE(rig.gen.templateHits() + rig.gen.templateFallbacks(), 64u);
}

TEST(LoweringParity, BackToBackSameVbaFallsBackAndAgrees)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        const RomeTimingParams rt = deriveRomeTiming(cfg.timing, map);
        // Same-VBA back-to-back at the nominal Table III spacing forces
        // the generator to stretch (see cmdgen header) — the template
        // admission check must reject it and the scalar paths must agree.
        std::vector<std::pair<RowCommand, Tick>> ops;
        ops.push_back({{RowCmdKind::RdRow, {0, 0, 1}}, 0});
        ops.push_back({{RowCmdKind::RdRow, {0, 0, 2}}, rt.tRDrow});
        ops.push_back({{RowCmdKind::WrRow, {0, 0, 3}}, 2 * rt.tRDrow});
        expectLoweringParity(map, ops, "same-VBA back-to-back");
    }
}

TEST(LoweringParity, SameVbaBackToBackCountsAsFallback)
{
    const DramConfig cfg = hbm4Config();
    const VbaMap map(cfg.org, cfg.timing, VbaDesign::adopted());
    const RomeTimingParams rt = romeTableVTiming();
    GenRig rig(map, true);
    rig.gen.execute({RowCmdKind::RdRow, {0, 0, 1}}, 0);
    EXPECT_EQ(rig.gen.templateHits(), 1u);
    // Table V spacing (95 ns) is 2 ns tighter than the tRTP-accurate
    // round-trip: the banks are still busy, so the fast path must refuse.
    rig.gen.execute({RowCmdKind::RdRow, {0, 0, 2}}, rt.tRDrow);
    EXPECT_EQ(rig.gen.templateFallbacks(), 1u);
}

TEST(LoweringParity, RefreshAdjacentOpsFallBackAndAgree)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        std::vector<std::pair<RowCommand, Tick>> ops;
        // REF on a cold VBA, then a read on the same VBA before tRFCpb
        // expires (stretches), then a REF right after an op (the REFpb
        // floor rejects until tRP passes).
        ops.push_back({{RowCmdKind::Ref, {0, 0, 0}}, 0});
        ops.push_back({{RowCmdKind::RdRow, {0, 0, 5}}, 10_ns});
        ops.push_back({{RowCmdKind::RdRow, {0, 1, 6}}, 12_ns});
        ops.push_back({{RowCmdKind::Ref, {0, 1, 0}}, 400_ns});
        ops.push_back({{RowCmdKind::RdRow, {0, 2, 7}}, 410_ns});
        expectLoweringParity(map, ops, "REF-adjacent");
    }
}

TEST(LoweringParity, StretchedScheduleAgrees)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        // Everything requested at once: every op after the first collides
        // on the shared buses and bank timings, exercising the minimal-
        // stretch scalar path against a busy device.
        std::vector<std::pair<RowCommand, Tick>> ops;
        for (int i = 0; i < 12; ++i) {
            ops.push_back(
                {{RowCmdKind::RdRow, {0, i % map.vbasPerSid(), i}}, 0});
        }
        expectLoweringParity(map, ops, "stretch-the-schedule");
    }
}

// ---------------------------------------------------------------------------
// Controller-level parity: template vs scalar lowering must produce
// bit-identical ControllerStats through both RoMe MC drive paths. These
// runs exercise the release bulk committer end to end.
// ---------------------------------------------------------------------------

TEST(LoweringParity, ControllerStatsAcrossDesignsAndSchedulers)
{
    REQUIRE_ORACLES();
    RandomPattern p;
    p.totalBytes = 384_KiB;
    p.requestBytes = 4_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.3;
    p.seed = 33;
    const auto reqs = randomRequests(p);

    for (const auto& d : VbaDesign::all()) {
        for (const bool legacy_sched : {false, true}) {
            RomeMcConfig tmpl_cfg;
            tmpl_cfg.legacyScheduler = legacy_sched;
            RomeMcConfig scal_cfg = tmpl_cfg;
            scal_cfg.scalarLowering = true;
            RomeMc a(hbm4Config(), d, tmpl_cfg);
            RomeMc b(hbm4Config(), d, scal_cfg);
            EXPECT_TRUE(runWorkload(a, reqs) == runWorkload(b, reqs))
                << d.name() << (legacy_sched ? " legacy" : " indexed");
            EXPECT_GT(a.generator().templateHits(), 0u) << d.name();
            EXPECT_EQ(b.generator().templateHits(), 0u);
        }
    }
}

TEST(LoweringParity, ControllerStatsAcrossMapOrders)
{
    REQUIRE_ORACLES();
    RandomPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 2_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.25;
    p.seed = 47;
    const auto reqs = randomRequests(p);

    for (const RomeMapOrder order :
         {RomeMapOrder::VbaSidRow, RomeMapOrder::SidVbaRow,
          RomeMapOrder::RowVbaSid}) {
        RomeMcConfig scalar_cfg;
        scalar_cfg.scalarLowering = true;
        RomeMc a(hbm4Config(), VbaDesign::adopted(), RomeMcConfig{}, order);
        RomeMc b(hbm4Config(), VbaDesign::adopted(), scalar_cfg, order);
        EXPECT_TRUE(runWorkload(a, reqs) == runWorkload(b, reqs));
    }
}

TEST(LoweringParity, VbaStateAgreesUnderTemplates)
{
    REQUIRE_ORACLES();
    RomeMcConfig scalar_cfg;
    scalar_cfg.scalarLowering = true;
    RomeMc a(hbm4Config(), VbaDesign::adopted(), RomeMcConfig{});
    RomeMc b(hbm4Config(), VbaDesign::adopted(), scalar_cfg);
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < 64_KiB; off += 4_KiB) {
        a.enqueue({id, ReqKind::Read, off, 4_KiB, 0});
        b.enqueue({id, ReqKind::Read, off, 4_KiB, 0});
        ++id;
    }
    a.runUntil(200_ns);
    b.runUntil(200_ns);
    for (int sid = 0; sid < 4; ++sid) {
        for (int vba = 0; vba < 8; ++vba) {
            const VbaAddress addr{sid, vba, 0};
            EXPECT_EQ(a.vbaState(addr, a.now()), b.vbaState(addr, b.now()))
                << addr.str();
        }
    }
}

// ---------------------------------------------------------------------------
// Device-level bulk commit vs per-command replay. No oracle flag is
// involved, so these also run in -DROME_ORACLES=OFF builds — in Release
// that is the bulk committer the benchmarks time.
// ---------------------------------------------------------------------------

/** One committed command as a device trace reports it. */
struct Committed
{
    Lowered cmd;
    ChannelDevice::IssueResult res;

    bool
    operator==(const Committed& o) const
    {
        return cmd == o.cmd && res.bankReadyAt == o.res.bankReadyAt &&
               res.dataFrom == o.res.dataFrom &&
               res.dataUntil == o.res.dataUntil;
    }
};

void
recordTrace(ChannelDevice& dev, std::vector<Committed>& out)
{
    dev.setTrace([&out](Tick at, const Command& c,
                        const ChannelDevice::IssueResult& r) {
        out.push_back({{at, c.kind, c.addr}, r});
    });
}

std::vector<std::uint8_t>
deviceState(const ChannelDevice& dev)
{
    CheckpointWriter w;
    dev.saveState(w);
    return w.data();
}

/**
 * Commit @p tpl at @p t0 one command at a time through earliestIssue and
 * issue; false at the first command that cannot land on its offset.
 */
bool
replayPerCommand(ChannelDevice& dev, const CmdTemplate& tpl,
                 const SequenceBinding& b, Tick t0)
{
    for (const TemplateCmd& e : tpl.cmds) {
        const auto& bank = b.banks[static_cast<std::size_t>(e.bankSlot)];
        const Command cmd{e.kind, DramAddress{e.pc, b.sid, bank.first,
                                              bank.second, b.row, e.col}};
        const Tick at = t0 + e.offset;
        if (dev.earliestIssue(cmd, at) != at)
            return false;
        dev.issue(cmd, at);
    }
    return true;
}

/**
 * Checks the bulk probe and commit on one device against a per-command
 * replay on a copy of it.
 */
struct BulkRig
{
    explicit BulkRig(ChannelDevice& d) : dev(d) { recordTrace(dev, bulkTrace); }

    /**
     * Walk t0 up from @p from to the first anchor earliestSequence
     * accepts — the binding constraint's boundary, where an off-by-one
     * would show — and commit @p tpl there in bulk. Returns the anchor,
     * or kTickMax when none lies within 100 ns.
     */
    Tick
    commitFirstAccepted(const CmdTemplate& tpl, const SequenceBinding& b,
                        Tick from, const std::string& what)
    {
        Tick t0 = from;
        while (t0 < from + 100_ns && dev.earliestSequence(tpl, b, t0) != t0)
            ++t0;
        if (t0 == from + 100_ns)
            return kTickMax;
        const std::string where = what + " at " + std::to_string(t0);
        if (t0 > from) {
            // The probe is exact: one tick earlier, the per-command path
            // cannot place the template either.
            ++boundaries;
            ChannelDevice early = dev;
            recordTrace(early, replayTrace);
            EXPECT_FALSE(replayPerCommand(early, tpl, b, t0 - 1)) << where;
        }
        ++accepted;
        ChannelDevice replay = dev;
        recordTrace(replay, replayTrace);
        bulkTrace.clear();
        replayTrace.clear();
        dev.issueSequence(tpl, b, t0);
        EXPECT_TRUE(replayPerCommand(replay, tpl, b, t0)) << where;
        EXPECT_TRUE(deviceState(dev) == deviceState(replay)) << where;
        EXPECT_TRUE(bulkTrace == replayTrace) << where;
        return t0;
    }

    ChannelDevice& dev;
    std::vector<Committed> bulkTrace;
    std::vector<Committed> replayTrace;
    int accepted = 0;
    int boundaries = 0;
};

RowCommand
randomRowOp(Rng& rng, const VbaMap& map)
{
    const std::uint64_t k = rng.below(10);
    const RowCmdKind kind = k < 5   ? RowCmdKind::RdRow
                            : k < 8 ? RowCmdKind::WrRow
                                    : RowCmdKind::Ref;
    const VbaAddress a{
        static_cast<int>(rng.below(static_cast<std::uint64_t>(
            map.deviceOrganization().sidsPerChannel))),
        static_cast<int>(
            rng.below(static_cast<std::uint64_t>(map.vbasPerSid()))),
        static_cast<int>(rng.below(64))};
    return {kind, a};
}

TEST(TemplateBulkCommit, MatchesPerCommandReplayFromRandomStates)
{
    const DramConfig cfg = hbm4Config();
    Rng rng(0x5eed);
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        ChannelDevice dev(map.deviceOrganization(), map.deviceTiming());
        CommandGenerator scalar(map, dev, false);
        const CommandGenerator gen(map, dev);
        BulkRig rig(dev);
        Tick now = 0;
        for (int round = 0; round < 60; ++round) {
            // Grow the pre-existing state with scalar-lowered row ops.
            for (int i = 0; i < 3; ++i) {
                now += static_cast<Tick>(rng.below(150)) * 1_ns;
                scalar.execute(randomRowOp(rng, map), now);
            }
            // Start probes around the recent activity, some in the
            // command-bus gaps it left behind.
            for (int probe = 0; probe < 8; ++probe) {
                const RowCommand op = randomRowOp(rng, map);
                const Tick from = std::max<Tick>(
                    0, now + (static_cast<Tick>(rng.below(500)) - 100) * 1_ns);
                rig.commitFirstAccepted(gen.sequenceTemplate(op.kind),
                                        gen.sequenceBinding(op.addr), from,
                                        d.name() + " " + op.addr.str());
            }
        }
        EXPECT_GT(rig.accepted, 60) << d.name();
        EXPECT_GT(rig.boundaries, 20) << d.name();
    }
}

TEST(TemplateBulkCommit, TfawCountsPreexistingActsByAge)
{
    // Four ACTs in PC 0 of SID 0, with a gap after the oldest: the
    // template's second ACT, not its first, is the one tFAW holds back.
    const DramConfig cfg = hbm4Config();
    const VbaMap map(cfg.org, cfg.timing, VbaDesign::adopted());
    ChannelDevice dev(map.deviceOrganization(), map.deviceTiming());
    const CommandGenerator gen(map, dev);
    const SequenceBinding b = gen.sequenceBinding({0, 0, 1});
    const std::array<Tick, 4> acts{0, 5_ns, 7_ns, 9_ns};
    const Organization& org = map.deviceOrganization();
    std::size_t n = 0;
    for (int bg = 0; bg < org.bankGroupsPerSid; ++bg) {
        for (int ba = 0; ba < org.banksPerGroup && n < acts.size(); ++ba) {
            const std::pair<int, int> bank{bg, ba};
            if (bank == b.banks[0] || bank == b.banks[1])
                continue;
            dev.issue({CmdKind::Act, DramAddress{0, 0, bg, ba, 0, 0}},
                      acts[n++]);
        }
    }
    ASSERT_EQ(n, acts.size());

    const CmdTemplate& tpl = gen.sequenceTemplate(RowCmdKind::RdRow);
    std::vector<Tick> pc0_acts;
    for (const TemplateCmd& e : tpl.cmds) {
        if (e.kind == CmdKind::Act && e.pc == 0)
            pc0_acts.push_back(e.offset);
    }
    ASSERT_EQ(pc0_acts.size(), 2u);
    BulkRig rig(dev);
    const Tick t0 = rig.commitFirstAccepted(tpl, b, 0, "tFAW");
    EXPECT_EQ(t0 + pc0_acts[1], acts[1] + map.deviceTiming().tFAW);
    EXPECT_EQ(rig.boundaries, 1);
}

} // namespace
} // namespace rome
