/**
 * @file
 * Conventional memory controller tests: streaming bandwidth, row-buffer
 * locality, page policies, write draining, refresh interference, queue-depth
 * sensitivity, latency accounting, and Table IV introspection.
 */

#include <gtest/gtest.h>

#include <utility>

#include "common/random.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "sim/workloads.h"

// Parity tests drive the legacy scheduler as their decision oracle; perf
// builds compile it out (-DROME_ORACLES=OFF) and skip them. The golden
// digests below need no oracle and run in every build.
#if ROME_ORACLES
#define REQUIRE_ORACLES() ((void)0)
#else
#define REQUIRE_ORACLES() \
    GTEST_SKIP() << "legacy oracle compiled out (ROME_ORACLES=OFF)"
#endif

namespace rome
{
namespace
{

using namespace rome::literals;

McConfig
noRefreshCfg()
{
    McConfig c;
    c.refreshEnabled = false;
    return c;
}

ConventionalMc
makeMc(const McConfig& cfg)
{
    const DramConfig dram = hbm4Config();
    return ConventionalMc(dram, bestBaselineMapping(dram.org), cfg);
}

/** Enqueue @p total bytes of sequential reads in @p chunk-byte requests. */
void
streamReads(ConventionalMc& mc, std::uint64_t total, std::uint64_t chunk,
            std::uint64_t base = 0)
{
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < total; off += chunk)
        mc.enqueue({id++, ReqKind::Read, base + off, chunk, 0});
}

TEST(ConventionalMc, StreamingReadsApproachPeakBandwidth)
{
    auto mc = makeMc(noRefreshCfg());
    streamReads(mc, 1_MiB, 4_KiB);
    mc.drain();
    EXPECT_EQ(mc.bytesRead(), 1_MiB);
    // Peak is 64 B/ns per channel; ACT/PRE overheads must stay hidden.
    EXPECT_GT(mc.achievedBandwidth(), 55.0);
    EXPECT_LE(mc.achievedBandwidth(), 64.0);
}

TEST(ConventionalMc, StreamingRowHitRateIsHigh)
{
    auto mc = makeMc(noRefreshCfg());
    streamReads(mc, 1_MiB, 4_KiB);
    mc.drain();
    // One ACT per 32 column ops per row slice -> ~97 % hits.
    EXPECT_GT(mc.rowHitRate(), 0.9);
}

TEST(ConventionalMc, RefreshCostsSomeBandwidth)
{
    auto with_refresh = makeMc(McConfig{});
    auto without = makeMc(noRefreshCfg());
    streamReads(with_refresh, 1_MiB, 4_KiB);
    streamReads(without, 1_MiB, 4_KiB);
    with_refresh.drain();
    without.drain();
    EXPECT_LT(with_refresh.achievedBandwidth(), without.achievedBandwidth());
    // ~7 % refresh duty (tRFCpb / tREFIbank); allow slack for interference.
    EXPECT_GT(with_refresh.achievedBandwidth(),
              0.85 * without.achievedBandwidth());
}

TEST(ConventionalMc, RefreshesAreIssuedAtTheRequiredRate)
{
    auto mc = makeMc(McConfig{});
    // Idle channel: refreshes happen on schedule.
    mc.runUntil(100_us);
    // 128 banks, each refreshed every 3.9 us -> ~3282 REFpb in 100 us.
    const double expected = 100000.0 / 3900.0 * 128.0;
    const auto got = static_cast<double>(mc.device().counters().refPbs.value());
    EXPECT_NEAR(got, expected, 0.1 * expected);
}

TEST(ConventionalMc, SmallQueueLimitsRandomAccessBandwidth)
{
    // Random 32 B reads need deep queues to overlap tRC across banks
    // (§V-A: the conventional MC needs ~45+ entries).
    auto run = [](int depth) {
        McConfig cfg;
        cfg.refreshEnabled = false;
        cfg.readQueueDepth = depth;
        auto mc = makeMc(cfg);
        Rng rng(42);
        const DramConfig dram = hbm4Config();
        for (std::uint64_t i = 0; i < 20000; ++i) {
            const std::uint64_t line =
                rng.below(dram.org.channelCapacity() / 32);
            mc.enqueue({i + 1, ReqKind::Read, line * 32, 32, 0});
        }
        mc.drain();
        return mc.achievedBandwidth();
    };
    const double bw8 = run(8);
    const double bw64 = run(64);
    EXPECT_LT(bw8, 0.45 * bw64);
}

TEST(ConventionalMc, SingleReadLatencyIsActRcdClBurst)
{
    auto mc = makeMc(noRefreshCfg());
    mc.enqueue({1, ReqKind::Read, 0, 32, 0});
    mc.drain();
    ASSERT_EQ(mc.completions().size(), 1u);
    const TimingParams t = hbm4Timing();
    const Tick expect = t.tRCDRD + t.tCL + t.tBURST;
    EXPECT_DOUBLE_EQ(mc.latencyNs().mean(), nsFromTicks(expect));
}

TEST(ConventionalMc, WritesDrainAndComplete)
{
    auto mc = makeMc(noRefreshCfg());
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < 256_KiB; off += 4_KiB)
        mc.enqueue({id++, ReqKind::Write, off, 4_KiB, 0});
    mc.drain();
    EXPECT_EQ(mc.bytesWritten(), 256_KiB);
    EXPECT_TRUE(mc.idle());
    EXPECT_GT(mc.achievedBandwidth(), 40.0);
}

TEST(ConventionalMc, MixedReadWriteCompletesWithTurnaroundCost)
{
    auto mc = makeMc(noRefreshCfg());
    auto pure = makeMc(noRefreshCfg());
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < 512_KiB; off += 4_KiB) {
        const bool wr = (off / 4_KiB) % 4 == 3; // 25 % writes
        mc.enqueue({id++, wr ? ReqKind::Write : ReqKind::Read, off, 4_KiB,
                    0});
        pure.enqueue({id++, ReqKind::Read, off, 4_KiB, 0});
    }
    mc.drain();
    pure.drain();
    EXPECT_EQ(mc.bytesRead() + mc.bytesWritten(), 512_KiB);
    EXPECT_LT(mc.achievedBandwidth(), pure.achievedBandwidth());
    EXPECT_GT(mc.achievedBandwidth(), 0.5 * pure.achievedBandwidth());
}

TEST(ConventionalMc, AllRequestsCompleteExactlyOnce)
{
    auto mc = makeMc(McConfig{});
    streamReads(mc, 512_KiB, 2_KiB);
    mc.drain();
    EXPECT_EQ(mc.completions().size(), 512_KiB / 2_KiB);
    std::set<std::uint64_t> ids;
    for (const auto& c : mc.completions())
        EXPECT_TRUE(ids.insert(c.id).second);
}

TEST(ConventionalMc, RequestLargerThanQueueCompletes)
{
    McConfig cfg = noRefreshCfg();
    cfg.readQueueDepth = 16; // far below 4 KiB / 32 B = 128 ops
    auto mc = makeMc(cfg);
    mc.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    mc.drain();
    ASSERT_EQ(mc.completions().size(), 1u);
    EXPECT_EQ(mc.bytesRead(), 4_KiB);
}

TEST(ConventionalMc, ClosePolicyLeavesBanksPrecharged)
{
    McConfig cfg = noRefreshCfg();
    cfg.pagePolicy = PagePolicy::Close;
    auto mc = makeMc(cfg);
    streamReads(mc, 64_KiB, 4_KiB);
    mc.drain();
    // Run a little past the drain to let trailing precharges issue.
    mc.runUntil(mc.now() + 200_ns);
    const Organization org = hbm4Config().org;
    int open = 0;
    for (int pc = 0; pc < org.pcsPerChannel; ++pc)
        for (int sid = 0; sid < org.sidsPerChannel; ++sid)
            for (int bg = 0; bg < org.bankGroupsPerSid; ++bg)
                for (int ba = 0; ba < org.banksPerGroup; ++ba)
                    open += mc.device().bankRecord(
                        DramAddress{pc, sid, bg, ba, 0, 0}).open();
    EXPECT_EQ(open, 0);
}

TEST(ConventionalMc, OpenPolicyKeepsRowsOpen)
{
    auto mc = makeMc(noRefreshCfg());
    streamReads(mc, 64_KiB, 4_KiB);
    mc.drain();
    const Organization org = hbm4Config().org;
    int open = 0;
    for (int pc = 0; pc < org.pcsPerChannel; ++pc)
        for (int sid = 0; sid < org.sidsPerChannel; ++sid)
            for (int bg = 0; bg < org.bankGroupsPerSid; ++bg)
                for (int ba = 0; ba < org.banksPerGroup; ++ba)
                    open += mc.device().bankRecord(
                        DramAddress{pc, sid, bg, ba, 0, 0}).open();
    EXPECT_GT(open, 0);
}

TEST(ConventionalMc, AdaptivePolicyPrechargesIdleRows)
{
    McConfig cfg = noRefreshCfg();
    cfg.pagePolicy = PagePolicy::Adaptive;
    auto mc = makeMc(cfg);
    mc.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    mc.drain();
    mc.runUntil(mc.now() + 1_us); // longer than the adaptive timeout
    const Organization org = hbm4Config().org;
    int open = 0;
    for (int pc = 0; pc < org.pcsPerChannel; ++pc)
        for (int sid = 0; sid < org.sidsPerChannel; ++sid)
            for (int bg = 0; bg < org.bankGroupsPerSid; ++bg)
                for (int ba = 0; ba < org.banksPerGroup; ++ba)
                    open += mc.device().bankRecord(
                        DramAddress{pc, sid, bg, ba, 0, 0}).open();
    EXPECT_EQ(open, 0);
}

TEST(ConventionalMc, PathologicalMappingDegradesBandwidth)
{
    const DramConfig dram = hbm4Config();
    ConventionalMc good(dram, bestBaselineMapping(dram.org), noRefreshCfg());
    ConventionalMc bad(dram, standardMappings(dram.org).back(),
                       noRefreshCfg());
    streamReads(good, 256_KiB, 4_KiB);
    streamReads(bad, 256_KiB, 4_KiB);
    good.drain();
    bad.drain();
    EXPECT_LT(bad.achievedBandwidth(), 0.5 * good.achievedBandwidth());
}

TEST(ConventionalMc, LatencyBoundedUnderLoad)
{
    auto mc = makeMc(McConfig{});
    streamReads(mc, 1_MiB, 4_KiB);
    mc.drain();
    // Age-based QoS keeps the tail bounded (well under the 5 us threshold
    // plus service time for this load).
    EXPECT_LT(mc.latencyNs().max(), 40000.0);
}

TEST(ConventionalMc, ComplexityMatchesTableIV)
{
    auto mc = makeMc(McConfig{});
    const McComplexity c = mc.complexity();
    EXPECT_EQ(c.numTimingParams, 15);
    EXPECT_EQ(c.numBankFsms, 64); // total banks per PC (Figure 4)
    EXPECT_EQ(c.numBankStates, 7);
    EXPECT_EQ(c.pagePolicy, "Open");
    EXPECT_EQ(c.requestQueueDepth, 64);
    EXPECT_EQ(c.schedulingConcerns.size(), 4u);
}

// ---------------------------------------------------------------------------
// Scheduler parity: the indexed (incremental per-bank) scheduler must make
// bit-identical decisions to the retained legacy (rescan-everything)
// scheduler, which preserves the pre-refactor decision order.
// ---------------------------------------------------------------------------

/**
 * What a run produced: its stats, plus FNV-1a hashes of the device
 * command stream (tick, kind, full address of every committed command)
 * and of the completion log (request id, finish tick, poison flag).
 */
struct RunDigest
{
    ControllerStats stats;
    std::uint64_t commands = 0;
    std::uint64_t commandHash = 0;
    std::uint64_t completionHash = 0;

    bool
    operator==(const RunDigest& o) const
    {
        return stats == o.stats && commands == o.commands &&
               commandHash == o.commandHash &&
               completionHash == o.completionHash;
    }
};

/** 64-bit FNV-1a over little-endian words. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

RunDigest
runDigest(const McConfig& cfg, const std::vector<Request>& reqs,
          const AddressMapping& mapping)
{
    ConventionalMc mc(hbm4Config(), mapping, cfg);
    RunDigest d;
    Fnv1a cmds;
    // The controller owns its device mutably; the test taps its trace.
    const_cast<ChannelDevice&>(mc.device())
        .setTrace([&](Tick at, const Command& c) {
            const DramAddress& a = c.addr;
            cmds.add(static_cast<std::uint64_t>(at));
            cmds.add(static_cast<std::uint64_t>(c.kind));
            for (const int f : {a.pc, a.sid, a.bg, a.bank, a.row, a.col})
                cmds.add(static_cast<std::uint64_t>(f));
            ++d.commands;
        });
    d.stats = runWorkload(mc, reqs);
    d.commandHash = cmds.h;
    Fnv1a done;
    for (const Completion& c : mc.completions()) {
        done.add(c.id);
        done.add(static_cast<std::uint64_t>(c.finished));
        done.add(c.poisoned ? 1 : 0);
    }
    d.completionHash = done.h;
    return d;
}

RunDigest
runConvDigest(const McConfig& cfg, const std::vector<Request>& reqs,
              bool pathological_mapping = false)
{
    const Organization org = hbm4Config().org;
    return runDigest(cfg, reqs,
                     pathological_mapping ? standardMappings(org).back()
                                          : bestBaselineMapping(org));
}

/** The first @p n requests of a checked-in corpus trace. */
std::vector<Request>
traceSlice(const char* name, std::size_t n)
{
    TraceSource trace(std::string(ROME_SOURCE_DIR) + "/tests/data/" + name);
    std::vector<Request> reqs;
    Request r;
    while (reqs.size() < n && trace.next(r))
        reqs.push_back(r);
    return reqs;
}

std::vector<Request>
policyWorkload()
{
    RandomPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 2_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.3;
    p.seed = 42;
    return randomRequests(p);
}

std::vector<Request>
writeDrainWorkload()
{
    // Write bursts push occupancy through the high watermark; read tails
    // pull it back below the low watermark, so the hysteresis toggles.
    std::vector<Request> reqs;
    std::uint64_t id = 1;
    std::uint64_t addr = 0;
    for (int block = 0; block < 4; ++block) {
        for (int i = 0; i < 96; ++i) {
            reqs.push_back({id++, ReqKind::Write, addr, 4_KiB, 0});
            addr += 4_KiB;
        }
        for (int i = 0; i < 24; ++i) {
            reqs.push_back({id++, ReqKind::Read, addr, 4_KiB, 0});
            addr += 4_KiB;
        }
    }
    return reqs;
}

TEST(SchedulerParity, AllPagePoliciesAndWorkloads)
{
    REQUIRE_ORACLES();
    const auto policy_reqs = policyWorkload();
    const auto drain_reqs = writeDrainWorkload();
    RandomPattern fine;
    fine.totalBytes = 64_KiB;
    fine.requestBytes = 32;
    fine.capacity = hbm4Config().org.channelCapacity();
    fine.writeFraction = 0.1;
    fine.seed = 9;
    const auto fine_reqs = randomRequests(fine);

    for (const PagePolicy pol :
         {PagePolicy::Open, PagePolicy::Close, PagePolicy::Adaptive}) {
        for (const auto* reqs : {&policy_reqs, &drain_reqs, &fine_reqs}) {
            McConfig indexed;
            indexed.pagePolicy = pol;
            McConfig legacy = indexed;
            legacy.legacyScheduler = true;
            EXPECT_TRUE(runConvDigest(indexed, *reqs) ==
                        runConvDigest(legacy, *reqs))
                << "policy " << static_cast<int>(pol);
        }
    }
}

TEST(SchedulerParity, AgedQosAndSmallQueues)
{
    REQUIRE_ORACLES();
    // A tight age threshold forces the aged-priority paths (forced CAS,
    // aged conflict precharges); a small queue stresses admission blocking.
    RandomPattern p;
    p.totalBytes = 128_KiB;
    p.requestBytes = 64;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.25;
    p.seed = 3;
    const auto reqs = randomRequests(p);

    McConfig indexed;
    indexed.readQueueDepth = 24;
    indexed.writeQueueDepth = 16;
    indexed.agePriorityThreshold = 300_ns;
    McConfig legacy = indexed;
    legacy.legacyScheduler = true;
    EXPECT_TRUE(runConvDigest(indexed, reqs) == runConvDigest(legacy, reqs));
}

TEST(SchedulerParity, PathologicalMappingAndNoRefresh)
{
    REQUIRE_ORACLES();
    // The worst standard mapping serializes traffic onto few banks, which
    // exercises the conflict-PRE representative selection heavily.
    StreamPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 4_KiB;
    p.writeFraction = 0.2;
    p.seed = 17;
    const auto reqs = streamRequests(p);

    for (const bool refresh : {true, false}) {
        McConfig indexed;
        indexed.refreshEnabled = refresh;
        McConfig legacy = indexed;
        legacy.legacyScheduler = true;
        EXPECT_TRUE(runConvDigest(indexed, reqs, true) ==
                    runConvDigest(legacy, reqs, true))
            << "refresh " << refresh;
    }
}

TEST(SchedulerParity, EveryStandardMapping)
{
    REQUIRE_ORACLES();
    // The six presets put 2, 8 or 32 lines between consecutive columns
    // of one bank row, or (row bits below the column bits) never place
    // two lines of a request in one row, so queued column ops group into
    // runs of every shape. Multi-KB requests with random offsets cross
    // column wraps; 32 B requests make every op its own request.
    const Organization org = hbm4Config().org;
    RandomPattern coarse;
    coarse.totalBytes = 192_KiB;
    coarse.requestBytes = 3_KiB;
    coarse.capacity = org.channelCapacity();
    coarse.writeFraction = 0.3;
    coarse.seed = 23;
    std::vector<Request> coarse_reqs = randomRequests(coarse);
    for (std::size_t i = 0; i < coarse_reqs.size(); ++i)
        coarse_reqs[i].addr += 32 * (i % 7); // off column-aligned starts
    RandomPattern fine;
    fine.totalBytes = 32_KiB;
    fine.requestBytes = 32;
    fine.capacity = org.channelCapacity();
    fine.writeFraction = 0.2;
    fine.seed = 5;
    const std::vector<Request> fine_reqs = randomRequests(fine);

    for (const AddressMapping& mapping : standardMappings(org)) {
        for (const PagePolicy pol :
             {PagePolicy::Open, PagePolicy::Close, PagePolicy::Adaptive}) {
            for (const std::vector<Request>* reqs :
                 {&std::as_const(coarse_reqs), &fine_reqs}) {
                McConfig indexed;
                indexed.pagePolicy = pol;
                indexed.readQueueDepth = 48;
                indexed.writeQueueDepth = 32;
                McConfig legacy = indexed;
                legacy.legacyScheduler = true;
                EXPECT_TRUE(runDigest(indexed, *reqs, mapping) ==
                            runDigest(legacy, *reqs, mapping))
                    << mapping.name() << " policy " << static_cast<int>(pol)
                    << " requests " << reqs->size();
            }
        }
    }
}

TEST(SchedulerParity, FaultRetriesAndSparing)
{
    REQUIRE_ORACLES();
    // An ECC re-read re-enters the read queue with its request's original
    // arrival, so once arrivals are spread it lands behind younger ops
    // (an out-of-order bank list); row sparing rewrites queued ops' rows
    // (a hit-summary reindex). Both must keep the decision order. The
    // streamed case puts many re-reads behind open-row hits.
    const auto spread = [](std::vector<Request> reqs) {
        for (std::size_t i = 0; i < reqs.size(); ++i)
            reqs[i].arrival = ticksFromNs(static_cast<std::int64_t>(8 * i));
        return reqs;
    };
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        RandomPattern p;
        p.totalBytes = 512_KiB;
        p.requestBytes = 2_KiB;
        p.capacity = hbm4Config().org.channelCapacity();
        p.writeFraction = 0.3;
        p.seed = seed;
        const auto random_reqs = spread(randomRequests(p));
        StreamPattern sp;
        sp.totalBytes = 512_KiB;
        sp.requestBytes = 2_KiB;
        sp.writeFraction = 0.3;
        sp.seed = seed;
        const auto stream_reqs = spread(streamRequests(sp));

        struct Case
        {
            const char* label;
            const std::vector<Request>* reqs;
            double transientRate;
            bool stuckRows;
        };
        for (const Case& c : {Case{"transient", &random_reqs, 1e-3, false},
                              Case{"stuck rows", &random_reqs, 0.0, true},
                              Case{"streamed", &stream_reqs, 5e-3, false}}) {
            McConfig indexed;
            indexed.faults.enabled = true;
            indexed.faults.seed = seed;
            indexed.faults.transientLineRate = c.transientRate;
            if (c.stuckRows) {
                indexed.faults.stuckRowFraction = 0.01;
                indexed.faults.retryLimit = 1;
                indexed.faults.ceSpareThreshold = 2;
            }
            McConfig legacy = indexed;
            legacy.legacyScheduler = true;
            const RunDigest si = runConvDigest(indexed, *c.reqs);
            EXPECT_GT(si.stats.retryCount, 0u) << c.label << " seed " << seed;
            if (c.stuckRows) {
                EXPECT_GT(si.stats.sparedRows, 0u) << "seed " << seed;
            }
            EXPECT_TRUE(si == runConvDigest(legacy, *c.reqs))
                << c.label << " seed " << seed;
        }
    }
}

// ---------------------------------------------------------------------------
// Golden-stats snapshots: integer command/byte counts of the pre-refactor
// scheduler, pinned so any future decision-order change is caught even if
// both implementations drift together.
// ---------------------------------------------------------------------------

struct GoldenStats
{
    const char* name;
    std::uint64_t acts, pres, reads, writes, refPbs, colCmds;
    std::uint64_t completedRequests, totalBytes;
    Tick finishedAt;
};

void
expectGolden(const ControllerStats& s, const GoldenStats& g)
{
    EXPECT_EQ(s.acts, g.acts) << g.name;
    EXPECT_EQ(s.pres, g.pres) << g.name;
    EXPECT_EQ(s.reads, g.reads) << g.name;
    EXPECT_EQ(s.writes, g.writes) << g.name;
    EXPECT_EQ(s.refPbs, g.refPbs) << g.name;
    EXPECT_EQ(s.colCmds, g.colCmds) << g.name;
    EXPECT_EQ(s.completedRequests, g.completedRequests) << g.name;
    EXPECT_EQ(s.totalBytes(), g.totalBytes) << g.name;
    EXPECT_EQ(s.finishedAt, g.finishedAt) << g.name;
}

TEST(SchedulerGolden, PagePolicySnapshots)
{
    const GoldenStats golden[] = {
        {"open", 1030u, 925u, 5632u, 2560u, 155u, 8192u, 128u, 262144u,
         19028},
        {"close", 1063u, 1059u, 5632u, 2560u, 150u, 8192u, 128u, 262144u,
         18320},
        {"adaptive", 1046u, 1027u, 5632u, 2560u, 149u, 8192u, 128u,
         262144u, 18320},
    };
    const PagePolicy policies[] = {PagePolicy::Open, PagePolicy::Close,
                                   PagePolicy::Adaptive};
    const auto reqs = policyWorkload();
    for (int i = 0; i < 3; ++i) {
        McConfig indexed;
        indexed.pagePolicy = policies[i];
        expectGolden(runConvDigest(indexed, reqs).stats, golden[i]);
#if ROME_ORACLES
        McConfig legacy = indexed;
        legacy.legacyScheduler = true;
        expectGolden(runConvDigest(legacy, reqs).stats, golden[i]);
#endif
    }
}

TEST(SchedulerGolden, WriteDrainHysteresisSnapshot)
{
    const GoldenStats golden{"write-drain", 1955u, 1859u, 12288u, 49152u,
                             1030u, 61440u, 480u, 1966080u, 126372};
    const auto reqs = writeDrainWorkload();
    expectGolden(runConvDigest(McConfig{}, reqs).stats, golden);
#if ROME_ORACLES
    McConfig legacy;
    legacy.legacyScheduler = true;
    expectGolden(runConvDigest(legacy, reqs).stats, golden);
#endif
}

TEST(SchedulerGolden, CorpusSliceDigests)
{
    // One channel under the corpus traces' own arrivals (far above one
    // channel's bandwidth, so admission is queue-depth bound), pinned by
    // command-stream and completion-log hashes recorded while the queues
    // still held one node per column op. No oracle needed: this runs in
    // every build.
    struct Golden
    {
        GoldenStats stats;
        std::uint64_t commands, commandHash, completionHash;
    };
    const Golden golden[] = {
        {{"serving open", 4180u, 4111u, 95232u, 21760u, 2037u, 116992u,
          384u, 3743744u, 248764},
         127320u, 0x2bb82c2cf1cf0d47ull, 0x742f6c21f43c0f2cull},
        {{"serving close", 4456u, 4455u, 95232u, 21760u, 2046u, 116992u,
          384u, 3743744u, 249360},
         127949u, 0x1a39f1f2de999591ull, 0x21e4d2e6cd0cf6e2ull},
        {{"serving adaptive", 4367u, 4365u, 95232u, 21760u, 2047u, 116992u,
          384u, 3743744u, 249424},
         127771u, 0x31375b06f6b05885ull, 0xa0b73c6e375aa6b6ull},
        {{"prefill open", 1440u, 1387u, 29312u, 14080u, 904u, 43392u,
          96u, 1388544u, 110408},
         47123u, 0x3697595a80c984b5ull, 0x3eb4f4c4c05fc7fdull},
        {{"prefill close", 1500u, 1496u, 29312u, 14080u, 908u, 43392u,
          96u, 1388544u, 110716},
         47296u, 0xca321d84e047eec1ull, 0xd29b0b311fae9049ull},
        {{"prefill adaptive", 1464u, 1453u, 29312u, 14080u, 908u, 43392u,
          96u, 1388544u, 110728},
         47217u, 0x78fbb6b6f407837eull, 0x429fa2726dc59fdfull},
    };
    const std::vector<Request> slices[] = {traceSlice("serving.trace", 384),
                                           traceSlice("prefill.trace", 96)};
    const PagePolicy policies[] = {PagePolicy::Open, PagePolicy::Close,
                                   PagePolicy::Adaptive};
    for (int t = 0; t < 2; ++t) {
        for (int p = 0; p < 3; ++p) {
            const Golden& g = golden[3 * t + p];
            McConfig cfg;
            cfg.pagePolicy = policies[p];
            const RunDigest d = runConvDigest(cfg, slices[t]);
            expectGolden(d.stats, g.stats);
            EXPECT_EQ(d.commands, g.commands) << g.stats.name;
            EXPECT_EQ(d.commandHash, g.commandHash)
                << g.stats.name << std::hex << " 0x" << d.commandHash;
            EXPECT_EQ(d.completionHash, g.completionHash)
                << g.stats.name << std::hex << " 0x" << d.completionHash;
        }
    }
}

TEST(SchedulerGolden, SparingDuringAdmissionDigest)
{
    // Streamed 8 KiB requests over stuck rows: rows are spared while
    // later lines of the same request still wait for queue space, so
    // admission must hand them the spare, not the row it last used.
    // Recorded while admission decoded and remapped every line.
    StreamPattern p;
    p.totalBytes = 1_MiB;
    p.requestBytes = 8_KiB;
    p.writeFraction = 0.3;
    p.seed = 4;
    McConfig cfg;
    cfg.readQueueDepth = 16;
    cfg.writeQueueDepth = 16;
    cfg.faults.enabled = true;
    cfg.faults.seed = 4;
    cfg.faults.stuckRowFraction = 0.02;
    cfg.faults.retryLimit = 0;
    cfg.faults.ceSpareThreshold = 1;
    const RunDigest d = runConvDigest(cfg, streamRequests(p));
    EXPECT_EQ(d.stats.sparedRows, 30u);
    EXPECT_EQ(d.stats.retryCount, 14u);
    EXPECT_EQ(d.commands, 37318u);
    EXPECT_EQ(d.commandHash, 0xa19d469876ded1f2ull)
        << std::hex << " 0x" << d.commandHash;
    EXPECT_EQ(d.completionHash, 0xfa3db2bc4e2a7a5dull)
        << std::hex << " 0x" << d.completionHash;
}

} // namespace
} // namespace rome
