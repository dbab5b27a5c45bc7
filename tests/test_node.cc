/**
 * @file
 * Node-model tests: link serialization/credit/queuing semantics and
 * determinism, router-policy semantics (round-robin, cache-affinity,
 * load-aware) and TP/PP slice coverage, exact pipeline-stage selection
 * at huge address spans, the one-pass split's per-channel streams
 * covering the system stream exactly once, exact node-level histogram
 * merging, thread-count bit-invariance of the NodeDriver, golden
 * single-cube ideal-link and load-aware two-cube points, offered-rate
 * validation, routed checkpoint resume and its mismatch rejection, and
 * per-DUE request poisoning surfaced through completions and the
 * serving RatePoint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "llm/parallelism.h"
#include "mc/addrmap.h"
#include "mc/mc.h"
#include "sim/memsim.h"
#include "sim/node.h"
#include "sim/serving.h"
#include "sim/source.h"

namespace rome
{
namespace
{

using namespace rome::literals;

/** Distribution equality: bucket counts and extremes (not double sums). */
bool
sameDistribution(const LatencyHistogram& a, const LatencyHistogram& b)
{
    if (a.count() != b.count() || a.minNs() != b.minNs() ||
        a.maxNs() != b.maxNs())
        return false;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        if (a.bucketCount(i) != b.bucketCount(i))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// LinkModel
// ---------------------------------------------------------------------------

TEST(LinkModel, IdealLinkDeliversAtInjectionTick)
{
    LinkModel link(LinkConfig::idealLink());
    EXPECT_EQ(link.inject(0, 4_KiB), 0);
    EXPECT_EQ(link.inject(17, 64_KiB), 17);
    EXPECT_EQ(link.inject(17, 1), 17);
    EXPECT_EQ(link.injectedMessages(), 3u);
}

TEST(LinkModel, SerializationLatencyAndCreditsComposeExactly)
{
    // 4 B/ns at 4 ticks/ns = 1 tick/B serialization; 10-tick latency;
    // one credit. Every stall below is hand-computable.
    LinkConfig cfg;
    cfg.latencyTicks = 10;
    cfg.bytesPerNs = 4.0;
    cfg.credits = 1;
    LinkModel link(cfg);

    // First message: starts at 0, serializes 8 ticks, +10 propagation.
    EXPECT_EQ(link.inject(0, 8), 18);
    // The credit returns at deliver + latency = 28. A message injected
    // at tick 1 must wait for it, then serialize 4 ticks: 28 + 4 + 10.
    EXPECT_EQ(link.inject(1, 4), 42);
    // Credit of the second frees at 52; a message injected later than
    // that sees an idle link: start at its own arrival.
    EXPECT_EQ(link.inject(100, 4), 114);
    EXPECT_EQ(link.injectedBytes(), 16u);
    // Queue-delay histogram saw exactly the two stall-free injections
    // (0 ns) and one 27-tick credit stall.
    EXPECT_EQ(link.queueDelayHistNs().count(), 3u);
    EXPECT_EQ(link.queueDelayHistNs().maxNs(), nsFromTicks(27));
}

TEST(LinkModel, DeliveriesAreNondecreasingAndReplayIdentically)
{
    LinkConfig cfg;
    cfg.latencyTicks = ticksFromNs(static_cast<std::int64_t>(50));
    cfg.bytesPerNs = 32.0;
    cfg.credits = 4;
    LinkModel link(cfg);

    // Bursty injections with mixed sizes: delivery order must follow
    // injection order (the RequestSource contract of routed streams).
    std::vector<Tick> first;
    Tick at = 0;
    for (int i = 0; i < 200; ++i) {
        at += (i % 7 == 0) ? 0 : static_cast<Tick>(i % 13);
        first.push_back(link.inject(at, 1u + 512u * (i % 9)));
    }
    for (std::size_t i = 1; i < first.size(); ++i)
        EXPECT_GE(first[i], first[i - 1]) << i;

    // reset() restarts the link as new: the same injection sequence
    // reproduces the same deliveries bit for bit.
    link.reset();
    at = 0;
    for (int i = 0; i < 200; ++i) {
        at += (i % 7 == 0) ? 0 : static_cast<Tick>(i % 13);
        EXPECT_EQ(link.inject(at, 1u + 512u * (i % 9)), first[i]) << i;
    }
}

// ---------------------------------------------------------------------------
// Placement and routing
// ---------------------------------------------------------------------------

NodeRouterConfig
routerConfig(int cubes, RouterPolicy policy, int tp = 1, int pp = 1)
{
    NodeRouterConfig rc;
    rc.numCubes = cubes;
    rc.policy = policy;
    rc.placement.tpDegree = tp;
    rc.placement.ppStages = pp;
    rc.link = LinkConfig::idealLink();
    return rc;
}

Request
readReq(std::uint64_t id, std::uint64_t addr, std::uint64_t size,
        Tick arrival = 0)
{
    Request r;
    r.id = id;
    r.kind = ReqKind::Read;
    r.addr = addr;
    r.size = size;
    r.arrival = arrival;
    return r;
}

TEST(NodePlacement, FromParallelismClampsToDivisors)
{
    // The paper's prefill descriptor is TP 8: on 8 cubes that is one
    // replica of 8; on 4 cubes it clamps to 4; on 6 the largest divisor
    // of 6 not exceeding 8 is 6.
    const Parallelism p = paperParallelism(deepseekV3(), Stage::Prefill);
    EXPECT_EQ(NodePlacement::fromParallelism(p, 8).tpDegree, 8);
    EXPECT_EQ(NodePlacement::fromParallelism(p, 4).tpDegree, 4);
    EXPECT_EQ(NodePlacement::fromParallelism(p, 6).tpDegree, 6);

    Parallelism staged = p;
    staged.ppStages = 2;
    const NodePlacement pl = NodePlacement::fromParallelism(staged, 8);
    EXPECT_EQ(pl.ppStages, 2);
    EXPECT_EQ(pl.tpDegree, 4); // 8 cubes / 2 stages = 4 per stage

    // DeepSeek decode attention is data-parallel (TP 1): each cube is
    // its own replica.
    const Parallelism dp = paperParallelism(deepseekV3(), Stage::Decode);
    EXPECT_EQ(NodePlacement::fromParallelism(dp, 4).tpDegree, 1);
}

TEST(NodeRouter, RoundRobinCyclesThroughReplicas)
{
    NodeRouter router(routerConfig(3, RouterPolicy::RoundRobin));
    std::vector<RoutedSlice> out;
    for (int i = 0; i < 9; ++i) {
        out.clear();
        router.route(readReq(static_cast<std::uint64_t>(i + 1), 0, 4_KiB),
                     out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].cube, i % 3);
    }
}

TEST(NodeRouter, CacheAffinityPinsRegionsAndSpreadsLoad)
{
    NodeRouterConfig rc = routerConfig(4, RouterPolicy::CacheAffinity);
    rc.affinityBytes = 1_MiB;
    NodeRouter router(rc);
    std::vector<RoutedSlice> out;

    // Same affinity region (any offset within 1 MiB) → same cube, every
    // time: the KV-cache owner.
    out.clear();
    router.route(readReq(1, 5 * 1_MiB + 100, 4_KiB), out);
    const int owner = out[0].cube;
    for (int i = 0; i < 10; ++i) {
        out.clear();
        router.route(readReq(static_cast<std::uint64_t>(i + 2),
                             5 * 1_MiB + 777u * static_cast<unsigned>(i),
                             4_KiB),
                     out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].cube, owner);
    }

    // Across many regions, the hash uses every cube.
    std::vector<bool> hit(4, false);
    for (int rg = 0; rg < 64; ++rg) {
        out.clear();
        router.route(readReq(static_cast<std::uint64_t>(rg + 100),
                             static_cast<std::uint64_t>(rg) * 1_MiB,
                             4_KiB),
                     out);
        hit[static_cast<std::size_t>(out[0].cube)] = true;
    }
    EXPECT_TRUE(std::all_of(hit.begin(), hit.end(),
                            [](bool b) { return b; }));
}

TEST(NodeRouter, LoadAwarePicksFewestOutstandingCredits)
{
    NodeRouterConfig rc = routerConfig(2, RouterPolicy::LoadAware);
    rc.link.latencyTicks = ticksFromNs(static_cast<std::int64_t>(100));
    rc.link.bytesPerNs = 64.0;
    rc.link.credits = 8;
    NodeRouter router(rc);
    std::vector<RoutedSlice> out;

    // All injections at tick 0: ties break to cube 0, each injection
    // raises that cube's outstanding count, so assignment alternates.
    for (int i = 0; i < 6; ++i) {
        out.clear();
        router.route(readReq(static_cast<std::uint64_t>(i + 1), 0, 4_KiB),
                     out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].cube, i % 2) << i;
    }
}

TEST(NodeRouter, TpPpSlicingIsDisjointContiguousAndStageLocal)
{
    // 4 cubes, 2 pipeline stages × TP 2: stage 0 owns the lower half of
    // the span on cubes {0,1}, stage 1 the upper half on cubes {2,3}.
    NodeRouterConfig rc = routerConfig(4, RouterPolicy::RoundRobin, 2, 2);
    rc.spanBytes = 1ull << 30;
    NodeRouter router(rc);
    EXPECT_EQ(router.cubesPerStage(), 2);
    EXPECT_EQ(router.replicasPerStage(), 1);

    std::vector<RoutedSlice> out;
    router.route(readReq(1, 0, 4_KiB + 1), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].cube, 0);
    EXPECT_EQ(out[1].cube, 1);
    // Contiguous split, remainder on the first slice: 2049 + 2048.
    EXPECT_EQ(out[0].req.size + out[1].req.size, 4_KiB + 1);
    EXPECT_EQ(out[0].req.size, 2049u);
    EXPECT_EQ(out[1].req.addr, out[0].req.addr + out[0].req.size);

    out.clear();
    router.route(readReq(2, (1ull << 29) + 4_KiB, 4_KiB), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].cube, 2);
    EXPECT_EQ(out[1].cube, 3);

    // A 1-byte request yields a single slice (no zero-size slices).
    out.clear();
    router.route(readReq(3, 0, 1), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].req.size, 1u);
}

TEST(NodeRouter, StageSelectionIsExactAtHugeSpans)
{
    // Eight single-cube stages over a 2^62-byte span: each stage's first
    // and last byte land on that stage. A 64-bit addr * ppStages product
    // would wrap here and send the top address to stage 3.
    NodeRouterConfig rc = routerConfig(8, RouterPolicy::RoundRobin, 1, 8);
    rc.spanBytes = 1ull << 62;
    NodeRouter router(rc);
    const std::uint64_t stage_bytes = rc.spanBytes / 8;
    std::vector<RoutedSlice> out;
    for (int stage = 0; stage < 8; ++stage) {
        const std::uint64_t first = static_cast<std::uint64_t>(stage) *
                                    stage_bytes;
        for (const std::uint64_t addr : {first, first + stage_bytes - 1}) {
            out.clear();
            router.route(readReq(1, addr, 1), out);
            ASSERT_EQ(out.size(), 1u);
            EXPECT_EQ(out[0].cube, stage) << addr;
        }
    }
}

TEST(SplitNodeStream, ChannelStreamsCoverSystemStreamExactlyOnce)
{
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = 500 * p.requestBytes;
    p.capacity = 1ull << 30;
    RandomSource whole(p);
    const std::vector<Request> all = collectRequests(whole);

    // Three round-robin cubes behind default links, channels dealt by
    // slice index; and one ideal-link cube striped by address.
    NodeConfig routed;
    routed.numCubes = 3;
    routed.channelsPerCube = 4;
    routed.policy = RouterPolicy::RoundRobin;
    NodeConfig striped;
    striped.channelsPerCube = 4;
    striped.stripeBytes = 64_KiB;
    striped.link = LinkConfig::idealLink();
    for (const NodeConfig& cfg : {routed, striped}) {
        RandomSource system(p);
        NodeStreams split = splitNodeStream(system, cfg);
        const auto per_cube = static_cast<std::size_t>(cfg.channelsPerCube);
        ASSERT_EQ(split.channels.size(),
                  static_cast<std::size_t>(cfg.numCubes) * per_cube);
        std::vector<int> owner(all.size(), -1);
        for (std::size_t ch = 0; ch < split.channels.size(); ++ch) {
            PackedReplaySource src(std::move(split.channels[ch]));
            Request r;
            std::uint64_t last_id = 0;
            while (src.next(r)) {
                const std::size_t idx = static_cast<std::size_t>(r.id - 1);
                ASSERT_LT(idx, all.size());
                EXPECT_EQ(owner[idx], -1); // disjoint across channels
                owner[idx] = static_cast<int>(ch);
                EXPECT_EQ(r.addr, all[idx].addr);
                EXPECT_EQ(r.size, all[idx].size);
                EXPECT_GT(r.id, last_id); // stream order kept
                last_id = r.id;
            }
        }
        std::uint64_t routed_total = 0;
        for (const std::uint64_t n : split.routedRequests)
            routed_total += n;
        EXPECT_EQ(routed_total, all.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            ASSERT_NE(owner[i], -1) << i; // complete
            // Round robin sends request i to cube i % 3 as that cube's
            // slice i / 3; a stripe selects the channel by itself.
            const std::size_t expect =
                cfg.stripeBytes != 0
                    ? all[i].addr / cfg.stripeBytes % per_cube
                    : i % 3 * per_cube + i / 3 % per_cube;
            EXPECT_EQ(static_cast<std::size_t>(owner[i]), expect) << i;
        }
    }
}

// ---------------------------------------------------------------------------
// NodeDriver
// ---------------------------------------------------------------------------

NodeConfig
smallNodeConfig(const DramConfig& dram, int cubes, int channels,
                std::uint64_t requests)
{
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = requests * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    NodeConfig cfg;
    cfg.makeController = [dram] {
        return makeChannelController(MemorySystem::RoMe, dram);
    };
    cfg.makeSystemSource = [p] {
        return std::make_unique<RandomSource>(p);
    };
    cfg.numCubes = cubes;
    cfg.channelsPerCube = channels;
    return cfg;
}

TEST(NodeDriver, SingleCubeIdealLinkGolden)
{
    // Pinned values of this point as routing it through a one-cube router
    // produced them: the identity-routing path must reproduce them.
    const DramConfig dram = hbm4Config();
    NodeConfig cfg = smallNodeConfig(dram, 1, 4, 1500);
    cfg.link = LinkConfig::idealLink();
    const NodeResult node = NodeDriver(cfg).run(2e7);

    EXPECT_EQ(node.aggregate.completedRequests, 1500u);
    EXPECT_EQ(node.finishedAt, 289545);
    EXPECT_EQ(node.aggregate.schedSteps, 11097u);
    EXPECT_EQ(node.aggregate.latencyPercentileNs(50.0), 98.5);
    EXPECT_EQ(node.aggregate.latencyPercentileNs(99.0), 371.5);
    EXPECT_EQ(node.aggregate.latencyHistNs.maxNs(), 501.5);
    ASSERT_EQ(node.perCube.size(), 1u);
    EXPECT_EQ(node.perCube[0].routedRequests, 1500u);
    EXPECT_EQ(node.perCube[0].routedBytes, 1500u * 4_KiB);
    // The ideal link never queues.
    EXPECT_EQ(node.linkQueueDelayNs.maxNs(), 0.0);

    // The cube's per-channel snapshots merge to the aggregate.
    ControllerStats merged;
    for (const ControllerStats& s : node.perCube[0].perChannel)
        merged.merge(s);
    merged.deriveBandwidths();
    EXPECT_EQ(node.perCube[0].perChannel.size(), 4u);
    EXPECT_TRUE(merged == node.aggregate);
}

TEST(NodeDriver, LoadAwareNodeGolden)
{
    // Pinned values of this point as per-channel router replicas produced
    // them. Load-aware routing is the one policy that reads arrival ticks
    // (credits outstanding at injection), so the re-timing, the router's
    // link state and the channel deal all show here.
    NodeConfig cfg = smallNodeConfig(hbm4Config(), 2, 2, 1500);
    cfg.policy = RouterPolicy::LoadAware;
    const NodeResult node = NodeDriver(cfg).run(2e7);

    EXPECT_EQ(node.aggregate.completedRequests, 1500u);
    EXPECT_EQ(node.finishedAt, 290578);
    EXPECT_EQ(node.aggregate.schedSteps, 11103u);
    EXPECT_EQ(node.aggregate.latencyPercentileNs(50.0), 98.5);
    EXPECT_EQ(node.aggregate.latencyPercentileNs(99.0), 363.5);
    EXPECT_EQ(node.aggregate.latencyHistNs.maxNs(), 587.75);
    ASSERT_EQ(node.perCube.size(), 2u);
    EXPECT_EQ(node.perCube[0].routedRequests, 787u);
    EXPECT_EQ(node.perCube[1].routedRequests, 713u);
    EXPECT_EQ(node.perCube[0].routedBytes, 787u * 4_KiB);
    EXPECT_EQ(node.perCube[1].routedBytes, 713u * 4_KiB);
    EXPECT_EQ(node.linkQueueDelayNs.count(), 1500u);
    EXPECT_EQ(node.linkQueueDelayNs.percentileNs(99.0), 1.0);
}

TEST(NodeDriver, RejectsOfferedRatesOutOfRange)
{
    const DramConfig dram = hbm4Config();
    const NodeDriver node(smallNodeConfig(dram, 2, 1, 10));
    ServingConfig scfg;
    scfg.makeController = node.config().makeController;
    scfg.makeSystemSource = node.config().makeSystemSource;
    scfg.numChannels = 2;
    const ServingDriver cube(scfg);
    for (const double rps :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), 0.0, -1e6, 1e-12}) {
        EXPECT_THROW(node.run(rps), std::runtime_error) << rps;
        EXPECT_THROW(cube.run(rps), std::runtime_error) << rps;
    }
}

TEST(NodeDriver, ResultsAreThreadCountInvariant)
{
    const DramConfig dram = hbm4Config();
    NodeConfig cfg = smallNodeConfig(dram, 2, 2, 1200);
    cfg.policy = RouterPolicy::CacheAffinity;
    const double rps = 2e7;

    cfg.threads = 1;
    const NodeResult serial = NodeDriver(cfg).run(rps);
    cfg.threads = 4;
    const NodeResult pooled = NodeDriver(cfg).run(rps);

    EXPECT_TRUE(serial.aggregate == pooled.aggregate);
    EXPECT_EQ(serial.finishedAt, pooled.finishedAt);
    ASSERT_EQ(serial.perCube.size(), pooled.perCube.size());
    for (std::size_t c = 0; c < serial.perCube.size(); ++c) {
        EXPECT_TRUE(serial.perCube[c].stats == pooled.perCube[c].stats);
        EXPECT_EQ(serial.perCube[c].routedRequests,
                  pooled.perCube[c].routedRequests);
        EXPECT_EQ(serial.perCube[c].routedBytes,
                  pooled.perCube[c].routedBytes);
    }
    EXPECT_EQ(serial.aggregate.completedRequests, 1200u);
}

TEST(NodeDriver, AggregateHistogramIsExactMergeOfCubeHistograms)
{
    const DramConfig dram = hbm4Config();
    NodeConfig cfg = smallNodeConfig(dram, 2, 2, 1000);
    cfg.policy = RouterPolicy::RoundRobin;
    const NodeResult res = NodeDriver(cfg).run(2e7);

    // Every request completed on some cube, and the node histogram is
    // the exact bucket-wise merge of the per-cube histograms.
    LatencyHistogram merged;
    std::uint64_t completed = 0;
    for (const CubeResult& cr : res.perCube) {
        merged.merge(cr.stats.latencyHistNs);
        completed += cr.stats.completedRequests;
        EXPECT_GT(cr.stats.completedRequests, 0u);
    }
    EXPECT_EQ(completed, 1000u);
    EXPECT_TRUE(sameDistribution(res.aggregate.latencyHistNs, merged));
    for (const double p : {50.0, 99.0, 99.9}) {
        EXPECT_EQ(res.aggregate.latencyPercentileNs(p),
                  merged.percentileNs(p));
    }
}

TEST(NodeDriver, NodeRateSweepDetectsKneeAndReportsCoverage)
{
    const DramConfig dram = hbm4Config();
    NodeConfig cfg = smallNodeConfig(dram, 2, 1, 2500);
    // Two single-channel cubes: capacity is 2 x channel peak over 4 KiB
    // requests. Straddle it.
    const double base_rps =
        2.0 * dram.org.channelBandwidthBytesPerNs() * 1e9 / 4096.0;
    const NodeRateSweep sweep = runNodeRateSweep(
        NodeDriver(cfg), {0.4 * base_rps, 3.0 * base_rps});
    ASSERT_EQ(sweep.points.size(), 2u);
    EXPECT_FALSE(sweep.points[0].node.saturated);
    EXPECT_TRUE(sweep.points[1].node.saturated);
    EXPECT_EQ(sweep.kneeIndex, 1);
    // Scheduling steps are plumbed through to the node point.
    for (const NodeRatePoint& pt : sweep.points) {
        EXPECT_GT(pt.node.schedSteps, 0u);
        ASSERT_EQ(pt.perCubeAchievedRps.size(), 2u);
        ASSERT_EQ(pt.perCubeRouted.size(), 2u);
        EXPECT_EQ(pt.perCubeRouted[0] + pt.perCubeRouted[1], 2500u);
    }
}

/** Two routed cubes behind default links, cache-affinity routing. */
NodeConfig
twoCubeConfig()
{
    NodeConfig cfg = smallNodeConfig(hbm4Config(), 2, 2, 600);
    cfg.policy = RouterPolicy::CacheAffinity;
    cfg.affinityBytes = 64_KiB;
    cfg.threads = 2;
    return cfg;
}

TEST(NodeDriver, CheckpointResumeMatchesStraightRun)
{
    const NodeDriver driver(twoCubeConfig());
    const double rps = 4.0e6;
    const NodeResult straight = driver.run(rps);
    const NodeResult resumed =
        driver.resume(driver.runToCheckpoint(rps, straight.finishedAt / 3));

    EXPECT_EQ(resumed.finishedAt, straight.finishedAt);
    EXPECT_TRUE(resumed.aggregate == straight.aggregate);
    EXPECT_TRUE(resumed.linkQueueDelayNs == straight.linkQueueDelayNs);
    ASSERT_EQ(resumed.perCube.size(), 2u);
    for (std::size_t c = 0; c < straight.perCube.size(); ++c) {
        const CubeResult& a = straight.perCube[c];
        const CubeResult& b = resumed.perCube[c];
        // Both cubes carry traffic, so both cubes' routers really ran.
        EXPECT_GT(a.routedRequests, 0u) << c;
        EXPECT_TRUE(b.stats == a.stats && b.perChannel == a.perChannel)
            << "cube " << c << " diverged across save/restore";
        EXPECT_EQ(b.routedBytes, a.routedBytes) << c;
    }
}

TEST(NodeDriver, ResumeRejectsMismatchedCheckpoint)
{
    const NodeDriver driver(twoCubeConfig());
    const NodeCheckpoint ck = driver.runToCheckpoint(4.0e6, 80000);
    // Each mismatch would otherwise replay a different stream or
    // misassign the channel blobs.
    const std::function<void(NodeConfig&)> mismatches[] = {
        [](NodeConfig& c) { ++c.arrivalSeed; },
        [](NodeConfig& c) { c.arrivalModel = ArrivalModel::Fixed; },
        [](NodeConfig& c) { c.numCubes = 1, c.channelsPerCube = 4; },
        [](NodeConfig& c) { c.channelsPerCube = 3; },
    };
    for (const auto& mismatch : mismatches) {
        NodeConfig cfg = twoCubeConfig();
        mismatch(cfg);
        EXPECT_THROW(NodeDriver(cfg).resume(ck), std::runtime_error);
    }
    NodeCheckpoint truncated = ck;
    truncated.channels.pop_back();
    EXPECT_THROW(driver.resume(truncated), std::runtime_error);
    EXPECT_EQ(driver.resume(ck).aggregate.completedRequests, 600u);
}

// ---------------------------------------------------------------------------
// Per-DUE request poisoning (serving-layer satellite)
// ---------------------------------------------------------------------------

TEST(Poisoning, DuePoisonsCompletionsAndFlowsIntoRatePoint)
{
    // Every data row carries a stuck fault and every stuck fault is a
    // DUE: each read request must complete exactly once, poisoned.
    const DramConfig dram = hbm4Config();
    McConfig mcfg;
    mcfg.faults.enabled = true;
    mcfg.faults.seed = 5;
    mcfg.faults.stuckRowFraction = 1.0;
    mcfg.faults.stuckDueFraction = 1.0;
    mcfg.faults.scrubEnabled = false;

    ConventionalMc mc(dram, bestBaselineMapping(dram.org), mcfg);
    for (int i = 0; i < 16; ++i)
        mc.enqueue(readReq(static_cast<std::uint64_t>(i + 1),
                           static_cast<std::uint64_t>(i) * 8_KiB, 8_KiB));
    mc.drain();
    const ControllerStats s = mc.stats();
    EXPECT_EQ(s.completedRequests, 16u);
    EXPECT_GT(s.dueCount, 0u);
    EXPECT_EQ(s.poisonedRequests, 16u);
    ASSERT_EQ(mc.completions().size(), 16u);
    for (const Completion& done : mc.completions())
        EXPECT_TRUE(done.poisoned);

    // Clean runs stay clean.
    ConventionalMc clean(dram, bestBaselineMapping(dram.org), McConfig{});
    clean.enqueue(readReq(1, 0, 8_KiB));
    clean.drain();
    EXPECT_EQ(clean.stats().poisonedRequests, 0u);
    EXPECT_FALSE(clean.completions().at(0).poisoned);

    // And the flag reaches the serving layer's RatePoint.
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = 400 * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    p.writeFraction = 0.0;
    ServingConfig scfg;
    scfg.makeController = [dram, mcfg] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), mcfg);
    };
    scfg.makeSystemSource = [p] {
        return std::make_unique<RandomSource>(p);
    };
    scfg.numChannels = 2;
    const NodeRateSweep sweep =
        runNodeRateSweep(ServingDriver(scfg).node(), {1e7});
    ASSERT_EQ(sweep.points.size(), 1u);
    EXPECT_EQ(sweep.points[0].node.completedRequests, 400u);
    // Requests landing in the clean spare-row region at the top of each
    // bank are not poisoned; everything else is.
    EXPECT_GE(sweep.points[0].node.poisonedRequests, 380u);
    EXPECT_LE(sweep.points[0].node.poisonedRequests, 400u);
}

} // namespace
} // namespace rome
