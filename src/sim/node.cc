#include "sim/node.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "common/json_writer.h"
#include "common/log.h"

namespace rome
{

// ---------------------------------------------------------------------------
// LinkModel
// ---------------------------------------------------------------------------

Tick
LinkModel::inject(Tick at, std::uint64_t bytes)
{
    ++injected_;
    bytes_ += bytes;
    if (cfg_.ideal()) {
        // Bypass: delivery == injection, bit for bit.
        queueHist_.sample(0.0);
        return at;
    }
    Tick start = std::max(at, busyUntil_);
    if (cfg_.credits > 0) {
        // Credit-free ticks are nondecreasing (delivery is monotone per
        // link), so the oldest outstanding message frees first: one
        // deque front is the exact stall bound.
        while (!creditFree_.empty() && creditFree_.front() <= start)
            creditFree_.pop_front();
        if (static_cast<int>(creditFree_.size()) >= cfg_.credits) {
            const Tick freed = creditFree_.front();
            if (freed > start) {
                creditStall_ +=
                    static_cast<std::uint64_t>(freed - start);
                start = freed;
            }
            creditFree_.pop_front();
        }
    }
    Tick ser = 0;
    if (cfg_.bytesPerNs > 0.0) {
        ser = static_cast<Tick>(
            std::ceil(static_cast<double>(bytes) *
                      static_cast<double>(kTicksPerNs) / cfg_.bytesPerNs));
    }
    const Tick deliver = start + ser + cfg_.latencyTicks;
    busyUntil_ = start + ser;
    if (cfg_.credits > 0)
        creditFree_.push_back(deliver + cfg_.latencyTicks);
    queueHist_.sample(nsFromTicks(start - at));
    return deliver;
}

int
LinkModel::outstandingAt(Tick at) const
{
    // creditFree_ is nondecreasing (delivery is monotone), so the
    // still-outstanding suffix is found by binary search — keeps the
    // load-aware policy O(log credits) per probe.
    const auto it =
        std::upper_bound(creditFree_.begin(), creditFree_.end(), at);
    return static_cast<int>(creditFree_.end() - it);
}

void
LinkModel::reset()
{
    busyUntil_ = 0;
    creditFree_.clear();
    injected_ = 0;
    bytes_ = 0;
    creditStall_ = 0;
    queueHist_ = LatencyHistogram{};
}

// ---------------------------------------------------------------------------
// Placement and routing
// ---------------------------------------------------------------------------

const char*
routerPolicyName(RouterPolicy p)
{
    switch (p) {
    case RouterPolicy::RoundRobin: return "roundrobin";
    case RouterPolicy::CacheAffinity: return "affinity";
    case RouterPolicy::LoadAware: return "loadaware";
    }
    return "?";
}

NodePlacement
NodePlacement::fromParallelism(const Parallelism& p, int num_cubes)
{
    if (num_cubes < 1)
        fatal("placement needs at least one cube");
    NodePlacement pl;
    int pp = std::max(1, std::min(p.ppStages, num_cubes));
    while (num_cubes % pp != 0)
        --pp;
    pl.ppStages = pp;
    const int per_stage = num_cubes / pp;
    int tp = std::max(1, std::min(p.tpAttention, per_stage));
    while (per_stage % tp != 0)
        --tp;
    pl.tpDegree = tp;
    return pl;
}

namespace
{

/** splitmix64 finalizer (same mix as common/random.h Rng seeding). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

NodeRouter::NodeRouter(const NodeRouterConfig& cfg) : cfg_(cfg)
{
    if (cfg_.numCubes < 1)
        fatal("router needs at least one cube");
    const NodePlacement& pl = cfg_.placement;
    if (pl.ppStages < 1 || cfg_.numCubes % pl.ppStages != 0) {
        fatal("pipeline stages (%d) must evenly divide the cube count "
              "(%d)",
              pl.ppStages, cfg_.numCubes);
    }
    cubesPerStage_ = cfg_.numCubes / pl.ppStages;
    if (pl.tpDegree < 1 || cubesPerStage_ % pl.tpDegree != 0) {
        fatal("TP degree (%d) must evenly divide the cubes per stage "
              "(%d)",
              pl.tpDegree, cubesPerStage_);
    }
    replicasPerStage_ = cubesPerStage_ / pl.tpDegree;
    if (cfg_.spanBytes == 0)
        fatal("router needs a nonzero address span");
    links_.reserve(static_cast<std::size_t>(cfg_.numCubes));
    for (int c = 0; c < cfg_.numCubes; ++c)
        links_.emplace_back(cfg_.link);
    rrCursor_.assign(static_cast<std::size_t>(pl.ppStages), 0);
}

int
NodeRouter::stageOf(std::uint64_t addr) const
{
    // floor(wrapped * ppStages / span) in 128 bits: the 64-bit product
    // wraps once the span reaches 2^64 / ppStages.
    const std::uint64_t wrapped = addr % cfg_.spanBytes;
    const unsigned __int128 scaled =
        static_cast<unsigned __int128>(wrapped) *
        static_cast<std::uint64_t>(cfg_.placement.ppStages);
    return static_cast<int>(scaled / cfg_.spanBytes);
}

int
NodeRouter::pickReplica(int stage, const Request& r)
{
    if (replicasPerStage_ == 1)
        return 0;
    switch (cfg_.policy) {
    case RouterPolicy::RoundRobin: {
        int& cur = rrCursor_[static_cast<std::size_t>(stage)];
        const int rep = cur;
        cur = (cur + 1) % replicasPerStage_;
        return rep;
    }
    case RouterPolicy::CacheAffinity: {
        const std::uint64_t region = r.addr / cfg_.affinityBytes;
        return static_cast<int>(
            mix64(region) %
            static_cast<std::uint64_t>(replicasPerStage_));
    }
    case RouterPolicy::LoadAware: {
        // Fewest outstanding link credits at injection time, summed over
        // the replica's TP cubes; ties break to the lowest index.
        const int base = stage * cubesPerStage_;
        int best = 0;
        int best_load = -1;
        for (int rep = 0; rep < replicasPerStage_; ++rep) {
            int load = 0;
            for (int i = 0; i < cfg_.placement.tpDegree; ++i) {
                const int cube = base + rep * cfg_.placement.tpDegree + i;
                load += links_[static_cast<std::size_t>(cube)]
                            .outstandingAt(r.arrival);
            }
            if (best_load < 0 || load < best_load) {
                best = rep;
                best_load = load;
            }
        }
        return best;
    }
    }
    return 0;
}

void
NodeRouter::route(const Request& r, std::vector<RoutedSlice>& out)
{
    const int stage = stageOf(r.addr);
    const int rep = pickReplica(stage, r);
    const int tp = cfg_.placement.tpDegree;
    const int base = stage * cubesPerStage_ + rep * tp;
    const std::uint64_t slice = r.size / static_cast<std::uint64_t>(tp);
    const std::uint64_t rem = r.size % static_cast<std::uint64_t>(tp);
    std::uint64_t offset = 0;
    for (int i = 0; i < tp; ++i) {
        const std::uint64_t sz =
            slice + (static_cast<std::uint64_t>(i) < rem ? 1 : 0);
        if (sz == 0)
            continue; // tiny request, fewer slices than TP cubes
        const int cube = base + i;
        RoutedSlice s;
        s.cube = cube;
        s.req = r;
        s.req.addr = r.addr + offset;
        s.req.size = sz;
        s.req.arrival =
            links_[static_cast<std::size_t>(cube)].inject(r.arrival, sz);
        // Telemetry: the slice remembers its link transit so the
        // controller can attribute the delay in the latency breakdown.
        s.req.linkDelay = s.req.arrival - r.arrival;
        out.push_back(s);
        offset += sz;
    }
}

void
NodeRouter::reset()
{
    for (auto& l : links_)
        l.reset();
    std::fill(rrCursor_.begin(), rrCursor_.end(), 0);
}

// ---------------------------------------------------------------------------
// NodeDriver
// ---------------------------------------------------------------------------

namespace
{

/** Arrival mean gap for @p offered_rps, quantized to whole ticks. */
Tick
meanGapFor(double offered_rps)
{
    // NaN, infinite or near-zero rates have no representable tick gap.
    if (!std::isfinite(offered_rps) || offered_rps < 1.0)
        fatal("offered rate must be finite and >= 1 rps (got %g)",
              offered_rps);
    return std::max<Tick>(ticksFromNs(1e9 / offered_rps), 1);
}

/** A fresh system stream of @p cfg re-timed at @p mean_gap. */
std::unique_ptr<RequestSource>
timedStream(const NodeConfig& cfg, Tick mean_gap)
{
    ArrivalSpec spec;
    spec.model = cfg.arrivalModel;
    spec.seed = cfg.arrivalSeed;
    spec.meanGap = mean_gap;
    return std::make_unique<ArrivalProcess>(cfg.makeSystemSource(), spec);
}

NodeRouterConfig
routerConfigOf(const NodeConfig& cfg)
{
    NodeRouterConfig rc;
    rc.numCubes = cfg.numCubes;
    rc.policy = cfg.policy;
    rc.placement = cfg.placement;
    rc.link = cfg.link;
    rc.affinityBytes = cfg.affinityBytes;
    rc.spanBytes = cfg.spanBytes;
    return rc;
}

/**
 * One cube behind the ideal link: the router would hand every request
 * to that cube unchanged (same arrival, zero link delay), so the split
 * shards the re-timed stream directly and no link statistics exist.
 */
bool
routesIdentically(const NodeConfig& cfg)
{
    return cfg.numCubes == 1 && cfg.link.ideal();
}

} // namespace

NodeStreams
splitNodeStream(RequestSource& system, const NodeConfig& cfg)
{
    if (cfg.numCubes < 1 || cfg.channelsPerCube < 1)
        fatal("node stream split needs at least one cube and channel");
    const auto cubes = static_cast<std::size_t>(cfg.numCubes);
    const auto per_cube = static_cast<std::uint64_t>(cfg.channelsPerCube);
    NodeStreams out;
    out.channels.resize(cubes * per_cube);
    out.routedRequests.assign(cubes, 0);
    out.routedBytes.assign(cubes, 0);
    const auto deal = [&](int cube, const Request& r) {
        const auto c = static_cast<std::size_t>(cube);
        // The channel key: the address stripe, else the slice's index
        // within its cube's stream.
        const std::uint64_t key = cfg.stripeBytes != 0
                                      ? r.addr / cfg.stripeBytes
                                      : out.routedRequests[c];
        out.channels[c * per_cube + key % per_cube].push_back(r);
        ++out.routedRequests[c];
        out.routedBytes[c] += r.size;
    };

    std::optional<NodeRouter> router;
    if (!routesIdentically(cfg))
        router.emplace(routerConfigOf(cfg));
    std::vector<RoutedSlice> slices;
    Request r;
    while (system.next(r)) {
        if (!router) {
            deal(0, r);
            continue;
        }
        slices.clear();
        router->route(r, slices);
        for (const RoutedSlice& s : slices)
            deal(s.cube, s.req);
    }
    if (router) {
        for (int cube = 0; cube < cfg.numCubes; ++cube) {
            const LinkModel& link = router->link(cube);
            out.linkQueueDelayNs.merge(link.queueDelayHistNs());
            out.creditStallTicks += link.creditStallTicks();
        }
    }
    for (PackedRequests& ch : out.channels)
        ch.shrink_to_fit();
    return out;
}

namespace
{

/**
 * Split a fresh system stream re-timed at @p mean_gap into per-channel
 * streams, then add one controller per channel to @p engine, cube-major,
 * each replaying its packed stream: bound fresh, or with @p ck restored
 * from its blob and fast-forwarded past the consumed prefix. Returns the
 * split's routing statistics; its streams now belong to the engine.
 */
NodeStreams
buildChannels(const NodeConfig& cfg, Tick mean_gap, const NodeCheckpoint* ck,
              ChannelSimEngine& engine)
{
    // The arrival process re-times the *system* stream before routing
    // and sharding: one node-wide open-loop load with global arrivals.
    NodeStreams streams = splitNodeStream(*timedStream(cfg, mean_gap), cfg);
    for (std::size_t ch = 0; ch < streams.channels.size(); ++ch) {
        auto mc = cfg.makeController();
        if (!mc)
            fatal("node controller factory produced no controller");
        mc->setRetainCompletions(false);
        const int idx = engine.addChannel(std::move(mc));
        auto src = std::make_unique<PackedReplaySource>(
            std::move(streams.channels[ch]));
        if (ck == nullptr) {
            engine.bindSource(idx, std::move(src));
            continue;
        }
        restoreControllerCheckpoint(engine.channel(idx), ck->channels[ch]);
        engine.resumeSource(idx, std::move(src));
    }
    streams.channels.clear();
    return streams;
}

/** Drain @p engine and assemble per-channel, per-cube and node results. */
NodeResult
finishRun(const NodeConfig& cfg, Tick mean_gap, ChannelSimEngine& engine,
          NodeStreams routing)
{
    NodeResult res;
    // The gap quantizes to whole ticks; report the rate actually driven
    // so the saturation test compares achieved throughput against what
    // the arrival process really offered, not the pre-rounding request.
    res.offeredRps = 1e9 / nsFromTicks(mean_gap);
    res.finishedAt = engine.drainAll();
    const auto rps = [&res](std::uint64_t completed) {
        return res.finishedAt > 0 ? static_cast<double>(completed) /
                                        nsFromTicks(res.finishedAt) * 1e9
                                  : 0.0;
    };
    // Aggregate and per-cube stats merge the channel snapshots in
    // ascending cube/channel order.
    res.perCube.resize(static_cast<std::size_t>(cfg.numCubes));
    for (int cube = 0; cube < cfg.numCubes; ++cube) {
        const auto c = static_cast<std::size_t>(cube);
        CubeResult& cr = res.perCube[c];
        cr.perChannel.reserve(static_cast<std::size_t>(cfg.channelsPerCube));
        for (int ch = 0; ch < cfg.channelsPerCube; ++ch) {
            cr.perChannel.push_back(
                engine.channel(cube * cfg.channelsPerCube + ch).stats());
            res.aggregate.merge(cr.perChannel.back());
            cr.stats.merge(cr.perChannel.back());
        }
        cr.stats.deriveBandwidths();
        cr.achievedRps = rps(cr.stats.completedRequests);
        cr.routedRequests = routing.routedRequests[c];
        cr.routedBytes = routing.routedBytes[c];
    }
    res.aggregate.deriveBandwidths();
    res.achievedRps = rps(res.aggregate.completedRequests);
    res.linkQueueDelayNs = std::move(routing.linkQueueDelayNs);

    // Telemetry: credit-exhaustion waits happen at the links, outside any
    // controller. Fold them into the node aggregate's LinkCredit stall
    // bucket — but only when the controllers themselves ran with
    // telemetry, so a telemetry-off node result stays free of telemetry
    // state.
    std::uint64_t stall_total = 0;
    for (const std::uint64_t t : res.aggregate.stallTicks)
        stall_total += t;
    if (stall_total > 0 || res.aggregate.queueNsHist.count() > 0 ||
        res.aggregate.timeSeries.enabled()) {
        res.aggregate.stallTicks[static_cast<std::size_t>(
            StallCause::LinkCredit)] += routing.creditStallTicks;
    }
    return res;
}

} // namespace

NodeDriver::NodeDriver(NodeConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.makeController)
        fatal("node driver needs a controller factory");
    if (!cfg_.makeSystemSource)
        fatal("node driver needs a system source factory");
    if (cfg_.numCubes < 1)
        fatal("node driver needs at least one cube");
    if (cfg_.channelsPerCube < 1)
        fatal("node driver needs at least one channel per cube");
    // Validate placement/topology eagerly (the router ctor checks).
    NodeRouter probe(routerConfigOf(cfg_));
    (void)probe;
}

NodeResult
NodeDriver::run(double offered_rps) const
{
    const Tick gap = meanGapFor(offered_rps);
    ChannelSimEngine engine(cfg_.threads);
    NodeStreams routing = buildChannels(cfg_, gap, nullptr, engine);
    return finishRun(cfg_, gap, engine, std::move(routing));
}

NodeCheckpoint
NodeDriver::runToCheckpoint(double offered_rps, Tick at) const
{
    if (at <= 0)
        fatal("checkpoint tick must be positive (got %lld)",
              static_cast<long long>(at));
    NodeCheckpoint ck;
    ck.meanGap = meanGapFor(offered_rps);
    ck.arrivalModel = cfg_.arrivalModel;
    ck.arrivalSeed = cfg_.arrivalSeed;
    ck.numCubes = cfg_.numCubes;
    ck.channelsPerCube = cfg_.channelsPerCube;
    ck.takenAt = at;
    ChannelSimEngine engine(cfg_.threads);
    buildChannels(cfg_, ck.meanGap, nullptr, engine);
    engine.runAllUntil(at);
    for (int idx = 0; idx < engine.numChannels(); ++idx)
        ck.channels.push_back(saveControllerCheckpoint(engine.channel(idx)));
    return ck;
}

NodeResult
NodeDriver::resume(const NodeCheckpoint& ck) const
{
    if (ck.arrivalModel != cfg_.arrivalModel ||
        ck.arrivalSeed != cfg_.arrivalSeed || ck.numCubes != cfg_.numCubes ||
        ck.channelsPerCube != cfg_.channelsPerCube) {
        fatal("node checkpoint (arrival model %d, seed %llu, %d x %d "
              "channels) does not match this driver (model %d, seed %llu, "
              "%d x %d channels)",
              static_cast<int>(ck.arrivalModel),
              static_cast<unsigned long long>(ck.arrivalSeed), ck.numCubes,
              ck.channelsPerCube, static_cast<int>(cfg_.arrivalModel),
              static_cast<unsigned long long>(cfg_.arrivalSeed),
              cfg_.numCubes, cfg_.channelsPerCube);
    }
    const int channels = cfg_.numCubes * cfg_.channelsPerCube;
    if (ck.channels.size() != static_cast<std::size_t>(channels)) {
        fatal("node checkpoint holds %zu channel blobs, expected %d",
              ck.channels.size(), channels);
    }
    // The re-split streams are those of the checkpointed run, so each
    // restored channel fast-forwards its own packed stream past the
    // consumed prefix — no cross-channel coordination.
    ChannelSimEngine engine(cfg_.threads);
    NodeStreams routing = buildChannels(cfg_, ck.meanGap, &ck, engine);
    return finishRun(cfg_, ck.meanGap, engine, std::move(routing));
}

RatePoint
makeRatePoint(double offered_rps, double achieved_rps,
              const ControllerStats& aggregate,
              double saturation_tolerance)
{
    RatePoint pt;
    pt.offeredRps = offered_rps;
    pt.achievedRps = achieved_rps;
    pt.completedRequests = aggregate.completedRequests;
    pt.p50Ns = aggregate.latencyPercentileNs(50.0);
    pt.p90Ns = aggregate.latencyPercentileNs(90.0);
    pt.p99Ns = aggregate.latencyPercentileNs(99.0);
    pt.p999Ns = aggregate.latencyPercentileNs(99.9);
    pt.maxNs = aggregate.latencyHistNs.maxNs();
    pt.meanNs = aggregate.latencyHistNs.meanNs();
    pt.effectiveBandwidth = aggregate.effectiveBandwidth;
    pt.ceCount = aggregate.ceCount;
    pt.dueCount = aggregate.dueCount;
    pt.retryCount = aggregate.retryCount;
    pt.scrubCount = aggregate.scrubCount;
    pt.sparedRows = aggregate.sparedRows;
    pt.poisonedRequests = aggregate.poisonedRequests;
    pt.schedSteps = aggregate.schedSteps;
    std::uint64_t stall_total = 0;
    for (const std::uint64_t t : aggregate.stallTicks)
        stall_total += t;
    pt.telemetry = stall_total > 0 || aggregate.queueNsHist.count() > 0 ||
                   aggregate.timeSeries.enabled();
    if (pt.telemetry) {
        pt.stallTicks = aggregate.stallTicks;
        pt.queueMeanNs = aggregate.queueNsHist.meanNs();
        pt.queueP99Ns = aggregate.queueNsHist.percentileNs(99.0);
        pt.serviceMeanNs = aggregate.serviceNsHist.meanNs();
        pt.serviceP99Ns = aggregate.serviceNsHist.percentileNs(99.0);
        pt.retryMeanNs = aggregate.retryNsHist.meanNs();
        pt.linkMeanNs = aggregate.linkNsHist.meanNs();
        pt.timeSeries = aggregate.timeSeries;
    }
    pt.saturated =
        pt.achievedRps < pt.offeredRps * (1.0 - saturation_tolerance);
    return pt;
}

NodeRateSweep
runNodeRateSweep(const NodeDriver& driver,
                 const std::vector<double>& offered_rps,
                 double saturation_tolerance, int workers)
{
    NodeRateSweep sweep;
    sweep.points.resize(offered_rps.size());
    // Every point is a self-contained run into its own slot, so the
    // sharded walk merges to exactly the serial result; the knee scan
    // below runs in rate order either way.
    parallelFor(static_cast<int>(offered_rps.size()), workers, [&](int i) {
        const NodeResult res =
            driver.run(offered_rps[static_cast<std::size_t>(i)]);
        NodeRatePoint pt;
        pt.node = makeRatePoint(res.offeredRps, res.achievedRps,
                                res.aggregate, saturation_tolerance);
        pt.perCubeAchievedRps.reserve(res.perCube.size());
        pt.perCubeRouted.reserve(res.perCube.size());
        for (const CubeResult& cr : res.perCube) {
            pt.perCubeAchievedRps.push_back(cr.achievedRps);
            pt.perCubeRouted.push_back(cr.routedRequests);
        }
        pt.linkQueueDelayMeanNs = res.linkQueueDelayNs.meanNs();
        pt.linkQueueDelayP99Ns = res.linkQueueDelayNs.percentileNs(99.0);
        sweep.points[static_cast<std::size_t>(i)] = std::move(pt);
    });
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        if (sweep.points[i].node.saturated) {
            sweep.kneeIndex = static_cast<int>(i);
            break;
        }
    }
    return sweep;
}

void
ratePointJson(JsonWriter& w, const RatePoint& pt)
{
    w.key("offeredRps").value(pt.offeredRps);
    w.key("achievedRps").value(pt.achievedRps);
    w.key("completedRequests").value(pt.completedRequests);
    w.key("latencyP50Ns").value(pt.p50Ns);
    w.key("latencyP90Ns").value(pt.p90Ns);
    w.key("latencyP99Ns").value(pt.p99Ns);
    w.key("latencyP999Ns").value(pt.p999Ns);
    w.key("latencyMaxNs").value(pt.maxNs);
    w.key("latencyMeanNs").value(pt.meanNs);
    w.key("effectiveBandwidth").value(pt.effectiveBandwidth);
    w.key("saturated").value(pt.saturated);
    w.key("ceCount").value(pt.ceCount);
    w.key("dueCount").value(pt.dueCount);
    w.key("retryCount").value(pt.retryCount);
    w.key("scrubCount").value(pt.scrubCount);
    w.key("sparedRows").value(pt.sparedRows);
    w.key("poisonedRequests").value(pt.poisonedRequests);
    w.key("schedSteps").value(pt.schedSteps);
    // Telemetry keys appear only when the run enabled counters, so rows
    // of a telemetry-off bench are byte-identical to the pre-telemetry
    // schema. The nested objects/arrays are informational — the bench
    // differ only compares scalar top-level values.
    if (pt.telemetry) {
        w.key("telemetry").value(true);
        w.key("stallTicks").beginObject();
        for (std::size_t i = 0; i < kNumStallCauses; ++i) {
            w.key(stallCauseName(static_cast<StallCause>(i)))
                .value(pt.stallTicks[i]);
        }
        w.endObject();
        w.key("queueMeanNs").value(pt.queueMeanNs);
        w.key("queueP99Ns").value(pt.queueP99Ns);
        w.key("serviceMeanNs").value(pt.serviceMeanNs);
        w.key("serviceP99Ns").value(pt.serviceP99Ns);
        w.key("retryMeanNs").value(pt.retryMeanNs);
        w.key("linkMeanNs").value(pt.linkMeanNs);
        if (pt.timeSeries.enabled() && !pt.timeSeries.samples().empty()) {
            w.key("timeSeries").beginObject();
            w.key("periodNs").value(nsFromTicks(pt.timeSeries.period()));
            w.key("samples").beginArray();
            for (const TimeSample& s : pt.timeSeries.samples()) {
                std::uint64_t stalled = 0;
                for (const std::uint64_t t : s.stall)
                    stalled += t;
                w.beginObject();
                w.key("completed").value(s.completed);
                w.key("bytes").value(s.bytes);
                w.key("occupancy").value(s.occupancy);
                w.key("stallTicks").value(stalled);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
    }
}

void
nodeRatePointJson(JsonWriter& w, const NodeRatePoint& pt)
{
    ratePointJson(w, pt.node);
    w.key("linkQueueDelayMeanNs").value(pt.linkQueueDelayMeanNs);
    w.key("linkQueueDelayP99Ns").value(pt.linkQueueDelayP99Ns);
    w.key("perCubeAchievedRps").beginArray();
    for (const double v : pt.perCubeAchievedRps)
        w.value(v);
    w.endArray();
    w.key("perCubeRouted").beginArray();
    for (const std::uint64_t v : pt.perCubeRouted)
        w.value(v);
    w.endArray();
}

} // namespace rome
