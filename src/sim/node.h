/**
 * @file
 * Node model and the serving driver: interconnect links, request router,
 * placement, and the open-loop driver every serving run goes through.
 *
 * A *node* is N RoMe/HBM4 cubes behind a front-end router and per-cube
 * interconnect links, so "requests per node vs. cube count" is a
 * measurable axis. One cube behind the ideal link is the plain cube
 * harness (ServingDriver in sim/serving.h is that view).
 *
 *  - LinkModel: a deterministic host→cube link with one-way latency,
 *    serialization bandwidth, and credit-based queuing. It is computed
 *    *feed-forward* from open-loop arrival times: a request's delivery
 *    tick depends only on the injection sequence so far, never on cube
 *    state, so no lock-step coupling between cubes is needed. Per-link
 *    delivery times are provably nondecreasing, so routed per-cube
 *    streams honor the RequestSource arrival contract.
 *  - NodePlacement: KV-cache/weight placement expressed through the
 *    existing llm/parallelism.h descriptors. Pipeline stages partition
 *    the modeled address span into disjoint cube groups (a request's
 *    address selects its stage); tensor parallelism splits each
 *    request's payload across the tpDegree cubes of one stage replica.
 *  - NodeRouter: pluggable replica-selection policy — round-robin,
 *    cache-affinity (address-hash so KV-cache reuse lands on the owning
 *    cubes), load-aware (fewest outstanding link credits). Routing is a
 *    pure function of the request sequence, so replaying a stream
 *    through a fresh router reproduces every decision bit for bit.
 *  - splitNodeStream: the one pass per run that routes the re-timed
 *    system stream through a single router and deals every slice to its
 *    channel's packed stream (PackedRequests), collecting the routing
 *    statistics on the way. The system stream is decoded once per run,
 *    not once per channel.
 *  - NodeDriver: re-times one system-wide stream with an open-loop
 *    ArrivalProcess at the offered rate, splits it into per-channel
 *    streams and drives every channel on one ChannelSimEngine pool, each
 *    replaying its own packed stream. Aggregate tail latency is exact
 *    (bucket-wise histogram merge in fixed cube/channel order), results
 *    are independent of the engine thread count, and
 *    runToCheckpoint/resume finish a snapshotted run bit-identically.
 *  - runNodeRateSweep: one latency–throughput point per offered rate,
 *    plus the saturation knee; ratePointJson/nodeRatePointJson write a
 *    point in the BENCH_*.json row schema.
 */

#ifndef ROME_SIM_NODE_H
#define ROME_SIM_NODE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.h"
#include "llm/parallelism.h"
#include "sim/engine.h"
#include "sim/source.h"

namespace rome
{

class JsonWriter; // common/json_writer.h

// ---------------------------------------------------------------------------
// LinkModel
// ---------------------------------------------------------------------------

/** One host→cube interconnect link. */
struct LinkConfig
{
    /** One-way propagation latency (ticks). */
    Tick latencyTicks = ticksFromNs(static_cast<std::int64_t>(200));
    /** Serialization bandwidth; <= 0 means infinite (no serialization). */
    double bytesPerNs = 2048.0;
    /**
     * Outstanding-message credits; <= 0 means unlimited. The default
     * covers the bandwidth-delay product (2048 B/ns x ~400 ns round
     * trip ≈ 800 KiB in flight) at KiB-scale messages, so credits
     * throttle only a genuinely congested link.
     */
    int credits = 1024;

    /** Latency-, bandwidth- and credit-free: delivery == injection. */
    bool
    ideal() const
    {
        return latencyTicks == 0 && bytesPerNs <= 0.0 && credits <= 0;
    }

    /** The bypass link; one cube behind it is the plain cube harness. */
    static LinkConfig
    idealLink()
    {
        LinkConfig c;
        c.latencyTicks = 0;
        c.bytesPerNs = 0.0;
        c.credits = 0;
        return c;
    }
};

/**
 * Deterministic feed-forward link. inject() maps an injection tick to a
 * delivery tick: messages serialize FIFO at the configured bandwidth,
 * wait for a free credit when all are outstanding (a credit returns one
 * link latency after delivery — a round-trip ack), then propagate.
 *
 *   start   = max(inject, link busy, oldest credit free)
 *   deliver = start + bytes/bandwidth + latency
 *
 * Successive delivery ticks are nondecreasing (each message's start is
 * at least the previous serialization end), so the credit FIFO and the
 * routed per-cube streams both stay ordered.
 */
class LinkModel
{
  public:
    explicit LinkModel(const LinkConfig& cfg) : cfg_(cfg) {}

    /** Inject @p bytes at @p at; returns the delivery tick at the cube. */
    Tick inject(Tick at, std::uint64_t bytes);

    /** Messages not yet acked at @p at (load-aware routing metric). */
    int outstandingAt(Tick at) const;

    /** Restart the link as new (stats cleared). */
    void reset();

    std::uint64_t injectedMessages() const { return injected_; }
    std::uint64_t injectedBytes() const { return bytes_; }
    /** Distribution of start - inject (queuing + credit stall), ns. */
    const LatencyHistogram& queueDelayHistNs() const { return queueHist_; }
    /** Ticks injections waited on credit exhaustion alone (telemetry:
     *  feeds the node aggregate's StallCause::LinkCredit bucket). */
    std::uint64_t creditStallTicks() const { return creditStall_; }

  private:
    LinkConfig cfg_;
    Tick busyUntil_ = 0;
    /** Credit-return ticks of outstanding messages, oldest first. */
    std::deque<Tick> creditFree_;
    std::uint64_t injected_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t creditStall_ = 0;
    LatencyHistogram queueHist_;
};

// ---------------------------------------------------------------------------
// Placement and routing
// ---------------------------------------------------------------------------

/** Front-end replica-selection policy. */
enum class RouterPolicy
{
    /** Cycle through stage replicas per request. */
    RoundRobin,
    /**
     * Hash the request's affinity region (addr / affinityBytes) to a
     * replica, so repeated touches of one KV-cache region always land
     * on the cubes that own it.
     */
    CacheAffinity,
    /** Replica whose links have the fewest outstanding credits. */
    LoadAware,
};

const char* routerPolicyName(RouterPolicy p);

/**
 * How one model spreads across the node's cubes. Cubes split into
 * ppStages consecutive groups (pipeline stages own disjoint address
 * ranges of the modeled span); each stage's cubes split into replicas
 * of tpDegree consecutive cubes. Requires numCubes % ppStages == 0 and
 * cubesPerStage % tpDegree == 0 (validated by NodeRouter).
 */
struct NodePlacement
{
    /** Cubes one request's payload is striped across. */
    int tpDegree = 1;
    /** Disjoint cube groups selected by address range. */
    int ppStages = 1;

    /**
     * Largest placement the llm/parallelism.h descriptor admits on
     * @p num_cubes: ppStages clamps to a divisor of num_cubes, tpDegree
     * to the largest divisor of the per-stage cube count not exceeding
     * the descriptor's attention TP degree.
     */
    static NodePlacement fromParallelism(const Parallelism& p,
                                         int num_cubes);
};

/** Router policy and node topology. */
struct NodeRouterConfig
{
    int numCubes = 1;
    RouterPolicy policy = RouterPolicy::RoundRobin;
    NodePlacement placement;
    /** Every host→cube link uses this config. */
    LinkConfig link;
    /** Affinity-hash region size (CacheAffinity). */
    std::uint64_t affinityBytes = 1ull << 20;
    /**
     * Modeled address span. Addresses wrap into it; each pipeline stage
     * owns span/ppStages of it. Defaults to one channel's capacity so
     * single-channel-scale workloads exercise every stage.
     */
    std::uint64_t spanBytes = 1ull << 30;
};

/** One tensor-parallel slice of a routed request. */
struct RoutedSlice
{
    int cube = 0;
    /** Payload slice; arrival is the link delivery tick at the cube. */
    Request req;
};

/**
 * Deterministic front-end router. route() consumes system requests in
 * arrival order and appends each request's slices (one per TP cube of
 * the chosen replica, skipping zero-byte slices) to @p out. All state —
 * round-robin cursors, link occupancy — advances as a pure function of
 * the consumed sequence, so two routers fed the same stream make
 * identical decisions.
 */
class NodeRouter
{
  public:
    explicit NodeRouter(const NodeRouterConfig& cfg);

    /** Route one system request; slices are appended to @p out. */
    void route(const Request& r, std::vector<RoutedSlice>& out);

    /** Restart as new (cursors, links, stats). */
    void reset();

    int cubesPerStage() const { return cubesPerStage_; }
    int replicasPerStage() const { return replicasPerStage_; }
    const LinkModel& link(int cube) const
    {
        return links_[static_cast<std::size_t>(cube)];
    }

  private:
    int stageOf(std::uint64_t addr) const;
    int pickReplica(int stage, const Request& r);

    NodeRouterConfig cfg_;
    int cubesPerStage_ = 1;
    int replicasPerStage_ = 1;
    std::vector<LinkModel> links_;
    /** Per-stage round-robin cursor. */
    std::vector<int> rrCursor_;
};

// ---------------------------------------------------------------------------
// NodeDriver
// ---------------------------------------------------------------------------

/** Configuration of a node-level open-loop serving run. */
struct NodeConfig
{
    /** Fresh per-channel controller (every cube's channel type). */
    ControllerFactory makeController;
    /**
     * Fresh instance of the system-wide request stream. Only payloads
     * (id, kind, addr, size) are used — arrival ticks are replaced by
     * the offered-rate arrival process.
     */
    SourceFactory makeSystemSource;
    int numCubes = 1;
    /** Channels per cube (32 = one HBM cube). */
    int channelsPerCube = 32;
    /** Intra-cube shard granularity (0 = round-robin by slice index). */
    std::uint64_t stripeBytes = 0;
    ArrivalModel arrivalModel = ArrivalModel::Poisson;
    std::uint64_t arrivalSeed = 9;
    /** Worker threads driving the channels (never changes results). */
    int threads = defaultSimThreads();
    RouterPolicy policy = RouterPolicy::RoundRobin;
    NodePlacement placement;
    LinkConfig link;
    std::uint64_t affinityBytes = 1ull << 20;
    std::uint64_t spanBytes = 1ull << 30;
};

/** Every channel's stream of one run, and what routing them observed. */
struct NodeStreams
{
    /** One packed stream per channel, cube-major. */
    std::vector<PackedRequests> channels;
    /** Slices and bytes routed to each cube. */
    std::vector<std::uint64_t> routedRequests;
    std::vector<std::uint64_t> routedBytes;
    /** Link queuing delay across all links, ns (empty without a router). */
    LatencyHistogram linkQueueDelayNs;
    /** Ticks injections waited on link credits, summed over links. */
    std::uint64_t creditStallTicks = 0;
};

/**
 * Split @p system — already re-timed — into @p cfg's per-channel streams
 * in one pass. A single NodeRouter routes each request to its cubes
 * (skipped when routing is the identity: one cube behind the ideal
 * link); each slice goes to the channel its address stripe selects when
 * cfg.stripeBytes is set, otherwise to channel (slice index within its
 * cube's stream) mod channelsPerCube. Each channel's slices keep their
 * stream order.
 */
NodeStreams splitNodeStream(RequestSource& system, const NodeConfig& cfg);

/** One cube's share of a node run. */
struct CubeResult
{
    /** Cube-aggregate stats (its channels merged in channel order). */
    ControllerStats stats;
    /** Per-channel snapshots, indexed by channel within the cube. */
    std::vector<ControllerStats> perChannel;
    /** Completions / node finish span (comparable across cubes). */
    double achievedRps = 0.0;
    /** Slices the router delivered to this cube. */
    std::uint64_t routedRequests = 0;
    std::uint64_t routedBytes = 0;
};

/** Outcome of one node-level offered-rate point. */
struct NodeResult
{
    /**
     * Offered request rate actually driven (requests / second). Arrival
     * gaps quantize to whole ticks, so this is the tick-rounded rate —
     * it can differ from the requested rate by up to half a tick per
     * gap, and it is what achieved throughput is compared against.
     */
    double offeredRps = 0.0;
    /** Node-wide completions / finish span. */
    double achievedRps = 0.0;
    /** Latest channel finish tick across all cubes. */
    Tick finishedAt = 0;
    /** Node-aggregate stats; histogram percentiles are exact. */
    ControllerStats aggregate;
    /** Indexed by cube. */
    std::vector<CubeResult> perCube;
    /**
     * Link queuing delay (start - inject) across all links, ns. Empty
     * when routing is the identity (one cube, ideal link): no link runs.
     */
    LatencyHistogram linkQueueDelayNs;
};

/**
 * A mid-flight snapshot of one offered-rate run: every channel's
 * controller + device + source-cursor state as an enveloped blob
 * (saveControllerCheckpoint), plus the arrival parameters and topology
 * it ran under. Routers and links need no blob: resume splits a fresh
 * stream again, which replays every routing decision.
 */
struct NodeCheckpoint
{
    /** Arrival mean gap in ticks (rebuilds the exact arrival process). */
    Tick meanGap = 0;
    ArrivalModel arrivalModel = ArrivalModel::Poisson;
    std::uint64_t arrivalSeed = 0;
    int numCubes = 0;
    int channelsPerCube = 0;
    /** Simulation tick the snapshot was taken at. */
    Tick takenAt = 0;
    /** One enveloped checkpoint blob per channel, cube-major. */
    std::vector<std::vector<std::uint8_t>> channels;
};

/**
 * Drives one node configuration at arbitrary offered rates. Stateless
 * between runs: every run builds fresh controllers and splits a fresh
 * re-timed system stream once (splitNodeStream) into packed per-channel
 * streams. Each channel then replays its own stream, so channels share
 * no mutable state while the engine drives them.
 */
class NodeDriver
{
  public:
    explicit NodeDriver(NodeConfig cfg);

    /**
     * Serve the full system stream at @p offered_rps requests/s. Rates
     * that are not finite or fall below 1 rps are rejected (fatal).
     */
    NodeResult run(double offered_rps) const;

    /**
     * Drive a fresh node at @p offered_rps up to tick @p at, then
     * snapshot every channel. resume() continues the run to completion
     * with results bit-identical to an uninterrupted run() — provided
     * @p at lands while every channel still has work in flight (past a
     * channel's natural finish, the timed window would add refresh
     * catch-up a straight drain never performs).
     */
    NodeCheckpoint runToCheckpoint(double offered_rps, Tick at) const;

    /**
     * Rebuild the node from @p ck — fresh controllers restored from the
     * blobs, each channel's re-split packed stream fast-forwarded past
     * its consumed prefix — and drain it to completion. A snapshot taken
     * under another arrival seed, arrival model or topology is rejected
     * (fatal).
     */
    NodeResult resume(const NodeCheckpoint& ck) const;

    const NodeConfig& config() const { return cfg_; }

  private:
    NodeConfig cfg_;
};

/** One latency–throughput point of an offered-rate sweep. */
struct RatePoint
{
    double offeredRps = 0.0;
    double achievedRps = 0.0;
    std::uint64_t completedRequests = 0;
    /** Aggregate request latency percentiles (ns, exact merge). */
    double p50Ns = 0.0;
    double p90Ns = 0.0;
    double p99Ns = 0.0;
    double p999Ns = 0.0;
    double maxNs = 0.0;
    double meanNs = 0.0;
    /** Useful bytes / ns over the finish span. */
    double effectiveBandwidth = 0.0;
    /** Achieved fell short of offered by more than the tolerance. */
    bool saturated = false;
    // ---- reliability counters (zero with fault injection disabled) ----
    std::uint64_t ceCount = 0;
    std::uint64_t dueCount = 0;
    std::uint64_t retryCount = 0;
    std::uint64_t scrubCount = 0;
    std::uint64_t sparedRows = 0;
    /** Requests that completed carrying poisoned (DUE) data. */
    std::uint64_t poisonedRequests = 0;
    /** Scheduling steps executed across all channels at this point. */
    std::uint64_t schedSteps = 0;
    // ---- telemetry (sim/telemetry.h; populated only when the run's
    // controllers enabled TelemetryConfig::counters) ---------------------
    /** Any stall/breakdown accounting present at this point. */
    bool telemetry = false;
    /** Total idle ticks by cause (sums to the channels' spans). */
    StallTicks stallTicks{};
    /** Per-request latency decomposition (means + tail, ns). */
    double queueMeanNs = 0.0;
    double queueP99Ns = 0.0;
    double serviceMeanNs = 0.0;
    double serviceP99Ns = 0.0;
    double retryMeanNs = 0.0;
    double linkMeanNs = 0.0;
    /** Merged occupancy/bandwidth/stall-mix time series. */
    TimeSeries timeSeries;

    /** Exact field-by-field equality, doubles included. */
    bool operator==(const RatePoint&) const = default;
};

/**
 * Assemble one latency–throughput point from an aggregate stats
 * snapshot: percentiles from the exact merged histogram, reliability
 * counters and scheduling-step counts. A point saturates when achieved
 * < offered * (1 - saturation_tolerance).
 */
RatePoint makeRatePoint(double offered_rps, double achieved_rps,
                        const ControllerStats& aggregate,
                        double saturation_tolerance);

/** One node-level latency–throughput point. */
struct NodeRatePoint
{
    /** Node-aggregate point. */
    RatePoint node;
    /** Per-cube achieved rps over the node finish span. */
    std::vector<double> perCubeAchievedRps;
    /** Per-cube routed slice counts (router balance evidence). */
    std::vector<std::uint64_t> perCubeRouted;
    double linkQueueDelayMeanNs = 0.0;
    double linkQueueDelayP99Ns = 0.0;
};

/** An offered-rate sweep: the latency–throughput curve plus its knee. */
struct NodeRateSweep
{
    std::vector<NodeRatePoint> points;
    /** Index of the first saturated point, -1 when none saturates. */
    int kneeIndex = -1;

    const NodeRatePoint* knee() const
    {
        return kneeIndex >= 0
                   ? &points[static_cast<std::size_t>(kneeIndex)]
                   : nullptr;
    }
};

/**
 * Walk @p offered_rps (ascending rates) through the driver and assemble
 * the latency–throughput curve (saturation rule of makeRatePoint): below
 * the knee an open-loop system keeps up and latency percentiles grow
 * slowly; past it the backlog grows without bound and the achieved rate
 * pins at capacity.
 *
 * @p workers > 1 shards the rate points across that many threads. Every
 * point is an independent self-contained run, so the merged curve —
 * points, knee, every histogram-derived percentile — is bit-identical to
 * the serial walk regardless of worker count. Callers sharding across
 * points usually set NodeConfig::threads = 1 so the point workers and
 * the engine's channel threads don't oversubscribe.
 */
NodeRateSweep runNodeRateSweep(const NodeDriver& driver,
                               const std::vector<double>& offered_rps,
                               double saturation_tolerance = 0.05,
                               int workers = 1);

/**
 * Emit @p pt's key/value pairs (offeredRps, achievedRps, latencyP50Ns,
 * latencyP90Ns, latencyP99Ns, latencyP999Ns, ...) into the JSON object
 * currently open on @p w — the row schema the BENCH_*.json files and
 * scripts/bench_diff.py agree on. The caller brackets the object and
 * adds its identity keys (label/system/workload) beside them.
 */
void ratePointJson(JsonWriter& w, const RatePoint& pt);

/**
 * Emit @p pt into the JSON object currently open on @p w: the shared
 * RatePoint schema (ratePointJson) plus link-delay scalars and the
 * per-cube achieved-rps / routed-count arrays. The caller brackets the
 * object and adds identity keys (label/system/workload/cubes/router).
 */
void nodeRatePointJson(JsonWriter& w, const NodeRatePoint& pt);

} // namespace rome

#endif // ROME_SIM_NODE_H
