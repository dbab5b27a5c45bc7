/**
 * @file
 * Corpus serving benchmark driver.
 *
 * Runs one workload — a recorded corpus trace on one cube or a 4-cube
 * node — as a fixed open-loop Poisson rate sweep at 0.5 / 0.8 / 1.1 of
 * peak (cube or node peak bytes/ns over the trace's mean request size),
 * through the public ServingDriver::run / NodeDriver::run, in simulated
 * time. Rate points run one after another on one engine of at most
 * kMaxThreads threads.
 *
 *   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              --root <repo> --out <dir> [--git-sha <sha>]
 *              [--source-digest <hex>]
 *
 * --trace 0 measures the end-to-end metrics: host set-up time (median of
 * set-ups sampled before and throughout the sweeps), sweep wall/CPU time
 * (median over as many sweeps as fit in --seconds, at least one), peak
 * RSS, and the simulated latency/capacity of the sweep. --trace 1 runs
 * one untraced and one traced sweep (layers.h wrappers, telemetry
 * counters on) and reports the per-layer metrics.
 *
 * Correctness gate (exit 1 on failure): every point completes every
 * offered request with no poisoned data; repeated sweeps yield identical
 * stats; the traced sweep's ControllerStats equal the untraced sweep's at
 * every point, per channel (per cube on a node) and in aggregate.
 *
 * The last stdout line is the result object {correct, attempted, failed,
 * metrics}; the full record (manifest, every point) goes to --out.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "dram/hbm4_config.h"
#include "layers.h"
#include "mc/addrmap.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/node.h"
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/telemetry.h"
#include "sim/trace.h"

using namespace rome;
using servebench::LayerReport;
using servebench::ScopedSpan;
using servebench::SpanLog;

namespace
{

using Clock = std::chrono::steady_clock;

/** Offered load as a fraction of peak: below, near and past the knee. */
constexpr double kLoads[] = {0.5, 0.8, 1.1};
constexpr const char* kLoadNames[] = {"l050", "l080", "l110"};
constexpr int kPoints = 3;
constexpr int kL050 = 0;
constexpr int kL080 = 1;
constexpr int kL110 = 2;
constexpr double kSaturationTolerance = 0.05;
/**
 * p99 latency limit of sim.slo_rate_mrps. Every workload's l050 p99 sits
 * well below it on every seed tried and every l080 p99 well away from it,
 * so the rate meeting it does not flip between grid points with the
 * seed.
 */
constexpr double kSloP99Us = 2.0;
constexpr int kSetupRepeats = 5;
constexpr int kMaxThreads = 4;

struct Workload
{
    const char* name;
    /** Trace file relative to the repository root. */
    const char* trace;
    /** RepeatSource loops of the trace (1 = play it once). */
    std::uint64_t repeat;
    bool rome;
    /** > 1 drives a NodeDriver of that many cubes. */
    int cubes;
    /**
     * Arrival realizations run at l080 (the first uses the seed itself).
     * Near the knee one realization's p99 moves by up to 25% from seed to
     * seed; the l080 metrics come from the merged histogram of all of
     * them, so the count is sized to each workload's seed sensitivity.
     */
    int l080Realizations;
};

const Workload kWorkloads[] = {
    {"hbm4-serving", "tests/data/serving.trace", 1, false, 1, 3},
    {"rome-serving", "tests/data/serving.trace", 1, true, 1, 20},
    {"rome-node4", "tests/data/serving.trace", 1, true, 4, 8},
    {"hbm4-prefill", "tests/data/prefill.trace", 256, false, 1, 3},
};

/** Arrival seed of realization @p k (k = 0 is the seed itself). */
std::uint64_t
realizationSeed(std::uint64_t seed, int k)
{
    return seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(k);
}

int
realizationsAt(const Workload& w, int point)
{
    return point == kL080 ? w.l080Realizations : 1;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string root;
    std::string out;
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
};

bool
parseArgs(int argc, char** argv, Args& a)
{
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end != v.c_str() && *end == '\0';
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0')
                a.seconds = 0.0;
        } else if (k == "--trace") {
            a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
        } else if (k == "--root") {
            a.root = v;
        } else if (k == "--out") {
            a.out = v;
        } else if (k == "--git-sha") {
            a.gitSha = v;
        } else if (k == "--source-digest") {
            a.sourceDigest = v;
        } else {
            return false;
        }
    }
    return (argc % 2) == 1 && !a.workload.empty() && have_seed &&
           a.seconds > 0.0 && a.trace >= 0 && !a.root.empty() &&
           !a.out.empty();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workload set-up
// ---------------------------------------------------------------------------

SourceFactory
systemSource(const std::string& path, std::uint64_t repeat)
{
    return [path, repeat]() -> std::unique_ptr<RequestSource> {
        std::unique_ptr<RequestSource> src =
            std::make_unique<TraceSource>(path);
        if (repeat > 1)
            src = std::make_unique<RepeatSource>(std::move(src), repeat);
        return src;
    };
}

ControllerFactory
controllerFactory(bool rome, bool telemetry)
{
    const DramConfig dram = hbm4Config();
    if (rome) {
        RomeMcConfig cfg;
        cfg.telemetry.counters = telemetry;
        return [dram, cfg] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(), cfg);
        };
    }
    McConfig cfg;
    cfg.telemetry.counters = telemetry;
    return [dram, cfg] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), cfg);
    };
}

/** Request count and byte mix of one system stream. */
struct TraceShape
{
    std::uint64_t fileBytes = 0;
    /** Requests in one pass over the file. */
    std::uint64_t fileRequests = 0;
    /** Requests in the (looped) system stream. */
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    std::uint64_t writeBytes = 0;

    double
    meanBytes() const
    {
        return static_cast<double>(bytes) / static_cast<double>(requests);
    }
};

TraceShape
scanTrace(const std::string& path, std::uint64_t repeat)
{
    TraceShape shape;
    shape.fileBytes = std::filesystem::file_size(path);
    auto src = systemSource(path, repeat)();
    Request r;
    while (src->next(r)) {
        ++shape.requests;
        shape.bytes += r.size;
        if (r.kind == ReqKind::Write)
            shape.writeBytes += r.size;
    }
    shape.fileRequests = shape.requests / repeat;
    if (shape.requests == 0)
        fatal("trace %s holds no requests", path.c_str());
    return shape;
}

/** One driver run (a rate point under one arrival realization), with
 *  the stats the gate compares. */
struct PointResult
{
    int point = 0;
    int realization = 0;
    double wallS = 0.0;
    double offeredRps = 0.0;
    double achievedRps = 0.0;
    ControllerStats aggregate;
    /** Per channel (one cube) or per cube (node), in order. */
    std::vector<ControllerStats> parts;
    /** Node only: slices the router delivered, and link queue p99. */
    std::uint64_t routed = 0;
    double linkQueueP99Ns = 0.0;
    RatePoint rate;
};

/** The workload's driver: one cube (ServingDriver) or a node. */
class Driver
{
  public:
    Driver(const Workload& w, ControllerFactory make_controller,
           SourceFactory make_source, int threads, std::uint64_t seed)
    {
        const int channels = hbm4Config().org.channelsPerCube;
        if (w.cubes == 1) {
            ServingConfig cfg;
            cfg.makeController = std::move(make_controller);
            cfg.makeSystemSource = std::move(make_source);
            cfg.numChannels = channels;
            cfg.arrivalSeed = seed;
            cfg.threads = threads;
            serving_.emplace(std::move(cfg));
        } else {
            NodeConfig cfg;
            cfg.makeController = std::move(make_controller);
            cfg.makeSystemSource = std::move(make_source);
            cfg.numCubes = w.cubes;
            cfg.channelsPerCube = channels;
            cfg.arrivalSeed = seed;
            cfg.threads = threads;
            cfg.policy = RouterPolicy::CacheAffinity;
            node_.emplace(std::move(cfg));
        }
    }

    PointResult
    run(double offered_rps) const
    {
        PointResult p;
        if (serving_) {
            ServingResult r = serving_->run(offered_rps);
            p.offeredRps = r.offeredRps;
            p.achievedRps = r.achievedRps;
            p.aggregate = std::move(r.aggregate);
            p.parts = std::move(r.perChannel);
            return p;
        }
        NodeResult r = node_->run(offered_rps);
        p.offeredRps = r.offeredRps;
        p.achievedRps = r.achievedRps;
        p.aggregate = std::move(r.aggregate);
        for (CubeResult& c : r.perCube) {
            p.routed += c.routedRequests;
            p.parts.push_back(std::move(c.stats));
        }
        p.linkQueueP99Ns = r.linkQueueDelayNs.percentileNs(99.0);
        return p;
    }

  private:
    std::optional<ServingDriver> serving_;
    std::optional<NodeDriver> node_;
};

/** One driver per arrival realization (index = realization). */
using Drivers = std::vector<std::unique_ptr<Driver>>;

Drivers
makeDrivers(const Workload& w, const ControllerFactory& make_controller,
            const SourceFactory& make_source, int threads, std::uint64_t seed)
{
    Drivers d;
    for (int k = 0; k < w.l080Realizations; ++k) {
        d.push_back(std::make_unique<Driver>(w, make_controller, make_source,
                                             threads,
                                             realizationSeed(seed, k)));
    }
    return d;
}

/** Everything built before the first point: timed as setup_s. */
struct Setup
{
    TraceShape shape;
    std::vector<double> rates;
    Drivers drivers;
};

Setup
setUp(const Workload& w, const std::string& path, int threads,
      std::uint64_t seed)
{
    Setup s;
    s.shape = scanTrace(path, w.repeat);
    const DramConfig dram = hbm4Config();
    const double peak_bytes_per_ns = dram.org.channelBandwidthBytesPerNs() *
                                     dram.org.channelsPerCube * w.cubes;
    const double base_rps = peak_bytes_per_ns * 1e9 / s.shape.meanBytes();
    for (const double l : kLoads)
        s.rates.push_back(l * base_rps);
    s.drivers = makeDrivers(w, controllerFactory(w.rome, false),
                            systemSource(path, w.repeat), threads, seed);
    return s;
}

/** The rate points in order, each under its realizations in order;
 *  @p between (if set) runs after every driver run. */
std::vector<PointResult>
runSweep(const Workload& w, const Drivers& drivers,
         const std::vector<double>& rates, SpanLog* log,
         const std::function<void()>& between = {})
{
    std::vector<PointResult> runs;
    for (int i = 0; i < kPoints; ++i) {
        for (int k = 0; k < realizationsAt(w, i); ++k) {
            if (log != nullptr)
                log->setRun(static_cast<int>(runs.size()), i);
            ScopedSpan point(log, "point");
            const auto t0 = Clock::now();
            PointResult p;
            {
                ScopedSpan run(log, "run");
                p = drivers[static_cast<std::size_t>(k)]->run(
                    rates[static_cast<std::size_t>(i)]);
            }
            {
                ScopedSpan rp(log, "rate_point");
                p.rate = makeRatePoint(p.offeredRps, p.achievedRps,
                                       p.aggregate, kSaturationTolerance);
            }
            p.point = i;
            p.realization = k;
            p.wallS = secondsSince(t0);
            runs.push_back(std::move(p));
            if (between)
                between();
        }
    }
    if (log != nullptr)
        log->setRun(-1, -1);
    return runs;
}

/** The first realization's run of @p point. */
const PointResult&
firstRun(const std::vector<PointResult>& runs, int point)
{
    for (const PointResult& p : runs) {
        if (p.point == point)
            return p;
    }
    fatal("sweep has no run at point %d", point);
}

// ---------------------------------------------------------------------------
// Simulated metrics and the correctness gate
// ---------------------------------------------------------------------------

/**
 * Percentile of @p h with the rank interpolated linearly inside the
 * nearest-rank bucket. LatencyHistogram::percentileNs reports that
 * bucket's midpoint, so nearby seeds read identical values; interpolation
 * keeps the same bucket (same <= 3.1% error bound) but resolves within it.
 */
double
interpolatedPercentileNs(const LatencyHistogram& h, double p)
{
    const std::uint64_t n = h.count();
    if (n == 0)
        return 0.0;
    const double rank = std::max(p / 100.0 * static_cast<double>(n), 1.0);
    double seen = 0.0;
    for (std::size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
        const double c = static_cast<double>(h.bucketCount(i));
        if (c == 0.0)
            continue;
        if (seen + c >= rank) {
            const double lo =
                static_cast<double>(LatencyHistogram::bucketLow(i));
            const double hi =
                static_cast<double>(LatencyHistogram::bucketLow(i + 1));
            const double v = lo + (hi - lo) * (rank - seen) / c;
            return std::clamp(v, h.minNs(), h.maxNs());
        }
        seen += c;
    }
    return h.maxNs();
}

/** Samples strictly beyond the p-th percentile's nearest rank. */
std::uint64_t
samplesBeyond(std::uint64_t n, double p)
{
    return n - static_cast<std::uint64_t>(
                   std::ceil(p / 100.0 * static_cast<double>(n)));
}

struct SimMetrics
{
    double p50L080Us = 0.0;
    double p99L050Us = 0.0;
    double p99L080Us = 0.0;
    double p999L080Us = 0.0;
    double capacityMrps = 0.0;
    double sloRateMrps = 0.0;
    /** Grid point sloRateMrps came from (-1 = none met the limit). */
    int sloPoint = -1;

    bool operator==(const SimMetrics&) const = default;
};

SimMetrics
simMetrics(const std::vector<PointResult>& runs)
{
    // Latency of a point merges every realization's histogram (exact).
    std::vector<LatencyHistogram> hist(kPoints);
    std::vector<double> achieved(kPoints, 0.0);
    std::vector<int> n(kPoints, 0);
    std::vector<bool> saturated(kPoints, false);
    for (const PointResult& p : runs) {
        const auto i = static_cast<std::size_t>(p.point);
        hist[i].merge(p.aggregate.latencyHistNs);
        achieved[i] += p.achievedRps;
        ++n[i];
        saturated[i] = saturated[i] || p.rate.saturated;
    }
    const auto pct = [&](int point, double p) {
        return interpolatedPercentileNs(hist[static_cast<std::size_t>(point)],
                                        p) *
               1e-3;
    };
    SimMetrics m;
    m.p50L080Us = pct(kL080, 50.0);
    m.p99L050Us = pct(kL050, 99.0);
    m.p99L080Us = pct(kL080, 99.0);
    m.p999L080Us = pct(kL080, 99.9);
    m.capacityMrps = achieved[kL110] / n[kL110] * 1e-6;
    for (int i = 0; i < kPoints; ++i) {
        const auto u = static_cast<std::size_t>(i);
        if (!saturated[u] && pct(i, 99.0) <= kSloP99Us) {
            m.sloPoint = i;
            m.sloRateMrps = achieved[u] / n[u] * 1e-6;
        }
    }
    return m;
}

/** Failed operations of one sweep: requests not completed or poisoned. */
std::uint64_t
sweepFailures(const std::vector<PointResult>& pts, const TraceShape& shape,
              bool node, std::vector<std::string>& why)
{
    std::uint64_t failed = 0;
    for (const PointResult& p : pts) {
        const std::uint64_t done = p.aggregate.completedRequests;
        const std::uint64_t missing =
            done >= shape.requests ? done - shape.requests
                                   : shape.requests - done;
        failed += missing + p.aggregate.poisonedRequests;
        if (missing != 0 || p.aggregate.poisonedRequests != 0 ||
            (node && p.routed != shape.requests)) {
            why.push_back(std::string(kLoadNames[p.point]) + " #" +
                          std::to_string(p.realization) + ": completed " +
                          std::to_string(done) + " of " +
                          std::to_string(shape.requests) + ", poisoned " +
                          std::to_string(p.aggregate.poisonedRequests) +
                          (node ? ", routed " + std::to_string(p.routed)
                                : std::string()));
        }
    }
    return failed;
}

/** Stats of two sweeps of the same workload agree exactly. */
bool
sameStats(const std::vector<PointResult>& a,
          const std::vector<PointResult>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].aggregate != b[i].aggregate || a[i].parts != b[i].parts ||
            a[i].routed != b[i].routed ||
            a[i].offeredRps != b[i].offeredRps ||
            a[i].achievedRps != b[i].achievedRps)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Shortest decimal that reads back as exactly @p v (JSON null if not
 *  finite). */
std::string
number(double v)
{
    char buf[40];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return std::isfinite(v) && ec == std::errc() ? std::string(buf, end)
                                                 : std::string("null");
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
    s += "}}";
    return s;
}

void
pointsJson(JsonWriter& w, const std::vector<PointResult>& pts)
{
    w.beginArray();
    for (const PointResult& p : pts) {
        w.beginObject();
        w.key("load").value(kLoadNames[p.point]);
        w.key("realization").value(p.realization);
        w.key("wallS").value(p.wallS);
        ratePointJson(w, p.rate);
        w.key("p50InterpNs")
            .value(interpolatedPercentileNs(p.aggregate.latencyHistNs, 50.0));
        w.key("p99InterpNs")
            .value(interpolatedPercentileNs(p.aggregate.latencyHistNs, 99.0));
        w.key("p999InterpNs")
            .value(interpolatedPercentileNs(p.aggregate.latencyHistNs, 99.9));
        w.key("samplesBeyondP999")
            .value(samplesBeyond(p.aggregate.completedRequests, 99.9));
        if (p.routed > 0) {
            w.key("routed").value(p.routed);
            w.key("linkQueueP99Ns").value(p.linkQueueP99Ns);
        }
        w.endObject();
    }
    w.endArray();
}

void
printPoints(const std::vector<PointResult>& pts)
{
    std::printf("%-5s %3s %8s %12s %12s %10s %10s %10s %10s %8s %5s\n",
                "load", "#", "wall_s", "offered_rps", "achieved_rps",
                "completed", "p50_us", "p99_us", "p999_us", ">p999", "sat");
    for (const PointResult& p : pts) {
        const LatencyHistogram& h = p.aggregate.latencyHistNs;
        std::printf("%-5s %3d %8.3f %12.6g %12.6g %10llu %10.4f %10.4f "
                    "%10.4f %8llu %5s\n",
                    kLoadNames[p.point], p.realization, p.wallS,
                    p.offeredRps, p.achievedRps,
                    static_cast<unsigned long long>(
                        p.aggregate.completedRequests),
                    interpolatedPercentileNs(h, 50.0) * 1e-3,
                    interpolatedPercentileNs(h, 99.0) * 1e-3,
                    interpolatedPercentileNs(h, 99.9) * 1e-3,
                    static_cast<unsigned long long>(
                        samplesBeyond(p.aggregate.completedRequests, 99.9)),
                    p.rate.saturated ? "yes" : "no");
    }
}

void
manifestJson(JsonWriter& w, const Args& a, const Workload& wl,
             const TraceShape& shape, int threads)
{
    w.key("manifest").beginObject();
    w.key("git_sha").value(a.gitSha);
    w.key("source_digest").value(a.sourceDigest);
    w.key("build_type").value(SERVEBENCH_BUILD_TYPE);
    w.key("rome_oracles").value(ROME_ORACLES != 0);
    w.key("engine_threads").value(threads);
    w.key("arrival_seed").value(a.seed);
    w.key("nproc").value(
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    w.key("workload").value(wl.name);
    w.key("loads").beginArray();
    for (const double l : kLoads)
        w.value(l);
    w.endArray();
    w.key("slo_p99_us").value(kSloP99Us);
    w.key("traces").beginArray();
    w.beginObject();
    w.key("path").value(wl.trace);
    w.key("bytes").value(shape.fileBytes);
    w.key("requests").value(shape.fileRequests);
    w.key("repeat").value(wl.repeat);
    w.key("system_requests").value(shape.requests);
    w.key("mean_request_bytes").value(shape.meanBytes());
    w.key("write_byte_share")
        .value(static_cast<double>(shape.writeBytes) /
               static_cast<double>(shape.bytes));
    w.endObject();
    w.endArray();
    w.endObject();
}

/** The manifest alone, as one "manifest {...}" stdout line. */
void
printManifest(const Args& a, const Workload& wl, const TraceShape& shape,
              int threads)
{
    JsonWriter w;
    w.beginObject();
    manifestJson(w, a, wl, shape, threads);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

/** The end-to-end measurement (--trace 0). */
int
measure(const Args& a, const Workload& wl, const std::string& path,
        int threads)
{
    // Set-up is sampled before the first sweep and again after every
    // driver run: the host's speed drifts over seconds, and samples spread
    // over the whole run give a median that drifts less than a burst.
    std::vector<double> setups;
    double aside_wall = 0.0;
    double aside_cpu = 0.0;
    const auto sample_setup = [&] {
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        {
            const auto t1 = Clock::now();
            const Setup s = setUp(wl, path, threads, a.seed);
            setups.push_back(secondsSince(t1));
        }
        aside_wall += secondsSince(t0);
        aside_cpu += cpuSeconds() - cpu0;
    };
    for (int i = 0; i < kSetupRepeats; ++i)
        sample_setup();
    const Setup setup = setUp(wl, path, threads, a.seed);

    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<PointResult> first;
    double rss = 0.0;
    std::vector<std::string> why;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool repeatable = true;
    const auto t_start = Clock::now();
    do {
        aside_wall = 0.0;
        aside_cpu = 0.0;
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        std::vector<PointResult> pts =
            runSweep(wl, setup.drivers, setup.rates, nullptr, sample_setup);
        walls.push_back(secondsSince(t0) - aside_wall);
        cpus.push_back(cpuSeconds() - cpu0 - aside_cpu);
        attempted += setup.shape.requests * pts.size();
        failed += sweepFailures(pts, setup.shape, wl.cubes > 1, why);
        // The first sweep is kept for the record; later ones must match it.
        // Peak RSS is read after it: every further driver run in the process
        // can leave more freed heap in the allocator's per-thread arenas, so
        // a later reading would grow with the number of sweeps that fit.
        if (first.empty()) {
            first = std::move(pts);
            rss = peakRssMib();
        } else if (!sameStats(first, pts) ||
                   simMetrics(first) != simMetrics(pts)) {
            repeatable = false;
        }
    } while (secondsSince(t_start) + walls.back() <= a.seconds);

    const SimMetrics sim = simMetrics(first);
    if (!repeatable)
        why.push_back("repeated sweeps disagree");
    if (sim.sloPoint < 0)
        why.push_back("no grid point meets the p99 limit");
    const bool correct = why.empty() && failed == 0;

    printManifest(a, wl, setup.shape, threads);
    std::printf("workload %s  seed %llu  engine threads %d  sweeps %zu  "
                "set-up samples %zu\n",
                wl.name, static_cast<unsigned long long>(a.seed), threads,
                walls.size(), setups.size());
    printPoints(first);
    std::printf("knee (first saturated point): %s\n",
                firstRun(first, kL110).rate.saturated
                    ? "l110"
                    : "not on grid");
    for (const std::string& w : why)
        std::printf("FAIL %s\n", w.c_str());

    const std::vector<Metric> metrics = {
        {"setup_s", median(setups), "s"},
        {"sweep_wall_s", median(walls), "s"},
        {"sweep_cpu_s", median(cpus), "s"},
        {"peak_rss_mib", rss, "MiB"},
        {"sim.p50_us.l080", sim.p50L080Us, "us"},
        {"sim.p99_us.l050", sim.p99L050Us, "us"},
        {"sim.p99_us.l080", sim.p99L080Us, "us"},
        {"sim.p999_us.l080", sim.p999L080Us, "us"},
        {"sim.capacity_mrps", sim.capacityMrps, "Mrps"},
        {"sim.slo_rate_mrps", sim.sloRateMrps, "Mrps"},
    };
    // Completions behind each latency / capacity metric (all realizations
    // of the point).
    std::uint64_t done[kPoints] = {};
    for (const PointResult& p : first)
        done[p.point] += p.aggregate.completedRequests;
    const std::pair<const char*, int> counts[] = {
        {"sim.p50_us.l080", kL080}, {"sim.p99_us.l050", kL050},
        {"sim.p99_us.l080", kL080}, {"sim.p999_us.l080", kL080},
        {"sim.capacity_mrps", kL110}};
    for (const Metric& m : metrics)
        std::printf("metric %-18s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto& [name, pt] : counts) {
        std::printf("count  %-18s %llu completions, %llu beyond p99.9\n",
                    name, static_cast<unsigned long long>(done[pt]),
                    static_cast<unsigned long long>(
                        samplesBeyond(done[pt], 99.9)));
    }

    JsonWriter w;
    w.beginObject();
    manifestJson(w, a, wl, setup.shape, threads);
    w.key("correct").value(correct);
    w.key("setup_s").beginArray();
    for (const double s : setups)
        w.value(s);
    w.endArray();
    w.key("sweep_wall_s").beginArray();
    for (const double s : walls)
        w.value(s);
    w.endArray();
    w.key("sweep_cpu_s").beginArray();
    for (const double s : cpus)
        w.value(s);
    w.endArray();
    w.key("slo_point").value(sim.sloPoint >= 0 ? kLoadNames[sim.sloPoint]
                                               : "none");
    w.key("points");
    pointsJson(w, first);
    w.endObject();
    const std::string file = a.out + "/result-" + wl.name + "-seed" +
                             std::to_string(a.seed) + "-trace0.json";
    writeTextFile(file, w.str());
    std::printf("record %s\n", file.c_str());

    std::printf("%s\n",
                resultLine(correct, attempted, failed, metrics).c_str());
    return correct ? 0 : 1;
}

/** The traced per-layer run (--trace 1). */
int
traced(const Args& a, const Workload& wl, const std::string& path,
       int threads)
{
    const Setup setup = setUp(wl, path, threads, a.seed);

    const auto t0 = Clock::now();
    const std::vector<PointResult> plain =
        runSweep(wl, setup.drivers, setup.rates, nullptr);
    const double plain_wall = secondsSince(t0);

    SpanLog log;
    const Drivers traced_drivers = makeDrivers(
        wl, servebench::tracedFactory(controllerFactory(wl.rome, true), log),
        servebench::timedSourceFactory(systemSource(path, wl.repeat), log),
        threads, a.seed);
    const auto t1 = Clock::now();
    const std::vector<PointResult> pts =
        runSweep(wl, traced_drivers, setup.rates, &log);
    const double traced_wall = secondsSince(t1);
    const int runs = static_cast<int>(pts.size());
    const LayerReport rep = servebench::analyzeSpans(log, threads, runs);

    std::vector<std::string> why;
    std::uint64_t failed =
        sweepFailures(plain, setup.shape, wl.cubes > 1, why) +
        sweepFailures(pts, setup.shape, wl.cubes > 1, why);
    if (!sameStats(plain, pts))
        why.push_back("traced stats differ from untraced stats");
    if (rep.orphanCalls != 0)
        why.push_back("decode calls outside every span");
    const bool correct = why.empty() && failed == 0;
    const std::uint64_t attempted = 2 * setup.shape.requests * runs;

    // Host layers, summed over the sweep's runs.
    double busy = 0.0;
    double idle = 0.0;
    double straggler = 0.0;
    for (const servebench::EngineShare& e : rep.runs) {
        busy += e.busyS;
        idle += e.idleS;
        straggler += e.straggler / runs;
    }
    std::uint64_t steps = 0;
    std::uint64_t ff_steps = 0;
    std::uint64_t completed = 0;
    for (const PointResult& p : pts) {
        steps += p.aggregate.schedSteps;
        ff_steps += p.aggregate.memoFfSteps;
        completed += p.aggregate.completedRequests;
    }
    const double distinct = static_cast<double>(setup.shape.requests) * runs;

    // Simulated layers at the near-knee point (first realization).
    const PointResult& near_knee = firstRun(pts, kL080);
    const ControllerStats& s = near_knee.aggregate;
    std::uint64_t stall_total = 0;
    for (const std::uint64_t t : s.stallTicks)
        stall_total += t;
    const double moved =
        static_cast<double>(s.totalBytes() + s.overfetchBytes);

    std::vector<Metric> metrics = {
        {"source.decode_calls", static_cast<double>(rep.decodeCalls),
         "count"},
        {"source.decode_amp", static_cast<double>(rep.decodeCalls) / distinct,
         "ratio"},
        {"source.self_s", rep.sourceS, "s"},
        {"feed.self_s", rep.feedS, "s"},
        {"feed.pulls", static_cast<double>(rep.feedPulls), "count"},
        {"feed.yield",
         static_cast<double>(rep.feedDelivered) /
             static_cast<double>(std::max<std::uint64_t>(rep.decodeCalls, 1)),
         "ratio"},
        {"ctrl.self_s", rep.ctrlS, "s"},
        {"ctrl.sched_steps", static_cast<double>(steps), "count"},
        {"ctrl.steps_per_req",
         static_cast<double>(steps) / static_cast<double>(completed),
         "ratio"},
        {"ctrl.ns_per_step", rep.ctrlS * 1e9 / static_cast<double>(steps),
         "ns"},
        {"ctrl.construct_s", rep.constructS, "s"},
        {"memo.ff_fraction",
         static_cast<double>(ff_steps) / static_cast<double>(steps), "ratio"},
        {"engine.busy_s", busy, "s"},
        {"engine.idle_s", idle, "s"},
        {"engine.straggler", straggler, "ratio"},
        {"stats.self_s", rep.statsS, "s"},
        {"dram.acts", static_cast<double>(s.acts), "count"},
        {"dram.interface_cmds", static_cast<double>(s.interfaceCommands),
         "count"},
        {"dram.row_hit_rate", s.rowHitRate, "ratio"},
        {"dram.overfetch_frac",
         moved > 0.0 ? static_cast<double>(s.overfetchBytes) / moved : 0.0,
         "ratio"},
    };
    for (std::size_t i = 0; i < kNumStallCauses; ++i) {
        metrics.push_back(
            {std::string("stall.") +
                 stallCauseName(static_cast<StallCause>(i)),
             stall_total > 0 ? static_cast<double>(s.stallTicks[i]) /
                                   static_cast<double>(stall_total)
                             : 0.0,
             "ratio"});
    }
    metrics.push_back({"lat.queue_mean_ns", s.queueNsHist.meanNs(), "ns"});
    metrics.push_back(
        {"lat.service_mean_ns", s.serviceNsHist.meanNs(), "ns"});
    metrics.push_back(
        {"node.link_queue_p99_ns", near_knee.linkQueueP99Ns, "ns"});
    metrics.push_back({"trace.overhead", traced_wall / plain_wall, "ratio"});
    metrics.push_back({"unattributed_s", rep.unattributedS, "s"});

    const double capacity = threads * traced_wall;
    printManifest(a, wl, setup.shape, threads);
    std::printf("workload %s  seed %llu  engine threads %d  traced\n",
                wl.name, static_cast<unsigned long long>(a.seed), threads);
    std::printf("untraced sweep %.3f s, traced sweep %.3f s (x%.3f), "
                "clock read %.1f ns\n",
                plain_wall, traced_wall, traced_wall / plain_wall,
                log.clockNs());
    std::printf("host time by layer over the traced sweep "
                "(share of threads x wall = %.3f s):\n",
                capacity);
    const std::pair<const char*, double> layers[] = {
        {"source (decode)", rep.sourceS},
        {"feed (shard/arrival/route)", rep.feedS},
        {"ctrl (admission/sched/device)", rep.ctrlS},
        {"ctrl construct", rep.constructS},
        {"ctrl teardown", rep.teardownS},
        {"stats", rep.statsS},
        {"engine idle", idle},
        {"trace clock reads", rep.clockS},
        {"unattributed", rep.unattributedS},
    };
    double attributed = 0.0;
    for (const auto& [name, v] : layers) {
        std::printf("  %-31s %9.4f s  %6.2f%%\n", name, v,
                    100.0 * v / capacity);
        attributed += v;
    }
    // The rest is by construction the other engine threads waiting while
    // the owner thread runs the drivers' serial parts (set-up, stats, the
    // node's routing pass).
    std::printf("  %-31s %9.4f s  %6.2f%%\n", "idle during serial parts",
                capacity - attributed,
                100.0 * (capacity - attributed) / capacity);
    std::printf("source.self_s sampling error (1 sigma): %.4f s (%.2f%%), "
                "1 in %llu decode calls timed\n",
                rep.sourceErrS, 100.0 * rep.sourceErrS / rep.sourceS,
                static_cast<unsigned long long>(
                    servebench::kSourceSampleEvery));
    const double host_total = rep.sourceS + rep.feedS + rep.ctrlS +
                              rep.constructS + rep.teardownS + rep.statsS;
    const std::pair<const char*, double> busy_layers[] = {
        {"source", rep.sourceS}, {"feed", rep.feedS}, {"ctrl", rep.ctrlS},
        {"ctrl construct", rep.constructS}, {"stats", rep.statsS}};
    std::printf("largest busy layer: %s\n",
                std::max_element(std::begin(busy_layers),
                                 std::end(busy_layers),
                                 [](const auto& x, const auto& y) {
                                     return x.second < y.second;
                                 })
                    ->first);
    std::printf("source+feed vs ctrl: %.4f s vs %.4f s (%s)\n",
                rep.sourceS + rep.feedS, rep.ctrlS,
                rep.sourceS + rep.feedS > rep.ctrlS ? "source+feed larger"
                                                    : "ctrl larger");
    std::printf("ctrl share of busy layers: %.2f%%, unattributed share of "
                "threads x wall: %.2f%%\n",
                100.0 * rep.ctrlS / host_total,
                100.0 * rep.unattributedS / capacity);
    for (const std::string& w : why)
        std::printf("FAIL %s\n", w.c_str());
    for (const Metric& m : metrics)
        std::printf("layer %-22s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    const std::string stem = a.out + "/result-" + wl.name + "-seed" +
                             std::to_string(a.seed) + "-trace1";
    JsonWriter w;
    w.beginObject();
    manifestJson(w, a, wl, setup.shape, threads);
    w.key("correct").value(correct);
    w.key("untraced_sweep_s").value(plain_wall);
    w.key("traced_sweep_s").value(traced_wall);
    w.key("clock_read_ns").value(log.clockNs());
    w.key("source_self_err_s").value(rep.sourceErrS);
    w.key("ctrl_teardown_s").value(rep.teardownS);
    w.key("trace_clock_s").value(rep.clockS);
    w.key("engine").beginArray();
    for (const servebench::EngineShare& e : rep.runs) {
        w.beginObject();
        w.key("busy_s").value(e.busyS);
        w.key("idle_s").value(e.idleS);
        w.key("straggler").value(e.straggler);
        w.endObject();
    }
    w.endArray();
    w.key("metrics").beginObject();
    for (const Metric& m : metrics)
        w.key(m.name).value(m.value);
    w.endObject();
    w.key("points");
    pointsJson(w, pts);
    w.endObject();
    writeTextFile(stem + ".json", w.str());
    writeTextFile(stem + "-spans.json", log.toJson());
    std::printf("record %s.json, spans %s-spans.json\n", stem.c_str(),
                stem.c_str());

    std::printf("%s\n",
                resultLine(correct, attempted, failed, metrics).c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: servebench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> --root <repo> --out <dir> "
                     "[--git-sha <sha>] [--source-digest <hex>]\n");
        return 2;
    }
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads) {
        if (a.workload == w.name)
            wl = &w;
    }
    if (wl == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
        return 2;
    }
    const std::string path = a.root + "/" + wl->trace;
    if (!std::filesystem::is_regular_file(path)) {
        std::fprintf(stderr, "missing trace %s\n", path.c_str());
        return 2;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    const int threads =
        std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, kMaxThreads);
    return a.trace == 0 ? measure(a, *wl, path, threads)
                        : traced(a, *wl, path, threads);
}
