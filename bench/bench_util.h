/**
 * @file
 * Shared helpers for the experiment harnesses: per-model channel
 * calibration (cached per process, both systems simulated concurrently on
 * the engine's thread pool), batch sweeps, and the recorded-corpus
 * serving benches' controllers and system streams.
 */

#ifndef ROME_BENCH_BENCH_UTIL_H
#define ROME_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dram/hbm4_config.h"
#include "llm/kv_cache.h"
#include "mc/mc.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/memsim.h"
#include "sim/source.h"
#include "sim/tpot.h"
#include "sim/trace.h"

namespace rome::bench
{

/** Calibrate (once) both memory systems for @p model. */
inline std::pair<ChannelCalibration, ChannelCalibration>
calibrationFor(const LlmConfig& model)
{
    static std::map<std::string, std::pair<ChannelCalibration,
                                           ChannelCalibration>> cache;
    auto it = cache.find(model.name);
    if (it != cache.end())
        return it->second;
    ChannelWorkloadProfile p = profileFor(model);
    p.totalBytes = 8ull << 20;
    auto result = calibratePair(p);
    cache.emplace(model.name, result);
    return result;
}

/** The paper's power-of-two decode batch sweep for @p model (Fig 12). */
inline std::vector<int>
batchSweep(const LlmConfig& model)
{
    const int max = maxBatch(model,
                             paperParallelism(model, Stage::Decode), 8192,
                             256ull << 30);
    std::vector<int> batches;
    for (int b = 8; b <= max; b *= 2)
        batches.push_back(b);
    return batches;
}

/**
 * One cube's channel controller by system name: "hbm4" (conventional,
 * best baseline mapping), "rome" (adopted VBA design), anything else the
 * hybrid. @p faults configures fault injection on the first two.
 */
inline ControllerFactory
systemFactory(const std::string& system, const DramConfig& dram,
              const FaultConfig& faults = {})
{
    if (system == "hbm4") {
        return [dram, faults] {
            McConfig mc;
            mc.faults = faults;
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), mc);
        };
    }
    if (system == "rome") {
        return [dram, faults] {
            RomeMcConfig mc;
            mc.faults = faults;
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(), mc);
        };
    }
    return [dram] {
        return std::make_unique<HybridMc>(dram, HybridConfig{});
    };
}

/** Request count and mean size of a workload source. */
struct TraceShape
{
    std::uint64_t requests = 0;
    double meanBytes = 0.0;
};

inline TraceShape
scanSource(RequestSource& src)
{
    TraceShape shape;
    std::uint64_t bytes = 0;
    Request r;
    while (src.next(r)) {
        ++shape.requests;
        bytes += r.size;
    }
    if (shape.requests > 0)
        shape.meanBytes = static_cast<double>(bytes) /
                          static_cast<double>(shape.requests);
    return shape;
}

/**
 * One corpus trace as a system stream. The short phase and per-model
 * traces loop 64 times (RepeatSource) so serving runs are long enough
 * for tail percentiles and a clean knee; @p cap bounds the span for
 * --quick smoke runs.
 */
inline SourceFactory
workloadSource(const std::string& path, bool loop, std::uint64_t cap)
{
    return [path, loop, cap]() -> std::unique_ptr<RequestSource> {
        std::unique_ptr<RequestSource> src =
            std::make_unique<TraceSource>(path);
        if (loop)
            src = std::make_unique<RepeatSource>(std::move(src), 64);
        return trimWindow(std::move(src), 0, cap);
    };
}

} // namespace rome::bench

#endif // ROME_BENCH_BENCH_UTIL_H
