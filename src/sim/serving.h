/**
 * @file
 * Serving harness: one cube's open-loop driver with tail-latency
 * histograms — at a given *offered* request rate, what latency
 * distribution does a whole cube (all N channels) deliver?
 *
 * ServingDriver is the one-cube view of NodeDriver (sim/node.h): a node
 * of one cube behind the ideal link, so the system stream is re-timed
 * by an open-loop ArrivalProcess and sharded straight across the cube's
 * channels. Aggregate tail latency is exact: per-channel histograms
 * merge bucket-wise (ControllerStats::merge), and results are merged in
 * channel order, independent of the engine's thread count. Rate sweeps
 * and checkpoints run on the node driver (node()).
 */

#ifndef ROME_SIM_SERVING_H
#define ROME_SIM_SERVING_H

#include <cstdint>
#include <vector>

#include "sim/node.h"

namespace rome
{

/** Configuration of a multi-channel open-loop serving run. */
struct ServingConfig
{
    /** Fresh per-channel controller (the cube's channel type). */
    ControllerFactory makeController;
    /**
     * Fresh instance of the system-wide request stream. Only payloads
     * (id, kind, addr, size) are used — arrival ticks are replaced by
     * the offered-rate arrival process.
     */
    SourceFactory makeSystemSource;
    /** Channels the system stream shards across (32 = one HBM cube). */
    int numChannels = 32;
    /** Address-stripe shard granularity (0 = round-robin by index). */
    std::uint64_t stripeBytes = 0;
    /** Inter-arrival model of the offered load. */
    ArrivalModel arrivalModel = ArrivalModel::Poisson;
    /** Seed of the arrival process draws. */
    std::uint64_t arrivalSeed = 9;
    /** Worker threads driving the channels (never changes results). */
    int threads = defaultSimThreads();
};

/** Outcome of one offered-rate point (NodeResult of the one cube). */
struct ServingResult
{
    /** Tick-rounded offered rate actually driven (see NodeResult). */
    double offeredRps = 0.0;
    /** Completed requests over the cube's finish span. */
    double achievedRps = 0.0;
    /** Latest channel finish tick. */
    Tick finishedAt = 0;
    /** Cube-level stats; latencyHistNs percentiles are exact. */
    ControllerStats aggregate;
    /** Per-channel snapshots, indexed by channel. */
    std::vector<ControllerStats> perChannel;
};

/**
 * Drives one cube configuration at arbitrary offered rates through a
 * one-cube, ideal-link NodeDriver. Stateless between runs.
 */
class ServingDriver
{
  public:
    explicit ServingDriver(const ServingConfig& cfg);

    /** Serve the full system stream at @p offered_rps requests/s. */
    ServingResult run(double offered_rps) const;

    /** The node driver behind this cube (sweeps, checkpoints). */
    const NodeDriver& node() const { return node_; }

  private:
    NodeDriver node_;
};

} // namespace rome

#endif // ROME_SIM_SERVING_H
