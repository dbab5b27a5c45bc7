/**
 * @file
 * Reliability degradation curves: drive the serving trace through a
 * conventional HBM4 cube and a RoMe cube under deterministic fault
 * injection (sim/fault.h) and report how tail latency inflates with the
 * fault rate — p99 vs transient-error rate at the two ECC codeword
 * granularities (one SEC-DED codeword per 32 B line vs per 4 KB row).
 *
 * The whole-row codeword buys RoMe a large parity-overhead saving
 * (rome/ecc.h), at the cost of a wider exposure window: a row op decodes
 * all 128 lines at once, so at equal per-line fault rates more reads see
 * a correctable error and pay the re-read, and more correctable pairs
 * collide into detected-uncorrectable ones. This bench measures that
 * trade as served tail latency plus CE/DUE/retry/scrub/spare counters.
 *
 * Self-checks feeding the exit status:
 *  - seed reproducibility: the highest-rate RoMe point re-run with the
 *    same fault seed is bit-identical (stats, histogram buckets, and
 *    reliability counters); a different seed must change fault sites
 *    somewhere (CE+DUE placement), or injection is not seed-driven.
 *  - thread-count invariance: the same point on 1 engine thread vs the
 *    default pool is bit-identical, faults included.
 *
 * `--quick` runs a reduced grid for CI smoke.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json_writer.h"
#include "common/table.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "rome/ecc.h"
#include "sim/fault.h"
#include "sim/serving.h"

using namespace rome;
using namespace rome::bench;

namespace
{

/** The swept fault process: transient rate varies, site faults fixed. */
FaultConfig
faultConfigAt(double transient_rate, std::uint64_t seed)
{
    FaultConfig f;
    f.enabled = transient_rate > 0.0;
    f.seed = seed;
    f.transientLineRate = transient_rate;
    f.weakRowFraction = 1e-3;
    f.stuckRowFraction = 1e-4;
    return f;
}

struct ReliabilityRow
{
    std::string system;
    double faultRate = 0.0;
    RatePoint pt;
};

std::string
rateLabel(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", rate);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    const DramConfig dram = hbm4Config();
    const int channels = dram.org.channelsPerCube;
    const double cube_peak =
        dram.org.channelBandwidthBytesPerNs() * channels; // bytes/ns

    const std::string path =
        std::string(ROME_SOURCE_DIR) + "/tests/data/serving.trace";
    if (!std::ifstream(path).good()) {
        std::fprintf(stderr, "missing trace %s\n", path.c_str());
        return 1;
    }
    const std::uint64_t cap = quick ? 15000 : 60000;
    const SourceFactory source = workloadSource(path, false, cap);

    // Rate 0 is the faults-off baseline row; the top rates are chosen so
    // the 128-line RoMe codeword sees whole-percent CE probabilities per
    // row op while the 1-line conventional codeword stays far below.
    const std::vector<double> rates =
        quick ? std::vector<double>{0.0, 1e-5, 1e-4}
              : std::vector<double>{0.0, 1e-6, 1e-5, 1e-4, 1e-3};
    const std::vector<std::string> systems{"hbm4", "rome"};
    const std::uint64_t seed = 12345;
    const double load = 0.7; // fraction of cube peak, below the knee

    const double mean_bytes = scanSource(*source()).meanBytes;
    if (mean_bytes <= 0.0) {
        std::fprintf(stderr, "empty serving trace\n");
        return 1;
    }
    const double rps = load * cube_peak * 1e9 / mean_bytes;

    const auto run_point = [&](const std::string& system, double rate,
                               std::uint64_t fault_seed,
                               int threads) -> ServingResult {
        ServingConfig cfg;
        cfg.makeController =
            systemFactory(system, dram, faultConfigAt(rate, fault_seed));
        cfg.makeSystemSource = source;
        cfg.numChannels = channels;
        if (threads > 0)
            cfg.threads = threads;
        return ServingDriver(cfg).run(rps);
    };

    std::vector<ReliabilityRow> rows;
    Table t("Tail latency vs fault rate (" + std::to_string(channels) +
            " channels, " + Table::num(load, 2) + " x peak load)");
    t.setHeader({"system", "line fault rate", "p50 us", "p99 us",
                 "p99.9 us", "CE", "DUE", "retries", "scrubs", "spared"});
    for (const auto& system : systems) {
        for (const double rate : rates) {
            const ServingResult res = run_point(system, rate, seed, 0);
            const RatePoint pt = makeRatePoint(
                res.offeredRps, res.achievedRps, res.aggregate, 0.05);
            rows.push_back({system, rate, pt});
            t.addRow({system, rateLabel(rate), Table::num(pt.p50Ns / 1e3, 1),
                      Table::num(pt.p99Ns / 1e3, 1),
                      Table::num(pt.p999Ns / 1e3, 1),
                      std::to_string(pt.ceCount),
                      std::to_string(pt.dueCount),
                      std::to_string(pt.retryCount),
                      std::to_string(pt.scrubCount),
                      std::to_string(pt.sparedRows)});
        }
    }
    t.print();

    // The codeword-granularity economics this latency trade funds.
    const std::uint64_t fine_bytes = dram.org.columnBytes;
    const std::uint64_t coarse_bytes = 4096;
    std::printf("\nSEC-DED parity: %d bits / %llu B line vs %d bits / "
                "%llu B row (overhead %.2f%% vs %.3f%%)\n",
                seccDedParityBits(fine_bytes * 8),
                static_cast<unsigned long long>(fine_bytes),
                seccDedParityBits(coarse_bytes * 8),
                static_cast<unsigned long long>(coarse_bytes),
                100.0 * eccOverheadFraction(fine_bytes),
                100.0 * eccOverheadFraction(coarse_bytes));

    // ---- self-checks ----------------------------------------------------
    const std::string det_system = "rome";
    const double det_rate = rates.back();
    const ServingResult a = run_point(det_system, det_rate, seed, 0);
    const ServingResult b = run_point(det_system, det_rate, seed, 0);
    const bool reproducible = a.aggregate == b.aggregate &&
                              a.perChannel == b.perChannel;

    const ServingResult other = run_point(det_system, det_rate, seed + 1, 0);
    const bool seed_sensitive =
        other.aggregate.ceCount != a.aggregate.ceCount ||
        other.aggregate.dueCount != a.aggregate.dueCount ||
        !(other.aggregate == a.aggregate);

    const ServingResult serial = run_point(det_system, det_rate, seed, 1);
    const bool thread_invariant = serial.aggregate == a.aggregate &&
                                  serial.perChannel == a.perChannel;

    std::printf("seed-reproducible: %s | seed-sensitive: %s | "
                "thread-count invariant: %s\n",
                reproducible ? "yes" : "NO — BUG",
                seed_sensitive ? "yes" : "NO — BUG",
                thread_invariant ? "yes" : "NO — BUG");

    JsonWriter json;
    json.beginObject();
    json.key("bench").value("reliability");
    json.key("quick").value(quick);
    json.key("channels").value(channels);
    json.key("load").value(load);
    json.key("faultSeed").value(seed);
    json.key("eccParityBitsPerLine").value(seccDedParityBits(fine_bytes * 8));
    json.key("eccParityBitsPerRow").value(seccDedParityBits(coarse_bytes * 8));
    json.key("eccOverheadFine").value(eccOverheadFraction(fine_bytes));
    json.key("eccOverheadCoarse").value(eccOverheadFraction(coarse_bytes));
    json.key("seedReproducible").value(reproducible);
    json.key("seedSensitive").value(seed_sensitive);
    json.key("threadCountInvariant").value(thread_invariant);
    json.key("rows").beginArray();
    for (const auto& row : rows) {
        json.beginObject();
        json.key("label").value(row.system + " serving fault" +
                                rateLabel(row.faultRate));
        json.key("system").value(row.system);
        json.key("workload").value("serving");
        json.key("faultRate").value(row.faultRate);
        ratePointJson(json, row.pt);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    const bool wrote = writeTextFile("BENCH_reliability.json", json.str());
    std::printf("%s BENCH_reliability.json\n",
                wrote ? "wrote" : "FAILED to write");
    return reproducible && seed_sensitive && thread_invariant && wrote ? 0
                                                                       : 1;
}
