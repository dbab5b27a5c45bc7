/**
 * @file
 * Checkpoint round-trip property tests: saving a controller mid-run and
 * restoring it into a freshly constructed twin must continue to a
 * bit-identical end state — full ControllerStats equality (histogram
 * included) against an uninterrupted single-window oracle.
 *
 * The property is exercised at several mid-run points on both stacks and
 * the hybrid router, with faults on/off and epoch memoization on/off, in
 * both drive modes (pre-enqueued requests and streaming bindSource). The
 * streaming variants restore the source cursor through resumeSource on a
 * fresh source instance — the mechanism NodeDriver::resume relies on —
 * and the serving test closes the loop: snapshot a mid-flight cube sweep
 * point, resume it, and compare against the straight run (the routed
 * multi-cube resume is in tests/test_node.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/workloads.h"

namespace rome
{
namespace
{

using namespace rome::literals;

/** Spread arrivals so admission pumps fire mid-run, not only at t=0. */
std::vector<Request>
spaced(std::vector<Request> reqs, std::int64_t gap_ns)
{
    Tick t = 0;
    for (auto& r : reqs) {
        r.arrival = t;
        t += ticksFromNs(gap_ns);
    }
    return reqs;
}

std::vector<Request>
mixedWorkload(std::uint64_t seed, double write_fraction)
{
    RandomPattern p;
    p.seed = seed;
    p.requestBytes = 2_KiB;
    p.totalBytes = 256_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = write_fraction;
    return spaced(randomRequests(p), 40);
}

std::vector<Request>
hybridWorkload()
{
    SparseMixPattern p;
    p.fineFraction = 0.3;
    p.totalBytes = 512_KiB;
    p.coarseBytes = 6_KiB;
    return spaced(sparseMixRequests(p), 40);
}

template <typename Mc>
void
enqueueAll(Mc& mc, const std::vector<Request>& reqs)
{
    for (const auto& r : reqs)
        mc.enqueue(r);
}

/**
 * Round-trip property, pre-enqueued drive: run to a mid point, save,
 * restore into a fresh twin, run both to the horizon — the twin, the
 * original, and the uninterrupted oracle must agree on every stat.
 */
template <typename MakeMc>
void
expectCheckpointRoundTrip(MakeMc make, const std::vector<Request>& reqs,
                          const std::string& label)
{
    Tick end = 0;
    {
        auto probe = make();
        enqueueAll(*probe, reqs);
        probe->drain();
        end = probe->now();
    }

    auto oracle = make();
    enqueueAll(*oracle, reqs);
    oracle->runUntil(end);
    ASSERT_TRUE(oracle->idle()) << label;
    const ControllerStats want = oracle->stats();
    EXPECT_EQ(want.completedRequests, reqs.size()) << label;

    for (const Tick mid : {end / 3, (7 * end) / 10}) {
        auto a = make();
        enqueueAll(*a, reqs);
        a->runUntil(mid);
        const auto blob = saveControllerCheckpoint(*a);

        auto b = make();
        restoreControllerCheckpoint(*b, blob);
        EXPECT_EQ(b->now(), a->now()) << label;
        b->runUntil(end);
        EXPECT_TRUE(want == b->stats())
            << label << ": restored twin diverged (mid=" << mid << ")";

        // The original, saved from non-destructively, continues too.
        a->runUntil(end);
        EXPECT_TRUE(want == a->stats())
            << label << ": original diverged after save (mid=" << mid
            << ")";
    }
}

/**
 * Round-trip property, streaming drive: the controller pulls from a
 * bound source; restore hands a fresh source instance to resumeSource,
 * which fast-forwards past the checkpointed pull count.
 */
template <typename MakeMc>
void
expectStreamingCheckpointRoundTrip(MakeMc make,
                                   const std::vector<Request>& reqs,
                                   const std::string& label)
{
    Tick end = 0;
    {
        auto probe = make();
        ReplaySource src(reqs);
        probe->bindSource(&src);
        probe->drain();
        end = probe->now();
    }

    auto oracle = make();
    ReplaySource oracle_src(reqs);
    oracle->bindSource(&oracle_src);
    oracle->runUntil(end);
    ASSERT_TRUE(oracle->idle()) << label;
    const ControllerStats want = oracle->stats();
    EXPECT_EQ(want.completedRequests, reqs.size()) << label;

    for (const Tick mid : {end / 3, (7 * end) / 10}) {
        auto a = make();
        ReplaySource a_src(reqs);
        a->bindSource(&a_src);
        a->runUntil(mid);
        const auto blob = saveControllerCheckpoint(*a);

        auto b = make();
        restoreControllerCheckpoint(*b, blob);
        ReplaySource b_src(reqs);
        b->resumeSource(&b_src);
        b->runUntil(end);
        EXPECT_TRUE(want == b->stats())
            << label << ": streaming restore diverged (mid=" << mid << ")";
    }
}

McConfig
faultyMcConfig()
{
    McConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.transientLineRate = 2e-4;
    cfg.faults.stuckRowFraction = 0.01;
    cfg.faults.weakRowFraction = 0.02;
    return cfg;
}

RomeMcConfig
faultyRomeConfig()
{
    RomeMcConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.transientLineRate = 2e-5;
    cfg.faults.stuckRowFraction = 0.01;
    cfg.faults.weakRowFraction = 0.02;
    return cfg;
}

TEST(Checkpoint, ConventionalRoundTrip)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(301, 0.3);
    struct Case
    {
        const char* label;
        McConfig cfg;
    };
    for (const Case& c : {Case{"hbm4 default", McConfig{}},
                          Case{"hbm4 faults", faultyMcConfig()}}) {
        const auto make = [&] {
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), c.cfg);
        };
        expectCheckpointRoundTrip(make, reqs, c.label);
        expectStreamingCheckpointRoundTrip(make, reqs,
                                           std::string(c.label) +
                                               " streaming");
    }
}

TEST(Checkpoint, RomeRoundTrip)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(311, 0.3);
    struct Case
    {
        const char* label;
        RomeMcConfig cfg;
    };
    for (const Case& c : {Case{"rome default", RomeMcConfig{}},
                          Case{"rome faults", faultyRomeConfig()}}) {
        const auto make = [&] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                            c.cfg);
        };
        expectCheckpointRoundTrip(make, reqs, c.label);
        expectStreamingCheckpointRoundTrip(make, reqs,
                                           std::string(c.label) +
                                               " streaming");
    }
}

TEST(Checkpoint, RomeNonAdoptedDesignRoundTrip)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(313, 0.25);
    // A non-adopted VBA design exercises different geometry (slot
    // counts, VBA tables) through the size-checked restore path.
    const VbaDesign design = VbaDesign::all().front();
    const auto make = [&] {
        return std::make_unique<RomeMc>(dram, design, RomeMcConfig{});
    };
    expectCheckpointRoundTrip(make, reqs, "rome non-adopted");
}

TEST(Checkpoint, HybridRoundTrip)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = hybridWorkload();
    HybridConfig faulty;
    faulty.faults.enabled = true;
    faulty.faults.transientLineRate = 2e-5;
    faulty.faults.stuckRowFraction = 0.01;
    struct Case
    {
        const char* label;
        HybridConfig cfg;
    };
    for (const Case& c :
         {Case{"hybrid", HybridConfig{}}, Case{"hybrid faults", faulty}}) {
        const auto make = [&] {
            return std::make_unique<HybridMc>(dram, c.cfg);
        };
        expectCheckpointRoundTrip(make, reqs, c.label);
        // Streaming restore re-attaches both partition feeds and
        // fast-forwards the shared stream — the router-specific path.
        expectStreamingCheckpointRoundTrip(make, reqs,
                                           std::string(c.label) +
                                               " streaming");
    }
}

TEST(Checkpoint, MismatchedRestoreIsFatal)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(331, 0.2);

    ConventionalMc src_mc(dram, bestBaselineMapping(dram.org), McConfig{});
    enqueueAll(src_mc, reqs);
    src_mc.runUntil(ticksFromNs(static_cast<std::int64_t>(2000)));
    const auto blob = saveControllerCheckpoint(src_mc);

    // Wrong controller type: the envelope name check rejects it.
    RomeMc wrong(dram, VbaDesign::adopted(), RomeMcConfig{});
    EXPECT_THROW(restoreControllerCheckpoint(wrong, blob),
                 std::runtime_error);

    // Not a checkpoint blob at all.
    ConventionalMc fresh(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_THROW(
        restoreControllerCheckpoint(fresh, {0x01, 0x02, 0x03, 0x04}),
        std::runtime_error);

    // Truncated blob: the bounds-checked reader refuses to run past it.
    auto cut = blob;
    cut.resize(cut.size() / 2);
    ConventionalMc fresh2(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_THROW(restoreControllerCheckpoint(fresh2, cut),
                 std::runtime_error);

    // Another format version: the envelope's version field (little-endian
    // u32 after the magic) is checked before any state is read. A blob
    // from the previous format is the realistic case.
    auto old = blob;
    const std::uint32_t prev = kCheckpointVersion - 1;
    for (int i = 0; i < 4; ++i)
        old[4 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(prev >> (8 * i));
    ConventionalMc fresh3(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_THROW(restoreControllerCheckpoint(fresh3, old),
                 std::runtime_error);
}

TEST(Checkpoint, ConventionalResumeMidWriteDrainWithRetries)
{
    // Snapshot while the write drain is on and ECC re-reads are waiting
    // out their backoff: the restored controller rebuilds its scheduling
    // index (hit representatives, per-PC CAS lists, row worklist) from
    // the op lists, so continuing must match the straight run exactly.
    const DramConfig dram = hbm4Config();
    McConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.transientLineRate = 5e-3;
    cfg.faults.retryBackoffTicks = 1000_ns;
    const auto reqs = mixedWorkload(347, 0.6);
    const auto make = [&] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), cfg);
    };

    Tick end = 0;
    {
        auto probe = make();
        enqueueAll(*probe, reqs);
        probe->drain();
        end = probe->now();
    }
    auto oracle = make();
    enqueueAll(*oracle, reqs);
    oracle->runUntil(end);
    ASSERT_TRUE(oracle->idle());
    const ControllerStats want = oracle->stats();
    ASSERT_GT(want.retryCount, 0u);

    auto a = make();
    enqueueAll(*a, reqs);
    Tick t = 0;
    while (!(a->drainingWrites() && a->pendingRetries() > 0)) {
        ASSERT_LT(t, end) << "no mid-drain point with retries pending";
        t += 20_ns;
        a->runUntil(t);
    }
    const auto blob = saveControllerCheckpoint(*a);
    auto b = make();
    restoreControllerCheckpoint(*b, blob);
    EXPECT_TRUE(b->drainingWrites());
    EXPECT_EQ(b->pendingRetries(), a->pendingRetries());
    b->runUntil(end);
    EXPECT_TRUE(want == b->stats()) << "restored twin diverged at " << t;
    a->runUntil(end);
    EXPECT_TRUE(want == a->stats()) << "original diverged at " << t;
}

TEST(Checkpoint, CorruptedOpListIndexIsFatal)
{
    // Two queued reads to one bank form a two-node op list. Their pool
    // nodes are found in the blob by the distinctive request ids; every
    // single corrupted link or bank index must be refused on restore.
    const DramConfig dram = hbm4Config();
    const auto make = [&] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), McConfig{});
    };
    auto mc = make();
    const std::uint64_t line = dram.org.columnBytes;
    const int bank = flatBankIndex(dram.org, mc->mapping().decode(0));
    std::uint64_t second = line;
    while (flatBankIndex(dram.org, mc->mapping().decode(second)) != bank)
        second += line;
    const std::uint64_t id0 = 0x5a17c0de00000001ull;
    const std::uint64_t id1 = 0x5a17c0de00000002ull;
    mc->enqueue({id0, ReqKind::Read, 0, line, 0});
    mc->enqueue({id1, ReqKind::Read, second, line, 0});
    mc->runUntil(0); // both admitted, the bank activated, no CAS yet
    const auto blob = saveControllerCheckpoint(*mc);

    const auto find_id = [&blob](std::uint64_t id) {
        std::size_t at = blob.size();
        int hits = 0;
        for (std::size_t i = 0; i + 8 <= blob.size(); ++i) {
            std::uint64_t v = 0;
            for (int k = 0; k < 8; ++k)
                v |= static_cast<std::uint64_t>(blob[i + k]) << (8 * k);
            if (v == id) {
                at = i;
                ++hits;
            }
        }
        EXPECT_EQ(hits, 1) << std::hex << id;
        return at;
    };
    // Pool node layout after the request id: kind u8, arrival i64,
    // singleOp u8, attempt i32, retryWait i64, linkDelay i64, head seq
    // u64, then run count, seq stride, bank, prev and next as i32.
    const auto field = [](std::size_t id_at, int which) {
        return id_at + 54 + 4 * static_cast<std::size_t>(which);
    };
    const std::size_t n0 = find_id(id0);
    const std::size_t n1 = find_id(id1);
    ASSERT_LT(n0, blob.size());
    ASSERT_LT(n1, blob.size());
    const auto get_i32 = [&blob](std::size_t at) {
        std::uint32_t v = 0;
        for (int k = 0; k < 4; ++k)
            v |= static_cast<std::uint32_t>(blob[at + k]) << (8 * k);
        return static_cast<std::int32_t>(v);
    };
    ASSERT_EQ(get_i32(field(n0, 0)), bank);
    ASSERT_EQ(get_i32(field(n0, 1)), -1);
    ASSERT_EQ(get_i32(field(n0, 2)), 1);
    ASSERT_EQ(get_i32(field(n1, 1)), 0);

    {
        auto twin = make();
        restoreControllerCheckpoint(*twin, blob); // the intact blob loads
        mc->drain();
        twin->drain();
        EXPECT_TRUE(mc->stats() == twin->stats());
    }
    struct Mutation
    {
        const char* what;
        std::size_t at;
        std::int32_t value;
    };
    const Mutation mutations[] = {
        {"next out of range", field(n0, 2), 2},
        {"negative next", field(n0, 2), -7},
        {"next cycles to itself", field(n0, 2), 0},
        {"prev mislinked", field(n1, 1), 1},
        {"bank out of range", field(n1, 0), 1 << 20},
        {"bank of another list", field(n1, 0),
         (bank + 1) % dram.org.banksPerChannel()},
    };
    for (const Mutation& m : mutations) {
        auto bad = blob;
        for (int k = 0; k < 4; ++k)
            bad[m.at + static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(
                static_cast<std::uint32_t>(m.value) >> (8 * k));
        auto twin = make();
        EXPECT_THROW(restoreControllerCheckpoint(*twin, bad),
                     std::runtime_error)
            << m.what;
    }
}

/** Little-endian u64 at @p at in @p blob. */
std::uint64_t
getU64At(const std::vector<std::uint8_t>& blob, std::size_t at)
{
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k)
        v |= static_cast<std::uint64_t>(blob[at + static_cast<std::size_t>(k)])
             << (8 * k);
    return v;
}

void
putU64At(std::vector<std::uint8_t>& blob, std::size_t at, std::uint64_t v)
{
    for (int k = 0; k < 8; ++k)
        blob[at + static_cast<std::size_t>(k)] =
            static_cast<std::uint8_t>(v >> (8 * k));
}

/** Where ChannelDevice::saveState put the fields restore must check. */
struct DeviceBlobFields
{
    /** Offset of each SID's ACT-window head. */
    std::vector<std::size_t> actWindowHeads;
    /** Offset of each command-bus calendar's span count (row bus, then
     *  column bus, per PC); its (from, until) pairs follow. */
    std::vector<std::size_t> calendars;
};

/** Walk a device blob's layout: banks, SIDs, then PCs. */
DeviceBlobFields
walkDeviceBlob(const std::vector<std::uint8_t>& dev)
{
    DeviceBlobFields f;
    std::size_t at = 0;
    const auto count = [&] {
        const std::uint64_t n = getU64At(dev, at);
        at += 8;
        return static_cast<std::size_t>(n);
    };
    // openRow i32, lastAct/lastPre/lastCas i64, lastCasWasWrite u8,
    // refUntil i64.
    at += count() * 37;
    const std::size_t sids = count();
    for (std::size_t i = 0; i < sids; ++i) {
        at += count() * 8 + 8; // lastActPerBg, lastAct
        EXPECT_EQ(count(), 4u) << "ACT-window size of SID " << i;
        at += 4 * 8;
        f.actWindowHeads.push_back(at);
        at += 3 * 8; // head, lastRefPb, refAbUntil
    }
    const std::size_t pcs = count();
    for (std::size_t i = 0; i < pcs; ++i) {
        at += 8 + 4 + 4 + 1 + 8 + 8;
        for (int bus = 0; bus < 2; ++bus) {
            f.calendars.push_back(at);
            at += count() * 16;
        }
    }
    EXPECT_LE(at + 8, dev.size()) << "device blob walk overran";
    return f;
}

/**
 * Corrupt one device field at a time inside a whole controller
 * checkpoint and expect restore to refuse each: an ACT-window head
 * outside the four-entry ring, and calendar spans that are empty,
 * inverted, unsorted, overlapping or touching (not maximal).
 */
template <typename MakeMc>
void
expectCorruptDeviceFieldsAreFatal(MakeMc make,
                                  const std::vector<Request>& reqs,
                                  const std::string& label)
{
    auto mc = make();
    enqueueAll(*mc, reqs);
    mc->runUntil(3_us);
    const auto blob = saveControllerCheckpoint(*mc);
    CheckpointWriter w;
    mc->device().saveState(w);
    const std::vector<std::uint8_t>& dev = w.data();
    const auto found = std::search(blob.begin(), blob.end(), dev.begin(),
                                   dev.end());
    ASSERT_NE(found, blob.end()) << label;
    ASSERT_EQ(std::search(found + 1, blob.end(), dev.begin(), dev.end()),
              blob.end())
        << label << ": device blob is not unique in the checkpoint";
    const auto base = static_cast<std::size_t>(found - blob.begin());
    const DeviceBlobFields f = walkDeviceBlob(dev);
    ASSERT_FALSE(f.actWindowHeads.empty()) << label;

    {
        auto twin = make();
        restoreControllerCheckpoint(*twin, blob); // the intact blob loads
    }
    const auto expect_fatal = [&](const std::string& what,
                                  const std::vector<std::uint8_t>& bad) {
        auto twin = make();
        EXPECT_THROW(restoreControllerCheckpoint(*twin, bad),
                     std::runtime_error)
            << label << ": " << what;
    };
    for (const std::uint64_t head : {4ull, 1ull << 40}) {
        auto bad = blob;
        putU64At(bad, base + f.actWindowHeads.back(), head);
        expect_fatal("ACT-window head " + std::to_string(head), bad);
    }

    // A calendar with at least two spans, so order can be broken too.
    std::size_t cal = 0;
    for (const std::size_t c : f.calendars) {
        if (getU64At(dev, c) >= 2) {
            cal = base + c;
            break;
        }
    }
    ASSERT_NE(cal, 0u) << label << ": no calendar with two spans";
    const std::size_t from0 = cal + 8;
    const std::size_t until0 = cal + 16;
    const std::size_t from1 = cal + 24;
    const std::size_t until1 = cal + 32;
    const std::uint64_t f0 = getU64At(blob, from0);
    const std::uint64_t u0 = getU64At(blob, until0);
    const std::uint64_t f1 = getU64At(blob, from1);
    const std::uint64_t u1 = getU64At(blob, until1);
    struct Mutation
    {
        const char* what;
        std::size_t at;
        std::uint64_t value;
    };
    const Mutation mutations[] = {
        {"empty span", until0, f0},
        {"inverted span", until0, f0 - 1},
        {"overlapping spans", from1, u0 - 1},
        {"touching spans", from1, u0},
        {"span count lie", cal, getU64At(blob, cal) + 1},
    };
    for (const Mutation& m : mutations) {
        auto bad = blob;
        putU64At(bad, m.at, m.value);
        expect_fatal(m.what, bad);
    }
    auto swapped = blob;
    putU64At(swapped, from0, f1);
    putU64At(swapped, until0, u1);
    putU64At(swapped, from1, f0);
    putU64At(swapped, until1, u0);
    expect_fatal("unsorted spans", swapped);
}

TEST(Checkpoint, CorruptedOpRunIsFatal)
{
    // Two 1 KiB reads of consecutive addresses fill the same eight bank
    // rows: under RoSiBaCoBgPc every 8th line is the next column of one
    // bank row, so each request leaves one four-op run (seq stride 8) in
    // each of eight read lists, request 1's run behind request 0's. Every
    // single corrupted run field must be refused on restore.
    const DramConfig dram = hbm4Config();
    const auto make = [&] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), McConfig{});
    };
    auto mc = make();
    const std::uint64_t id0 = 0x5a17c0de00000011ull;
    const std::uint64_t id1 = 0x5a17c0de00000012ull;
    mc->enqueue({id0, ReqKind::Read, 0, 1_KiB, 0});
    mc->enqueue({id1, ReqKind::Read, 1_KiB, 1_KiB, 0});
    mc->runUntil(0); // both admitted, no CAS yet
    const auto blob = saveControllerCheckpoint(*mc);

    // The pool is the last place an id is saved (after the in-flight
    // requests), in node order: an id's first of its last eight hits is
    // its run in the bank of line 0 (node 0 or node 8).
    const auto first_id = [&blob](std::uint64_t id) {
        std::vector<std::size_t> hits;
        for (std::size_t i = 0; i + 8 <= blob.size(); ++i) {
            if (getU64At(blob, i) == id)
                hits.push_back(i);
        }
        EXPECT_GE(hits.size(), 8u) << std::hex << id;
        return hits.size() < 8 ? blob.size() : hits[hits.size() - 8];
    };
    const std::size_t a = first_id(id0);
    const std::size_t b = first_id(id1);
    ASSERT_LT(a, blob.size());
    ASSERT_LT(b, blob.size());
    const auto get_i32 = [&blob](std::size_t at) {
        return static_cast<std::int32_t>(getU64At(blob, at) & 0xffffffffu);
    };
    // After the id: 30 bytes of ticket and kind, the head seq, then count,
    // stride and bank.
    const auto seq_at = [](std::size_t id_at) { return id_at + 38; };
    const auto count_at = [](std::size_t id_at) { return id_at + 46; };
    const auto stride_at = [](std::size_t id_at) { return id_at + 50; };
    ASSERT_EQ(getU64At(blob, seq_at(a)), 0u);
    ASSERT_EQ(get_i32(count_at(a)), 4);
    ASSERT_EQ(get_i32(stride_at(a)), 8);
    ASSERT_EQ(getU64At(blob, seq_at(b)), 32u);
    ASSERT_EQ(get_i32(count_at(b)), 4);
    ASSERT_EQ(get_i32(stride_at(b)), 8);

    {
        auto twin = make();
        restoreControllerCheckpoint(*twin, blob); // the intact blob loads
        mc->drain();
        twin->drain();
        EXPECT_TRUE(mc->stats() == twin->stats());
    }
    struct Mutation
    {
        const char* what;
        std::size_t at;
        std::uint64_t value;
        int bytes;
    };
    const Mutation mutations[] = {
        {"zero run count", count_at(a), 0, 4},
        {"negative run count", count_at(a), static_cast<std::uint32_t>(-3),
         4},
        {"run past the row's last column", count_at(b), 29, 4},
        {"zero stride", stride_at(a), 0, 4},
        {"negative stride", stride_at(a), static_cast<std::uint32_t>(-8), 4},
        {"runs overlap", stride_at(a), 11, 4},
        {"runs out of order", seq_at(b), 1, 8},
        {"seq at the admission counter", seq_at(b), 64, 8},
        {"seq near the top of u64", seq_at(b), ~0ull - 7, 8},
        {"run counts disagree with the list", count_at(a), 3, 4},
    };
    for (const Mutation& m : mutations) {
        auto bad = blob;
        for (int k = 0; k < m.bytes; ++k)
            bad[m.at + static_cast<std::size_t>(k)] =
                static_cast<std::uint8_t>(m.value >> (8 * k));
        auto twin = make();
        EXPECT_THROW(restoreControllerCheckpoint(*twin, bad),
                     std::runtime_error)
            << m.what;
    }
}

TEST(Checkpoint, CorruptedDeviceRecordsAreFatal)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(353, 0.3);
    expectCorruptDeviceFieldsAreFatal(
        [&] {
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), McConfig{});
        },
        reqs, "hbm4");
    expectCorruptDeviceFieldsAreFatal(
        [&] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                            RomeMcConfig{});
        },
        reqs, "rome");
}

/** Overwrite @p width little-endian bytes of @p v at @p at in @p blob. */
void
putAt(std::vector<std::uint8_t>& blob, std::size_t at, std::uint64_t v,
      int width)
{
    for (int k = 0; k < width; ++k)
        blob[at + static_cast<std::size_t>(k)] =
            static_cast<std::uint8_t>(v >> (8 * k));
}

/** Offset of the first of the @p hits occurrences of @p id in @p blob. */
std::size_t
findU64(const std::vector<std::uint8_t>& blob, std::uint64_t id, int hits)
{
    std::size_t at = blob.size();
    int found = 0;
    for (std::size_t i = 0; i + 8 <= blob.size(); ++i) {
        if (getU64At(blob, i) == id && found++ == 0)
            at = i;
    }
    EXPECT_EQ(found, hits) << std::hex << id;
    return at;
}

TEST(Checkpoint, CorruptedRomeRecordsAreFatal)
{
    // A read to a stuck row waits out a long ECC retry backoff, a second
    // read is still queued behind the Table III gap, and a two-row write
    // arriving later sits in the host window (and the in-flight map).
    // Each is found in the blob by its request id; the refresh rotation
    // and the VBA state table are located from the retry queue, the
    // blob's last variable section.
    const DramConfig dram = hbm4Config();
    RomeMcConfig cfg;
    cfg.refreshEnabled = false;
    cfg.faults.enabled = true;
    cfg.faults.stuckRowFraction = 1.0;
    cfg.faults.stuckDueFraction = 0.0;
    cfg.faults.scrubEnabled = false;
    cfg.faults.retryBackoffTicks = 100_us;
    const auto make = [&] {
        return std::make_unique<RomeMc>(dram, VbaDesign::adopted(), cfg);
    };
    auto mc = make();
    const std::uint64_t row = mc->vbaMap().effectiveRowBytes();
    const std::uint64_t retried = 0x7e7c0de000000001ull;
    const std::uint64_t queued = 0x7e7c0de000000002ull;
    const std::uint64_t hosted = 0x7e7c0de000000003ull;
    mc->enqueue({retried, ReqKind::Read, 0, row, 0});
    mc->enqueue({queued, ReqKind::Read, row, row, 0});
    mc->enqueue({hosted, ReqKind::Write, 2 * row, 2 * row, 1_us});
    mc->runUntil(0);
    const auto blob = saveControllerCheckpoint(*mc);

    // Row op: kind u8, sid/vba/row i32, then the request id.
    const std::size_t retry_op = findU64(blob, retried, 1) - 13;
    const std::size_t queued_op = findU64(blob, queued, 1) - 13;
    // Host request: id u64, kind u8, addr/size u64, arrival/link i64;
    // then the admission chunk u64 and the in-flight map: count, id,
    // arrival i64, ops left i32.
    const std::size_t host_req = findU64(blob, hosted, 2);
    ASSERT_LT(retry_op, blob.size());
    ASSERT_LT(queued_op, blob.size());
    ASSERT_LT(host_req, blob.size());
    const std::size_t front_chunk = host_req + 41;
    const std::size_t ops_left = host_req + 73;
    ASSERT_EQ(getU64At(blob, front_chunk), 0u);
    ASSERT_EQ(getU64At(blob, front_chunk + 16), hosted);
    ASSERT_EQ(blob[ops_left], 2);
    // Retry queue: count, then its one (op, ready tick); before it the
    // refresh rotation (interval i64, due i64, cursor i32), and before
    // that the last-command record (tick i64, write u8, sid i32, then a
    // present VBA: u8 + three i32) after the per-VBA state bytes.
    const std::size_t retry_count = retry_op - 8;
    ASSERT_EQ(getU64At(blob, retry_count), 1u);
    const std::size_t cursor = retry_count - 4;
    const std::size_t interval = retry_count - 20;
    const VbaMap& map = mc->vbaMap();
    const auto vbas = static_cast<std::size_t>(
        map.vbasPerSid() * map.deviceOrganization().sidsPerChannel);
    const std::size_t states = interval - 26 - vbas;
    ASSERT_EQ(getU64At(blob, states - 8 * vbas - 8), vbas);
    ASSERT_EQ(blob[states],
              static_cast<std::uint8_t>(VbaState::Reading)); // VBA (0, 0)
    ASSERT_EQ(blob[queued_op], static_cast<std::uint8_t>(RowCmdKind::RdRow));

    {
        auto twin = make();
        restoreControllerCheckpoint(*twin, blob); // the intact blob loads
        mc->drain();
        twin->drain();
        EXPECT_TRUE(mc->stats() == twin->stats());
        EXPECT_GT(twin->stats().retryCount, 0u);
    }
    struct Mutation
    {
        const char* what;
        std::size_t at;
        std::uint64_t value;
        int width;
    };
    const auto i32 = [](std::int64_t v) {
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    };
    const Mutation mutations[] = {
        {"queued op kind REF", queued_op,
         static_cast<std::uint64_t>(RowCmdKind::Ref), 1},
        {"queued op kind unknown", queued_op, 9, 1},
        {"queued op SID", queued_op + 1,
         i32(map.deviceOrganization().sidsPerChannel), 4},
        {"queued op negative VBA", queued_op + 5, i32(-1), 4},
        {"queued op VBA", queued_op + 5, i32(map.vbasPerSid()), 4},
        {"queued op row", queued_op + 9, i32(map.rowsPerVba()), 4},
        {"queued op negative row", queued_op + 9, i32(-1), 4},
        {"retry op kind REF", retry_op,
         static_cast<std::uint64_t>(RowCmdKind::Ref), 1},
        {"retry op VBA", retry_op + 5, i32(map.vbasPerSid()), 4},
        {"retry op negative SID", retry_op + 1, i32(-3), 4},
        {"negative refresh cursor", cursor, i32(-1), 4},
        {"refresh cursor past the VBAs", cursor, i32(vbas), 4},
        {"zero refresh interval", interval, 0, 8},
        {"negative refresh interval", interval,
         static_cast<std::uint64_t>(-5), 8},
        {"VBA state", states, 4, 1},
        {"last VBA state", states + vbas - 1, 200, 1},
        {"host request size 0", host_req + 17, 0, 8},
        {"host request kind", host_req + 8, 2, 1},
        {"admission chunk past the front request", front_chunk, 2, 8},
        {"no ops left in flight", ops_left, 0, 4},
        {"negative ops left in flight", ops_left, i32(-1), 4},
    };
    for (const Mutation& m : mutations) {
        auto bad = blob;
        putAt(bad, m.at, m.value, m.width);
        auto twin = make();
        EXPECT_THROW(restoreControllerCheckpoint(*twin, bad),
                     std::runtime_error)
            << m.what;
    }
}

TEST(Checkpoint, ResumedSourceMustReplayTheStream)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(337, 0.2);

    ConventionalMc mc(dram, bestBaselineMapping(dram.org), McConfig{});
    ReplaySource src(reqs);
    mc.bindSource(&src);
    mc.runUntil(ticksFromNs(static_cast<std::int64_t>(2000)));
    const auto blob = saveControllerCheckpoint(mc);

    ConventionalMc restored(dram, bestBaselineMapping(dram.org),
                            McConfig{});
    restoreControllerCheckpoint(restored, blob);
    // A source shorter than the checkpointed pull count cannot be the
    // stream the checkpoint was taken over.
    std::vector<Request> stub(reqs.begin(), reqs.begin() + 2);
    ReplaySource too_short(stub);
    EXPECT_THROW(restored.resumeSource(&too_short), std::runtime_error);
}

TEST(Checkpoint, ServingResumeMatchesStraightRun)
{
    const DramConfig dram = hbm4Config();
    ServingConfig cfg;
    cfg.numChannels = 4;
    cfg.threads = 2;
    cfg.makeController = [&dram] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), McConfig{});
    };
    cfg.makeSystemSource = [] {
        RandomPattern p;
        p.seed = 77;
        p.requestBytes = 2_KiB;
        p.totalBytes = 512_KiB;
        p.capacity = hbm4Config().org.channelCapacity();
        p.writeFraction = 0.25;
        return std::make_unique<RandomSource>(p);
    };
    const ServingDriver cube(cfg);
    const NodeDriver& driver = cube.node();
    const double rps = 2.0e6;

    const NodeResult straight = driver.run(rps);
    ASSERT_GT(straight.finishedAt, 0);

    // A third of the way in, every channel still has arrivals ahead of
    // it, so the timed prefix is a pure slice of the straight drain.
    const NodeCheckpoint ck =
        driver.runToCheckpoint(rps, straight.finishedAt / 3);
    EXPECT_EQ(ck.channels.size(), 4u);
    const NodeResult resumed = driver.resume(ck);

    EXPECT_EQ(resumed.finishedAt, straight.finishedAt);
    EXPECT_EQ(resumed.offeredRps, straight.offeredRps);
    EXPECT_EQ(resumed.achievedRps, straight.achievedRps);
    EXPECT_TRUE(resumed.aggregate == straight.aggregate)
        << "resumed cube aggregate diverged from the straight run";
    const auto& straight_ch = straight.perCube.at(0).perChannel;
    const auto& resumed_ch = resumed.perCube.at(0).perChannel;
    ASSERT_EQ(resumed_ch.size(), straight_ch.size());
    for (std::size_t ch = 0; ch < straight_ch.size(); ++ch) {
        EXPECT_TRUE(resumed_ch[ch] == straight_ch[ch])
            << "channel " << ch << " diverged across save/restore";
    }
}

TEST(Checkpoint, ServingResumeWithRomeCube)
{
    const DramConfig dram = hbm4Config();
    ServingConfig cfg;
    cfg.numChannels = 4;
    cfg.threads = 2;
    cfg.makeController = [&dram] {
        return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                        RomeMcConfig{});
    };
    cfg.makeSystemSource = [] {
        RandomPattern p;
        p.seed = 79;
        p.requestBytes = 4_KiB;
        p.totalBytes = 1_MiB;
        p.capacity = hbm4Config().org.channelCapacity();
        return std::make_unique<RandomSource>(p);
    };
    const ServingDriver cube(cfg);
    const NodeDriver& driver = cube.node();
    const double rps = 2.0e6;

    const NodeResult straight = driver.run(rps);
    ASSERT_GT(straight.finishedAt, 0);
    const NodeCheckpoint ck =
        driver.runToCheckpoint(rps, straight.finishedAt / 3);
    const NodeResult resumed = driver.resume(ck);

    EXPECT_EQ(resumed.finishedAt, straight.finishedAt);
    EXPECT_TRUE(resumed.aggregate == straight.aggregate)
        << "rome cube resume diverged from the straight run";
}

TEST(Checkpoint, ReaderRejectsTrailingBytes)
{
    CheckpointWriter w;
    w.putU64(7);
    w.putStr("abc");
    auto blob = w.take();
    {
        CheckpointReader r(blob);
        EXPECT_EQ(r.getU64(), 7u);
        EXPECT_EQ(r.getStr(), "abc");
        r.finish(); // exact consumption: fine
    }
    {
        CheckpointReader r(blob);
        EXPECT_EQ(r.getU64(), 7u);
        EXPECT_THROW(r.finish(), std::runtime_error);
    }
}

} // namespace
} // namespace rome
