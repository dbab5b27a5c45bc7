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
#include "common/random.h"
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
        // A checkpoint is a pure function of the run: the twin saved at a
        // later tick matches the original saved there.
        const Tick later = mid + (end - mid) / 2;
        a->runUntil(later);
        b->runUntil(later);
        EXPECT_EQ(saveControllerCheckpoint(*b), saveControllerCheckpoint(*a))
            << label << ": resumed blob diverged (mid=" << mid << ")";
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
        const Tick later = mid + (end - mid) / 2;
        a->runUntil(later);
        b->runUntil(later);
        EXPECT_EQ(saveControllerCheckpoint(*b), saveControllerCheckpoint(*a))
            << label << ": resumed streaming blob diverged (mid=" << mid
            << ")";
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

/** Little-endian i32 at @p at in @p blob. */
std::int32_t
getI32At(const std::vector<std::uint8_t>& blob, std::size_t at)
{
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k)
        v |= static_cast<std::uint32_t>(blob[at + static_cast<std::size_t>(k)])
             << (8 * k);
    return static_cast<std::int32_t>(v);
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

/**
 * Where @p mc's device state sits in its checkpoint @p blob, as the
 * offset of its first byte (blob.size() when it is missing or not
 * unique); @p dev receives the device state itself.
 */
std::size_t
findDeviceState(const std::vector<std::uint8_t>& blob,
                const ChannelControllerBase& mc,
                std::vector<std::uint8_t>& dev)
{
    CheckpointWriter w;
    mc.device().saveState(w);
    dev = w.take();
    const auto found = std::search(blob.begin(), blob.end(), dev.begin(),
                                   dev.end());
    if (found == blob.end() ||
        std::search(found + 1, blob.end(), dev.begin(), dev.end()) !=
            blob.end())
        return blob.size();
    return static_cast<std::size_t>(found - blob.begin());
}

/** Offset just past @p mc's device state in @p blob. */
std::size_t
deviceEnd(const std::vector<std::uint8_t>& blob,
          const ChannelControllerBase& mc)
{
    std::vector<std::uint8_t> dev;
    const std::size_t at = findDeviceState(blob, mc, dev);
    EXPECT_LT(at, blob.size()) << "device state not found once in the blob";
    return at < blob.size() ? at + dev.size() : blob.size();
}

/** A request record: the request (id u64, kind u8, addr/size u64,
 *  arrival/link i64), ops left i32, poisoned u8, first issue and retry
 *  ticks i64. */
constexpr std::size_t kRecordBytes = 62;
constexpr std::size_t kRecordOpsLeft = 41;

/**
 * The conventional controller's op pool, which follows its device state:
 * the legacy read and write queues (empty with the indexed scheduler),
 * then the pool nodes and the free-node list. A node is the head op
 * (address 6 x i32, slot i32, kind u8, attempt i32), head seq u64, then
 * run count, seq stride, bank, prev and next as i32.
 */
struct Hbm4Pool
{
    static constexpr std::size_t kNodeBytes = 61;
    static constexpr std::size_t kSlot = 24;
    static constexpr std::size_t kSeq = 33;
    static constexpr std::size_t kCount = 41;
    static constexpr std::size_t kStride = 45;
    static constexpr std::size_t kBank = 49;
    static constexpr std::size_t kPrev = 53;
    static constexpr std::size_t kNext = 57;

    std::size_t first = 0;      ///< offset of node 0
    std::vector<bool> isFree;   ///< per node

    std::size_t node(int i) const
    {
        return first + kNodeBytes * static_cast<std::size_t>(i);
    }
};

Hbm4Pool
walkHbm4Pool(const std::vector<std::uint8_t>& blob, std::size_t dev_end)
{
    constexpr std::size_t kLegacyOpBytes = 33;
    std::size_t at = dev_end;
    for (int q = 0; q < 2; ++q)
        at += 8 + kLegacyOpBytes * getU64At(blob, at);
    Hbm4Pool p;
    const std::uint64_t nodes = getU64At(blob, at);
    p.first = at + 8;
    at = p.node(static_cast<int>(nodes));
    p.isFree.assign(nodes, false);
    const std::uint64_t nfree = getU64At(blob, at);
    for (std::uint64_t i = 0; i < nfree; ++i)
        p.isFree.at(static_cast<std::size_t>(
            getI32At(blob, at + 8 + 4 * i))) = true;
    return p;
}

/** RoMe row op: kind u8, sid/vba/row i32, slot i32, useful bytes u64,
 *  attempt i32. */
constexpr std::size_t kRowOpBytes = 29;
constexpr std::size_t kRowOpSlot = 13;

/** Offset of RoMe's first queued row op: past the device state, the
 *  command generator's three counters and the queue's length. */
std::size_t
romeQueue(std::size_t dev_end)
{
    return dev_end + 24 + 8;
}

TEST(Checkpoint, CorruptedOpListIndexIsFatal)
{
    // Two queued reads to one bank form a two-node op list, the pool's
    // only nodes; every single corrupted link or bank index must be
    // refused on restore.
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

    // Node i holds request i's op (slot i); bank, prev and next follow.
    const Hbm4Pool pool = walkHbm4Pool(blob, deviceEnd(blob, *mc));
    ASSERT_EQ(pool.isFree.size(), 2u);
    const auto field = [&pool](int node, int which) {
        return pool.node(node) + Hbm4Pool::kBank +
               4 * static_cast<std::size_t>(which);
    };
    const std::size_t n0 = 0;
    const std::size_t n1 = 1;
    ASSERT_EQ(getI32At(blob, pool.node(0) + Hbm4Pool::kSlot), 0);
    ASSERT_EQ(getI32At(blob, pool.node(1) + Hbm4Pool::kSlot), 1);
    ASSERT_EQ(getI32At(blob, field(n0, 0)), bank);
    ASSERT_EQ(getI32At(blob, field(n0, 1)), -1);
    ASSERT_EQ(getI32At(blob, field(n0, 2)), 1);
    ASSERT_EQ(getI32At(blob, field(n1, 1)), 0);

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
    std::vector<std::uint8_t> dev;
    const std::size_t base = findDeviceState(blob, *mc, dev);
    ASSERT_LT(base, blob.size())
        << label << ": device blob not found once in the checkpoint";
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

    // Nodes are taken in admission order: request 0's eight runs are
    // nodes 0-7, request 1's nodes 8-15, so each request's run in the
    // bank of line 0 is node 0 or node 8.
    const Hbm4Pool pool = walkHbm4Pool(blob, deviceEnd(blob, *mc));
    ASSERT_EQ(pool.isFree.size(), 16u);
    const std::size_t a = pool.node(0);
    const std::size_t b = pool.node(8);
    ASSERT_EQ(getI32At(blob, a + Hbm4Pool::kSlot), 0);
    ASSERT_EQ(getI32At(blob, b + Hbm4Pool::kSlot), 1);
    const auto get_i32 = [&blob](std::size_t at) {
        return getI32At(blob, at);
    };
    const auto seq_at = [](std::size_t n) { return n + Hbm4Pool::kSeq; };
    const auto count_at = [](std::size_t n) { return n + Hbm4Pool::kCount; };
    const auto stride_at = [](std::size_t n) {
        return n + Hbm4Pool::kStride;
    };
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

TEST(Checkpoint, CorruptedRomeRecordsAreFatal)
{
    // A read to a stuck row waits out a long ECC retry backoff, a second
    // read is still queued behind the Table III gap, and a two-row write
    // arriving later sits in the host window. Their records are found in
    // the blob by request id (slots 0, 1 and 2); the queued op follows
    // the device state, and the refresh rotation and the VBA state table
    // are located from the retry queue, the blob's last variable section.
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

    // The last record is the hosted write's; the host window (count u64,
    // one slot i32) and the admission chunk u64 follow it.
    ASSERT_EQ(findU64(blob, retried, 1) + 2 * kRecordBytes,
              findU64(blob, queued, 1) + kRecordBytes);
    const std::size_t host_req = findU64(blob, hosted, 1);
    ASSERT_LT(host_req, blob.size());
    const std::size_t ops_left = host_req + kRecordOpsLeft;
    const std::size_t host_window = host_req + kRecordBytes;
    const std::size_t front_chunk = host_window + 12;
    ASSERT_EQ(blob[ops_left], 2);
    ASSERT_EQ(getU64At(blob, host_window), 1u);
    ASSERT_EQ(getI32At(blob, host_window + 8), 2);
    ASSERT_EQ(getU64At(blob, front_chunk), 0u);
    const std::size_t queued_op = romeQueue(deviceEnd(blob, *mc));
    ASSERT_EQ(getU64At(blob, queued_op - 8), 1u);
    ASSERT_EQ(getI32At(blob, queued_op + kRowOpSlot), 1);
    // Retry queue: count, then its one (op, ready tick), then its next
    // retry tick, the overfetch counter and two i32 high-water marks end
    // the blob. Before it the refresh rotation (interval i64, due i64,
    // cursor i32), and before that the last-command record (tick i64,
    // write u8, sid i32, then a present VBA: u8 + three i32) after the
    // per-VBA state bytes.
    const std::size_t retry_count = blob.size() - 24 - kRowOpBytes - 16;
    const std::size_t retry_op = retry_count + 8;
    ASSERT_EQ(getU64At(blob, retry_count), 1u);
    ASSERT_EQ(getI32At(blob, retry_op + kRowOpSlot), 0);
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

/**
 * A checkpoint taken with a multi-op request in flight next to a freed
 * slot: request 0 (one op) has completed, request 1's ops are queued
 * (some may still wait for admission) and request 2 waits in the host
 * window. Slots are handed out in enqueue order, so the table holds
 * slot 0 free and the live records 1 and 2.
 */
struct InFlightBlob
{
    std::vector<std::uint8_t> blob;
    std::size_t rec1 = 0;     ///< request 1's record
    std::size_t hostSlot = 0; ///< the host window's first slot (i32)
    /** Slot fields (i32) of request 1's queued ops. */
    std::vector<std::size_t> opSlots;
};

template <typename Mc, typename FindOpSlots>
InFlightBlob
inFlightBlob(Mc& mc, std::uint64_t op_bytes, FindOpSlots find_op_slots)
{
    const std::uint64_t id0 = 0x51075107c0de0001ull;
    const std::uint64_t id1 = 0x51075107c0de0002ull;
    const std::uint64_t id2 = 0x51075107c0de0003ull;
    mc.enqueue({id0, ReqKind::Read, 0, op_bytes, 0});
    mc.enqueue({id1, ReqKind::Read, 64 * op_bytes, 16 * op_bytes, 0});
    mc.enqueue({id2, ReqKind::Write, 128 * op_bytes, 2 * op_bytes, 1_ms});
    for (Tick t = 0; mc.completions().empty() && t < 1_ms; t += 1_ns)
        mc.runUntil(t);
    EXPECT_EQ(mc.completions().size(), 1u);
    EXPECT_EQ(mc.completions().front().id, id0);

    InFlightBlob f;
    f.blob = saveControllerCheckpoint(mc);
    f.rec1 = findU64(f.blob, id1, 1);
    const std::size_t rec2 = findU64(f.blob, id2, 1);
    EXPECT_EQ(rec2, f.rec1 + kRecordBytes);
    // Slot count and free list (count, slot 0) precede the records; the
    // host window (count, slots) follows them.
    EXPECT_EQ(getU64At(f.blob, f.rec1 - 20), 3u);
    EXPECT_EQ(getU64At(f.blob, f.rec1 - 12), 1u);
    EXPECT_EQ(getI32At(f.blob, f.rec1 - 4), 0);
    f.hostSlot = rec2 + kRecordBytes + 8;
    EXPECT_GE(getU64At(f.blob, f.hostSlot - 8), 1u);
    f.opSlots = find_op_slots(f.blob);
    return f;
}

/**
 * Corrupt one request-record field or op slot at a time and expect
 * restore to refuse each; then flip single bytes of the intact blob at
 * seeded random offsets, where restore may succeed or fatal but must
 * never panic or crash.
 */
template <typename MakeMc>
void
expectCorruptRecordsAreFatal(MakeMc make, const InFlightBlob& f,
                             const std::string& label)
{
    ASSERT_FALSE(f.opSlots.empty()) << label << ": no queued op in flight";
    const int ops_left = getI32At(f.blob, f.rec1 + kRecordOpsLeft);
    ASSERT_GE(ops_left, 2) << label;
    {
        auto twin = make();
        restoreControllerCheckpoint(*twin, f.blob); // the intact blob loads
        EXPECT_EQ(saveControllerCheckpoint(*twin), f.blob) << label;
    }
    const auto i32 = [](std::int64_t v) {
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    };
    struct Mutation
    {
        const char* what;
        std::size_t at;
        std::uint64_t value;
    };
    const std::size_t op = f.opSlots.front();
    const Mutation mutations[] = {
        {"op slot past the table", op, 3},
        {"negative op slot", op, i32(-1)},
        {"op slot far out of range", op, i32(1 << 30)},
        {"op slot of a free entry", op, 0},
        {"op slot of another live record", op, 2},
        {"record op count + 1", f.rec1 + kRecordOpsLeft, i32(ops_left + 1)},
        {"record op count - 1", f.rec1 + kRecordOpsLeft, i32(ops_left - 1)},
        {"host-window slot free", f.hostSlot, 0},
        {"host-window slot past the table", f.hostSlot, 3},
    };
    for (const Mutation& m : mutations) {
        auto bad = f.blob;
        putAt(bad, m.at, m.value, 4);
        auto twin = make();
        EXPECT_THROW(restoreControllerCheckpoint(*twin, bad),
                     std::runtime_error)
            << label << ": " << m.what;
    }

    Rng rng(0xf11b5eedULL);
    int refused = 0;
    constexpr int kFlips = 2000;
    for (int i = 0; i < kFlips; ++i) {
        auto bad = f.blob;
        const std::size_t at = rng.below(bad.size());
        bad[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        auto twin = make();
        try {
            restoreControllerCheckpoint(*twin, bad);
        } catch (const std::runtime_error&) {
            ++refused; // fatal: refused cleanly
        } catch (const std::exception& e) {
            ADD_FAILURE() << label << ": flipping byte " << at
                          << " escaped restore: " << e.what();
        }
    }
    EXPECT_GT(refused, 0) << label;
}

TEST(Checkpoint, CorruptedRequestRecordsAreFatal)
{
    const DramConfig dram = hbm4Config();
    {
        const auto make = [&] {
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), McConfig{});
        };
        auto mc = make();
        const InFlightBlob f = inFlightBlob(
            *mc, dram.org.columnBytes, [&](const auto& blob) {
                std::vector<std::size_t> slots;
                const Hbm4Pool pool =
                    walkHbm4Pool(blob, deviceEnd(blob, *mc));
                for (int n = 0; n < static_cast<int>(pool.isFree.size());
                     ++n) {
                    const std::size_t at = pool.node(n) + Hbm4Pool::kSlot;
                    if (!pool.isFree[static_cast<std::size_t>(n)] &&
                        getI32At(blob, at) == 1)
                        slots.push_back(at);
                }
                return slots;
            });
        expectCorruptRecordsAreFatal(make, f, "hbm4");
    }
    {
        const auto make = [&] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                            RomeMcConfig{});
        };
        auto mc = make();
        const InFlightBlob f = inFlightBlob(
            *mc, mc->vbaMap().effectiveRowBytes(), [&](const auto& blob) {
                std::vector<std::size_t> slots;
                const std::size_t first =
                    romeQueue(deviceEnd(blob, *mc));
                const std::uint64_t n = getU64At(blob, first - 8);
                for (std::uint64_t i = 0; i < n; ++i) {
                    const std::size_t at = first + kRowOpBytes * i +
                                           kRowOpSlot;
                    if (getI32At(blob, at) == 1)
                        slots.push_back(at);
                }
                return slots;
            });
        expectCorruptRecordsAreFatal(make, f, "rome");
    }
}

TEST(Checkpoint, CorruptedHybridRequestKindIsFatal)
{
    // A streaming hybrid mid-run holds requests of its own: staged for
    // the sibling partition or peeked by a partition feed. They follow
    // both partitions' states in the blob and share the host requests'
    // codec, so a bad kind byte is refused.
    const DramConfig dram = hbm4Config();
    const auto reqs = hybridWorkload();
    HybridMc mc(dram, HybridConfig{});
    ReplaySource src(reqs);
    mc.bindSource(&src);
    mc.runUntil(2_us);
    const auto blob = saveControllerCheckpoint(mc);

    CheckpointWriter parts;
    mc.romePartition().saveCheckpoint(parts);
    mc.finePartition().saveCheckpoint(parts);
    // Envelope: magic u32, version u32, then the name string.
    std::size_t at = 4 + 4 + 8 + mc.name().size() + parts.data().size();
    std::vector<std::size_t> held;
    for (int side = 0; side < 2; ++side) {
        const std::uint64_t n = getU64At(blob, at);
        at += 8;
        for (std::uint64_t i = 0; i < n; ++i, at += 41)
            held.push_back(at);
    }
    at += 8 + 8 + 1; // staging peak, pulled count, had-source flag
    for (int feed = 0; feed < 2; ++feed) {
        if (blob.at(at++) != 0) {
            held.push_back(at);
            at += 41;
        }
        ++at; // ended flag
    }
    ASSERT_EQ(at, blob.size());
    ASSERT_FALSE(held.empty()) << "no staged or peeked request to corrupt";

    {
        HybridMc twin(dram, HybridConfig{});
        restoreControllerCheckpoint(twin, blob); // the intact blob loads
    }
    for (const std::size_t req : held) {
        for (const std::uint8_t kind : {std::uint8_t{2}, std::uint8_t{0xff}}) {
            auto bad = blob;
            bad[req + 8] = kind;
            HybridMc twin(dram, HybridConfig{});
            EXPECT_THROW(restoreControllerCheckpoint(twin, bad),
                         std::runtime_error)
                << "kind " << int{kind} << " at " << req;
        }
    }
}

TEST(Checkpoint, CorruptedTimeSeriesIsFatal)
{
    // The time-series ring's capacity is configuration: a blob claiming
    // another one, or more samples than the ring holds, is refused before
    // anything is reserved for it. The series state is found by its
    // distinctive sample period, longer than the run, so the next sample
    // boundary still equals it: period, next boundary, capacity, count.
    const DramConfig dram = hbm4Config();
    McConfig cfg;
    cfg.telemetry.counters = true;
    cfg.telemetry.samplePeriod = 0x5e71e5;
    const auto make = [&] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), cfg);
    };
    auto mc = make();
    enqueueAll(*mc, mixedWorkload(359, 0.3));
    mc->runUntil(3_us);
    const auto blob = saveControllerCheckpoint(*mc);
    const std::size_t period = findU64(blob, 0x5e71e5, 2);
    ASSERT_LT(period, blob.size());
    ASSERT_EQ(getU64At(blob, period + 8), 0x5e71e5u);
    const std::size_t capacity = period + 16;
    ASSERT_EQ(getI32At(blob, capacity), cfg.telemetry.sampleCapacity);
    {
        auto twin = make();
        restoreControllerCheckpoint(*twin, blob); // the intact blob loads
    }
    struct Mutation
    {
        const char* what;
        std::size_t at;
        std::uint64_t value;
        int width;
    };
    const Mutation mutations[] = {
        {"capacity of 2^30 slots", capacity, 1u << 30, 4},
        {"capacity below the configured one", capacity, 4, 4},
        {"more samples than the ring holds", capacity + 4,
         static_cast<std::uint64_t>(cfg.telemetry.sampleCapacity) + 1, 8},
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
    {
        // A string length that would wrap the read position around.
        CheckpointWriter huge;
        huge.putU64(~0ull - 3);
        huge.putU64(0);
        const auto bytes = huge.take();
        CheckpointReader r(bytes);
        EXPECT_THROW(r.getStr(), std::runtime_error);
    }
}

} // namespace
} // namespace rome
