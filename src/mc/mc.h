/**
 * @file
 * Conventional HBM4 memory controller (paper §II-D, Figure 4).
 *
 * Components: address mapping, CAM-style read/write request queues holding
 * cache-line-sized column operations, per-bank state logic, an FR-FCFS
 * command scheduler with open/close/adaptive page policies and age-based
 * QoS, and a per-bank refresh scheduler with bounded postponing.
 *
 * Two scheduler implementations produce bit-identical command streams:
 *
 *  - The *indexed* scheduler (default) keeps the queued column ops as
 *    runs: a pooled node holds a maximal set of consecutive ops of one
 *    bank queue with the same ticket (one request, or one ECC re-read),
 *    row and kind and consecutive columns, as the head op plus (count,
 *    head seq, seq stride), and is linked into its bank's per-queue FIFO
 *    list. Admission decodes one line per lane, steps the others'
 *    columns (AddressMapping::stepColumn) and extends the list's tail run
 *    in O(1); a CAS consumes a run's head op, and the node leaves its
 *    list only when the run empties. Per-bank summaries (queued-op
 *    counts, open-row hit counts, hit representatives, oldest-arrival
 *    bounds) count ops and are maintained incrementally on
 *    admit/issue/row change/sparing. One per-bank sync after each change
 *    keeps two rank-ordered candidate structures current: per pseudo
 *    channel, a list of the banks' RD and WR hit representatives sorted
 *    in tie-break order, and a worklist of the banks that can emit a row
 *    command (closed with work, or open with a conflicting op). A step
 *    probes each PC's CAS list only until no later entry can win, walks
 *    the row worklist, then offers the refresh candidates, tracking the
 *    running best with floor-based probe pruning — zero heap allocation
 *    in steady state.
 *
 *  - The *legacy* scheduler (McConfig::legacyScheduler) is the seed
 *    FR-FCFS loop that rebuilds its whole candidate set from the flat
 *    queues every step. It is retained as the decision-order oracle: the
 *    parity tests assert equal ControllerStats, command streams and
 *    completion logs between the two, and recorded golden digests pin
 *    the indexed scheduler in builds without the oracle.
 *
 * The controller drives one ChannelDevice; every command it emits is
 * re-validated by the device against the full timing rule set.
 *
 * Host-request admission, in-flight/completion accounting, the
 * runUntil/drain loop and the read-recovery path (ECC retry, sparing,
 * scrub) live in ChannelControllerBase (sim/engine.h), which the RoMe
 * controller shares; this class supplies the column-granularity
 * scheduling, its fault geometry and the walk over its queued ops.
 */

#ifndef ROME_MC_MC_H
#define ROME_MC_MC_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/device.h"
#include "dram/hbm4_config.h"
#include "mc/addrmap.h"
#include "mc/complexity.h"
#include "mc/request.h"
#include "sim/engine.h"

namespace rome
{

/** Row-buffer management policy (§II-D). */
enum class PagePolicy { Open, Close, Adaptive };

/** Scheduler knobs of the conventional MC. */
struct McConfig
{
    /**
     * Column-op entries in the read queue. The paper (like Ramulator,
     * which models each pseudo channel as an independent controller) uses
     * 64 per PC; this controller serves both PCs of a channel.
     */
    int readQueueDepth = 128;
    /** Column-op entries in the write queue. */
    int writeQueueDepth = 128;
    PagePolicy pagePolicy = PagePolicy::Open;
    /** Drain writes above this occupancy fraction. */
    double writeHighWatermark = 0.9;
    /** Stop draining below this occupancy fraction. */
    double writeLowWatermark = 0.05;
    /** Enable the refresh scheduler. */
    bool refreshEnabled = true;
    /** Ops older than this get absolute priority (QoS, §II-D). */
    Tick agePriorityThreshold = ticksFromNs(static_cast<std::int64_t>(5000));
    /** Adaptive policy: precharge an idle open row after this long. */
    Tick adaptiveIdleTimeout = ticksFromNs(static_cast<std::int64_t>(100));
    /**
     * Use the seed's rescan-everything scheduler instead of the
     * incremental per-bank index. Decisions are bit-identical; this exists
     * as the parity oracle and as the baseline of bench_sched_hotpath.
     * Test-only: builds configured with -DROME_ORACLES=OFF compile the
     * oracle out and reject this flag at construction.
     */
    bool legacyScheduler = false;
    /**
     * Fault injection + ECC/recovery (sim/fault.h). The conventional
     * stack evaluates one SEC-DED codeword per 32 B line, so each read
     * CAS is classified independently; the retry/sparing policy is the
     * one ChannelControllerBase::recoverRead applies to both stacks.
     * Disabled by default; when disabled the scheduling path is
     * bit-identical to a faultless build.
     */
    FaultConfig faults;
    /**
     * Opt-in observability (sim/telemetry.h): stall-cause attribution,
     * latency breakdown, time-series sampling. Off (the default) keeps
     * the controller bit-identical and allocation-free.
     */
    TelemetryConfig telemetry;
};

/** Conventional column-granularity memory controller for one channel. */
class ConventionalMc : public ChannelControllerBase
{
  public:
    ConventionalMc(const DramConfig& cfg, AddressMapping mapping,
                   McConfig mc_cfg);

    std::string name() const override { return "hbm4"; }

    const ChannelDevice& device() const override { return dev_; }
    const AddressMapping& mapping() const { return map_; }
    const McConfig& config() const { return cfg_; }

    // ---- Statistics ----------------------------------------------------
    /** Achieved data bandwidth over [0, now] in bytes/ns. */
    double achievedBandwidth() const;
    /** Fraction of column ops that hit an open row. */
    double rowHitRate() const;
    /** Read-queue occupancy sampled at each issued command. */
    const Accumulator& readQueueOccupancy() const { return readQOcc_; }
    /** The write-drain hysteresis is currently draining writes. */
    bool drainingWrites() const { return drainingWrites_; }
    /** Re-reads waiting out their ECC retry backoff. */
    std::size_t pendingRetries() const { return retryQ_.size(); }

    /** Table IV introspection. */
    McComplexity complexity() const override;

    ControllerStats stats() const override;

    /**
     * Checkpoint the full mutable controller + device state (queued op
     * runs with their per-bank list links, refresh rotations, retry/fault
     * state, statistics). Restore range- and consistency-checks every
     * restored index, op address and run (fatal on a bad one), rebuilds the
     * derived scheduling index, and then continues bit-identically to a
     * run that never checkpointed (every ControllerStats field compared
     * by operator==). The restore target must be constructed with the
     * same DramConfig / mapping / McConfig.
     */
    void saveCheckpoint(CheckpointWriter& w) const override;
    void restoreCheckpoint(CheckpointReader& r) override;

  private:
    /** One cache-line-sized column operation. */
    struct Op : OpTicket
    {
        DramAddress addr;
        ReqKind kind = ReqKind::Read;
    };

    /** Per-(PC, SID) refresh rotation state (cursor walks the banks). */
    struct RefreshUnit
    {
        int pc;
        int sid;
        RefreshRotation rot;
    };

    /** A schedulable command candidate. */
    struct Candidate
    {
        Command cmd;
        Tick earliest;
        /** Cheap lower bound on earliest (ChannelDevice::casFloor etc.);
         *  lets the indexed scheduler skip exact probes that cannot win. */
        Tick floor = 0;
        int priority;     // smaller = more urgent
        Tick age;         // older first among equals
        /** Legacy: index into the flat queue. Indexed: pool node id. */
        int opIndex = -1;
        bool isWrite = false;
        bool isRefresh = false;
        int refreshUnit = -1;
        /**
         * Final tie-break, encoding the legacy candidate collection order:
         * category (refresh < read op < write op < idle-PRE) then the
         * in-category index (refresh-unit index, op admission sequence, or
         * flat bank index). Unique per candidate, so the indexed
         * scheduler's running-best selection reproduces the legacy
         * first-encountered-wins result exactly.
         */
        int rankCat = 0;
        std::uint64_t rankIdx = 0;
    };

    // ---- incremental per-bank scheduling index -------------------------

    /**
     * Pooled node of one run of queued ops, linked into its bank's FIFO
     * list. Op i of the run (0 = head) is `op` with column op.addr.col + i
     * and admission seq `seq + i * seqStride`; the ops share every other
     * field, so the head's (arrival, read/write, seq) key is exactly the
     * one its op would have on its own.
     */
    struct OpNode
    {
        Op op;                 ///< the run's head op
        std::uint64_t seq = 0; ///< head admission order (== flat-queue pos)
        int count = 1;         ///< ops in the run, >= 1
        int seqStride = 0;     ///< seq gap between consecutive ops
        int bank = -1;         ///< flat bank index
        int prev = -1;
        int next = -1;
    };

    /**
     * A bank's RD or WR hit representative as listed in its PC's CAS
     * list. The static key (arrival, read before write, seq) orders CAS
     * candidates exactly as candRankLess does: an op is aged iff its
     * arrival < now - threshold, so the aged ones form a prefix.
     */
    struct CasEntry
    {
        Tick arrival = 0;
        std::uint64_t seq = 0;
        int node = -1;
        int bank = -1;
        bool isWrite = false;

        bool
        operator<(const CasEntry& o) const
        {
            if (arrival != o.arrival)
                return arrival < o.arrival;
            if (isWrite != o.isWrite)
                return !isWrite;
            return seq < o.seq;
        }
    };

    /** One bank's per-queue FIFO list of runs plus its incremental
     *  summary (counts are ops, not runs). */
    struct BankList
    {
        int head = -1;
        int tail = -1;
        int count = 0;
        /** Ops hitting the currently open row (meaningful while open). */
        int hitCount = 0;
        /** Run holding the min-(arrival, seq) hit op — the bank's best
         *  CAS candidate is its head. */
        int hitRep = -1;
        /**
         * Lower bound on the oldest arrival queued here (aged-QoS gate);
         * exactly the head's arrival while the list is ordered.
         */
        Tick minArrivalLb = kTickMax;
        /**
         * Arrivals are non-decreasing in list (= admission) order, so the
         * hit rep is the first hit run in list order and, once the run
         * empties, its successor is found walking forward from it.
         * Cleared by an out-of-order insert (an ECC retry re-admission),
         * set again when the list empties; while cleared, losing the rep
         * rescans the list.
         */
        bool ordered = true;
        /** The CAS-list entry of hitRep, when one is listed. */
        bool listed = false;
        CasEntry entry;
    };

    /** Per-bank index entry. */
    struct BankEntry
    {
        BankList read;
        BankList write;
        int rowPos = -1;  ///< position in rowBanks_, -1 when absent
        int openPos = -1; ///< position in openBanks_, -1 when closed
        DramAddress addr; ///< bank coordinates (row/col unused)
    };

    bool admitOps() override;
    std::uint64_t
    admissionChunkBytes() const override
    {
        return dramCfg_.org.columnBytes;
    }
    bool stepOnce(Tick until) override;

    void installCommandTrace() override { dev_.setTrace(commandSpanTrace()); }

    // ---- shared helpers ------------------------------------------------
    void updateWriteDrain();
    std::size_t readQueueSize() const;
    std::size_t writeQueueSize() const;
    void completeOp(const Op& op, Tick data_end);
    int pendingRefreshCount(const RefreshUnit& u) const;
    bool refreshBlocked(const DramAddress& a) const;
    /** When an idle controller next wakes, and the stall that wake term
     *  stands for. */
    struct IdleWake
    {
        Tick at = kTickMax;
        StallCause cause = StallCause::NoRequest;
    };
    IdleWake idleWakeTick(Tick adaptive_next) const;

    // ---- reliability: the base's recovery path over this stack's ops ---
    /** One codeword per 32 B line; fault domains are flat banks. */
    FaultSite
    faultSite(Op& op) const
    {
        return {flatBankIndex(dramCfg_.org, op.addr), &op.addr.row,
                op.addr.col, 1};
    }
    /** Re-admit retries whose backoff expired (read-queue space
     *  permitting). */
    void pumpRetries();
    void respareQueued(const SpareEvent& ev) override;

    /** Physical address of @p line: stepped from its admission lane's
     *  previous line when only the column moved, else decoded. */
    DramAddress lineAddress(std::uint64_t line);
    /** @p a with its row remapped to a spare when faults are on. */
    DramAddress physicalAddress(DramAddress a) const;

    // ---- indexed scheduler ---------------------------------------------
    bool stepOnceIndexed(Tick until);
    /** Queue @p op: extend its list's tail run, or start a new one. */
    void insertOpIndexed(const Op& op);
    /** Consume the head op of run @p node (its CAS issued). */
    void removeHeadOp(int node);
    /** Rebuild a bank's hit summaries after its open row changed. */
    void reindexBankRow(int bank);
    void rescanList(BankList& l, int open_row);
    /** Bring a list's entry in its PC's CAS list up to date. */
    void syncCasEntry(BankList& l, int bank, bool is_write);
    /** Add or drop the bank from the row-command worklist. */
    void syncRowWork(int bank);
    /** First aged conflicting op in read-then-write seq order, or -1. */
    int agedConflictRep(const BankEntry& e, bool any_write, int open_row,
                        bool& rep_is_write);
    void noteBankOpened(int bank);
    void noteBankClosed(int bank);
    void applyRowCommand(const Command& cmd);
    /** Earliest due tick over the refresh units (kTickMax when none). */
    void updateRefreshDue();
    /** Validate the restored op lists, then rebuild every derived index. */
    void rebuildIndex();
    static bool candBeats(const Candidate& a, const Candidate& b);
    static bool candRankLess(const Candidate& a, const Candidate& b);

    // ---- legacy scheduler (decision-order oracle) ----------------------
    bool stepOnceLegacy(Tick until);
    void collectRefreshCandidates(std::vector<Candidate>& out) const;
    void collectOpCandidates(std::vector<Candidate>& out) const;

    DramConfig dramCfg_;
    AddressMapping map_;
    McConfig cfg_;
    ChannelDevice dev_;

    /**
     * Admission lanes (line mod the mapping's column stride, when that
     * stride is at most kMaxLanes): the last line admitted on each and its
     * physical address. A lane's next line only advances the column, so
     * it is stepped, not decoded. Cleared by sparing (the row is
     * physical) and on restore; not checkpointed.
     */
    static constexpr std::uint64_t kNoLine = 1ULL << 63;
    static constexpr std::uint64_t kMaxLanes = 64;
    struct Lane
    {
        std::uint64_t line = kNoLine;
        DramAddress addr;
    };
    std::vector<Lane> lanes_;

    // Legacy flat queues (used only when cfg_.legacyScheduler).
    std::vector<Op> readQ_;
    std::vector<Op> writeQ_;

    // Indexed scheduler state (used otherwise). Only the pool and the
    // list links are checkpointed; the rest is rebuilt on restore.
    std::vector<OpNode> pool_;
    std::vector<int> freeNodes_;
    std::vector<BankEntry> bankIx_;
    /** Per PC: the banks' hit representatives, sorted by CasEntry key. */
    std::vector<std::vector<CasEntry>> casLists_;
    /** Banks that can emit a row command: closed with queued work, or
     *  open with a queued op conflicting with the open row. */
    std::vector<int> rowBanks_;
    std::vector<int> openBanks_; ///< banks the MC holds open
    /** Per-step scratch: per refresh unit the cursor bank when its
     *  refresh is forced (else -1), and the refresh candidates. */
    std::vector<int> unitForcedBank_;
    std::vector<Candidate> refreshCands_;
    /** Earliest refresh due tick; the refresh loop is skipped before it. */
    Tick refreshDue_ = kTickMax;
    std::uint64_t admitSeq_ = 0;
    int readCount_ = 0;
    int writeCount_ = 0;

    /** CAM entries of issued-but-incomplete column ops (count against
     *  queue depth until their data transfers). */
    OutstandingOps readOutstanding_;
    OutstandingOps writeOutstanding_;
    bool drainingWrites_ = false;
    std::vector<RefreshUnit> refreshUnits_;

    /** Deferred re-reads waiting out their ECC retry backoff. */
    RetryQueue<Op> retryQ_{[this](Op& op) { return faultSite(op); }};

    std::uint64_t casIssued_ = 0;
    Accumulator readQOcc_;
};

} // namespace rome

#endif // ROME_MC_MC_H
