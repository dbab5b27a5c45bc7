/**
 * @file
 * The shared channel-simulation engine and the polymorphic controller
 * interface both memory-controller stacks implement.
 *
 * Layering: this header sits *below* mc/ and rome/ — it depends only on
 * the common substrate, the DRAM device, and the request/complexity value
 * types. The concrete controllers (ConventionalMc, RomeMc, HybridMc)
 * implement IMemoryController; everything above them (sim drivers, bench
 * harnesses, examples, tests) drives controllers exclusively through this
 * interface via ChannelSimEngine, so a new scheduler or a new memory
 * system plugs into every harness by adding one factory.
 *
 * Components:
 *  - IMemoryController: enqueue / runUntil(tick) / drain / stats /
 *    complexity — the full contract of a per-channel controller.
 *  - ControllerStats: one flat, comparable snapshot of everything the
 *    harnesses consume (bytes, commands, bandwidths, latency, overfetch).
 *  - ChannelControllerBase: the code that used to be duplicated between
 *    src/mc/mc.cc and src/rome/rome_mc.cc — host-request admission, one
 *    record per request from enqueue to completion (a slot table that
 *    each queued op names through its OpTicket), completion/latency
 *    accounting, CAM-style outstanding-entry occupancy, per-bank
 *    refresh rotation, the runUntil/drain loop, the read-recovery policy
 *    (ECC classify, retry through a RetryQueue, row sparing, patrol
 *    scrub) and the per-command timeline trace. A controller supplies
 *    only what differs: its fault domain and codeword span (FaultSite)
 *    and the walk over its own queued ops when a row is spared.
 *  - ChannelSimEngine: owns N independent channels and drives them —
 *    optionally on a std::thread pool, since per-channel simulations are
 *    embarrassingly parallel.
 *  - runSweep: multi-config design-space sweeps (one controller + one
 *    workload source per job) on the same thread pool.
 *
 * Workloads reach controllers through the pull-based RequestSource API
 * (sim/source.h): a controller bound to a source refills a bounded host
 * window from it inside pumpArrivals, so workload memory is O(queue
 * depth) regardless of request count. The eager enqueue(vector) path
 * remains as the ReplaySource special case and is bit-compatible.
 */

#ifndef ROME_SIM_ENGINE_H
#define ROME_SIM_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/device.h"
#include "mc/complexity.h"
#include "mc/request.h"
#include "sim/fault.h"
#include "sim/telemetry.h"

namespace rome
{

class RequestSource; // sim/source.h

/**
 * Uniform statistics snapshot of one controller run. Field-for-field
 * comparable (operator==) so the determinism tests can assert that a
 * threaded sweep reproduces the single-threaded result exactly.
 */
struct ControllerStats
{
    // ---- data movement --------------------------------------------------
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    /** Bytes moved beyond what requests asked for (row-granularity cost). */
    std::uint64_t overfetchBytes = 0;
    std::uint64_t completedRequests = 0;

    // ---- device command counts ------------------------------------------
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refPbs = 0;
    std::uint64_t refAbs = 0;
    std::uint64_t rowCmds = 0;
    std::uint64_t colCmds = 0;
    /** Commands crossing the MC↔HBM C/A interface. */
    std::uint64_t interfaceCommands = 0;

    // ---- reliability (sim/fault.h; all zero with faults disabled) --------
    /** Corrected (single-bit) ECC errors observed on reads. */
    std::uint64_t ceCount = 0;
    /** Detected-uncorrectable ECC errors (data poisoned, not retried). */
    std::uint64_t dueCount = 0;
    /** Re-read commands scheduled to clear correctable errors. */
    std::uint64_t retryCount = 0;
    /** Rows visited by the patrol scrub woven into refresh. */
    std::uint64_t scrubCount = 0;
    /** Rows remapped into the spare region after repeated CEs. */
    std::uint64_t sparedRows = 0;
    /**
     * Requests that completed carrying poisoned data (at least one DUE
     * among their reads). dueCount counts codewords; this counts host
     * requests, so the serving layer can report a per-request poison rate.
     */
    std::uint64_t poisonedRequests = 0;

    // ---- scheduling throughput (diagnostic; merge-added, not compared) ---
    /**
     * Scheduling steps executed. Excluded from operator== because step
     * counts are an implementation diagnostic: legacy/indexed and
     * eager/streaming drives, and runUntil slicings (including a
     * checkpoint/restore seam), may legitimately chop idle jumps
     * differently while producing identical results.
     */
    std::uint64_t schedSteps = 0;
    /**
     * Always 0. Kept so existing readers of the field (the corpus
     * benchmark's memo.ff_fraction) still compile and report zero
     * coverage; nothing in the simulator writes or merges it.
     */
    std::uint64_t memoFfSteps = 0;

    // ---- telemetry (sim/telemetry.h; empty with counters disabled) -------
    /**
     * Where this channel's scheduler time went: per-cause tick totals,
     * summing to now() after a drain. Merge-added like the reliability
     * counters; excluded from operator== with the other telemetry fields
     * below — they are diagnostics of the same run, and telemetry-off
     * runs must compare equal to telemetry-on runs bit-for-bit.
     */
    StallTicks stallTicks{};
    /** Request-latency breakdown components (each merges exactly). */
    LatencyHistogram queueNsHist;
    LatencyHistogram serviceNsHist;
    LatencyHistogram retryNsHist;
    LatencyHistogram linkNsHist;
    /** Occupancy / bandwidth / stall-mix samples over completion time. */
    TimeSeries timeSeries;

    // ---- derived --------------------------------------------------------
    /** Last data-transfer end tick. */
    Tick finishedAt = 0;
    /** Transferred (incl. overfetch) bytes / ns over [0, finishedAt). */
    double achievedBandwidth = 0.0;
    /** Useful (requested) bytes / ns — equals achieved when no overfetch. */
    double effectiveBandwidth = 0.0;
    /** Fraction of column ops hitting an open row (conventional only). */
    double rowHitRate = 0.0;
    double latencyMeanNs = 0.0;
    double latencyMaxNs = 0.0;

    /**
     * Full request-latency distribution (ns). Carried by value so that
     * merging channel snapshots keeps cube-level percentiles *exact*:
     * bucket counts add, unlike means/maxima which cannot recover a
     * system p99. Consumed by the serving harness (sim/serving.h).
     */
    LatencyHistogram latencyHistNs;

    std::uint64_t totalBytes() const { return bytesRead + bytesWritten; }

    /** Percentile of the merged latency distribution (ns), p in [0,100]. */
    double
    latencyPercentileNs(double p) const
    {
        return latencyHistNs.percentileNs(p);
    }

    /**
     * Merge @p o into this snapshot: counters and histogram buckets add,
     * finishedAt/latencyMaxNs take the max, latencyMeanNs is weighted by
     * completed requests and rowHitRate by column commands. Derived
     * bandwidths are left stale — call deriveBandwidths() once after the
     * last merge.
     */
    void merge(const ControllerStats& o);

    /** Re-derive achieved/effective bandwidth from bytes and finishedAt. */
    void deriveBandwidths();

    bool operator==(const ControllerStats& o) const;
    bool operator!=(const ControllerStats& o) const { return !(*this == o); }
};

/** Polymorphic contract of a per-channel memory controller. */
class IMemoryController
{
  public:
    virtual ~IMemoryController() = default;

    /** Human-readable controller identity ("hbm4", "rome", "hybrid"). */
    virtual std::string name() const = 0;

    /** Queue a host request (unbounded host-side buffer; FIFO admission). */
    virtual void enqueue(const Request& req) = 0;

    /**
     * Attach a pull-based workload source (nullptr detaches). The
     * controller draws requests from it as simulated time reaches their
     * arrival ticks; runUntil/drain then consume the source instead of a
     * pre-enqueued list. The source must outlive the binding and yield
     * requests in nondecreasing arrival order.
     *
     * ChannelControllerBase implements it with bounded-window streaming;
     * composite controllers forward feeds to their parts.
     */
    virtual void bindSource(RequestSource* src) = 0;

    /**
     * Advance simulation until @p until or until fully idle. Every event
     * at or before @p until is processed; now() ends on the last event
     * tick, which may trail @p until (decisions land only on event ticks,
     * making any slicing of the drive bit-identical to an unsliced run).
     */
    virtual void runUntil(Tick until) = 0;

    /** Run until every queued request completed; returns last data tick. */
    virtual Tick drain() = 0;

    /** True when no work is pending. */
    virtual bool idle() const = 0;

    virtual Tick now() const = 0;

    /** Completions in finish order (appended as requests retire). */
    virtual const std::vector<Completion>& completions() const = 0;

    /**
     * Disable (or re-enable) the per-request completion log so
     * arbitrarily long streamed workloads run in O(queue-depth) memory;
     * counters, latency stats, and histograms are unaffected. Composite
     * controllers forward to their parts; the default is a no-op for
     * controllers without a log.
     */
    virtual void setRetainCompletions(bool retain) { (void)retain; }

    /** Request latency statistics (ns). */
    virtual const Accumulator& latencyNs() const = 0;

    /** Full request-latency distribution (ns), mergeable across channels. */
    virtual const LatencyHistogram& latencyHistogramNs() const = 0;

    /** Table IV introspection. */
    virtual McComplexity complexity() const = 0;

    /** Flat snapshot of everything the harnesses consume. */
    virtual ControllerStats stats() const = 0;

    // ---- checkpoint / restore (common/checkpoint.h) ---------------------

    /**
     * Serialize every piece of mutable state a bit-identical continuation
     * needs (controller, device, source cursor). Use the
     * saveControllerCheckpoint free function for the enveloped blob. The
     * default fatals: a controller without an override cannot checkpoint.
     */
    virtual void saveCheckpoint(CheckpointWriter& w) const;

    /**
     * Inverse of saveCheckpoint into a freshly constructed controller of
     * the *same configuration* — config-derived state is reproduced by
     * construction, only mutable state is read back. After restoring,
     * attach the workload stream with resumeSource (when one was bound);
     * continuing with runUntil is then bit-identical to the original run.
     */
    virtual void restoreCheckpoint(CheckpointReader& r);

    /**
     * Re-attach a *fresh instance* of the originally bound source after
     * restoreCheckpoint: the controller fast-forwards it past everything
     * it had consumed before the snapshot (sources regenerate
     * deterministically), leaving the cursor exactly where the original
     * binding stood. Unlike bindSource this never refills the host
     * window — the restored window already holds those requests.
     */
    virtual void resumeSource(RequestSource* src);
};

/**
 * Serialize @p mc into an enveloped blob: magic, format version and the
 * controller's name() ahead of its state, so restoring into the wrong
 * controller type (or a drifted format) fails loudly.
 */
std::vector<std::uint8_t> saveControllerCheckpoint(
    const IMemoryController& mc);

/** Validate @p blob's envelope against @p mc and restore its state. */
void restoreControllerCheckpoint(IMemoryController& mc,
                                 const std::vector<std::uint8_t>& blob);

/**
 * Checkpoint codec of one host request, shared by every blob that holds
 * requests. The reader fatals on an unknown kind or a zero size.
 */
void putRequest(CheckpointWriter& w, const Request& r);
Request getRequest(CheckpointReader& r);

/** Factory producing a fresh controller (one per sweep job / channel). */
using ControllerFactory = std::function<std::unique_ptr<IMemoryController>()>;

/**
 * Per-bank / per-VBA refresh rotation shared by both controllers: a due
 * time advancing by a fixed interval and a cursor walking the refresh
 * targets round-robin. Postponement is bounded by counting how many
 * intervals the rotation has fallen behind.
 */
struct RefreshRotation
{
    Tick interval = 0;
    Tick due = 0;
    int cursor = 0;

    /** Refreshes owed at @p now, saturated at @p cap. */
    int
    pendingCount(Tick now, int cap) const
    {
        if (now < due)
            return 0;
        const Tick n = 1 + (now - due) / interval;
        return static_cast<int>(n < static_cast<Tick>(cap) ? n : cap);
    }

    /** Account one issued refresh: step the cursor and push the due time. */
    void
    advance(int num_targets)
    {
        cursor = (cursor + 1) % num_targets;
        due += interval;
    }
};

/**
 * CAM-occupancy bookkeeping for issued-but-incomplete operations. An entry
 * tracks its transaction until the data transfers, so outstanding entries
 * still count against the queue depth (this is what makes deep queues
 * necessary for bank-parallelism, §V-A).
 *
 * Entries live in an array sorted by release tick, read from a moving
 * front index. The conventional controller pushes in issue order, and its
 * release ticks never decrease, so a push is an append; RoMe's FSM slots
 * push out of order and pay a short insertion. release() pops from the
 * front and the next-release query is a binary search past it. The backing
 * vector's capacity persists across steps (the consumed front is
 * compacted away only when the array is full), so a warmed-up controller
 * releases and pushes without touching the heap allocator.
 */
class OutstandingOps
{
  public:
    /** Release every entry whose data transfer ended by @p now. */
    void
    release(Tick now)
    {
        while (front_ < ticks_.size() && ticks_[front_] <= now)
            ++front_;
        if (front_ == ticks_.size()) {
            ticks_.clear();
            front_ = 0;
        }
    }

    void
    push(Tick data_end)
    {
        if (ticks_.size() == ticks_.capacity() && front_ > 0) {
            ticks_.erase(ticks_.begin(),
                         ticks_.begin() + static_cast<std::ptrdiff_t>(front_));
            front_ = 0;
        }
        if (ticks_.size() == front_ || ticks_.back() <= data_end) {
            ticks_.push_back(data_end);
            return;
        }
        ticks_.insert(std::upper_bound(ticks_.begin() +
                                           static_cast<std::ptrdiff_t>(front_),
                                       ticks_.end(), data_end),
                      data_end);
    }

    std::size_t size() const { return ticks_.size() - front_; }

    /** Earliest strictly-future release, or kTickMax when none. */
    Tick
    firstFreeAfter(Tick now) const
    {
        // Entries at or before now survive only between release() calls;
        // the search skips them so the query stays correct anywhere.
        const auto it = std::upper_bound(
            ticks_.begin() + static_cast<std::ptrdiff_t>(front_),
            ticks_.end(), now);
        return it == ticks_.end() ? kTickMax : *it;
    }

    /**
     * The live entries in release order. A sorted array is a valid
     * min-heap, so the wire format is the heap array earlier builds
     * wrote, and loadState accepts either.
     */
    void
    saveState(CheckpointWriter& w) const
    {
        w.putCount(size());
        for (std::size_t i = front_; i < ticks_.size(); ++i)
            w.putI64(ticks_[i]);
    }

    void
    loadState(CheckpointReader& r)
    {
        ticks_.resize(r.getCount());
        for (Tick& t : ticks_)
            t = r.getI64();
        front_ = 0;
        std::sort(ticks_.begin(), ticks_.end());
    }

  private:
    std::vector<Tick> ticks_; ///< sorted on release tick from front_ on
    std::size_t front_ = 0;   ///< first live entry
};

/**
 * The per-op fields the schedulers and the recovery path read. Everything
 * else about the op's request lives once, in its controller's record of
 * it. Both controllers' op types (ConventionalMc::Op, RomeMc::RowOp)
 * derive from it.
 */
struct OpTicket
{
    /** The parent request's record in the controller's slot table. */
    int slot = -1;
    /** Re-read attempts already spent clearing a CE (fault path). */
    int attempt = 0;
    /** Arrival tick of the parent request (the schedulers' age key). */
    Tick arrival = 0;
};

/**
 * Where an op's data sits in the fault model: its fault domain (HBM4
 * flat bank, RoMe VBA key), its row, which sparing rewrites through this
 * pointer, and the one ECC codeword a read of it decodes, as first line
 * and line count (HBM4: the op's column, 1 line; RoMe: 0, every line of
 * the effective row).
 */
struct FaultSite
{
    int domain;
    int* row;
    int line;
    int lines;

    /** Point the op at @p ev's spare row when it addressed the old one. */
    void
    respare(const SpareEvent& ev) const
    {
        if (*row == ev.oldRow && domain == ev.bank)
            *row = ev.newRow;
    }
};

/**
 * Re-reads waiting out their ECC retry backoff, in queue order, for one
 * controller's op type. The controller supplies the op-to-FaultSite map
 * at construction; pumping supplies its room check and re-admit call.
 */
template <class OpT>
class RetryQueue
{
  public:
    explicit RetryQueue(std::function<FaultSite(OpT&)> site)
        : site_(std::move(site))
    {
    }

    FaultSite site(OpT& op) const { return site_(op); }
    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }
    /** Earliest retry readiness (kTickMax when none), for idle wake. */
    Tick nextAt() const { return nextAt_; }

    void
    push(const OpT& op, Tick ready_at)
    {
        q_.push_back(Pending{op, ready_at});
        nextAt_ = std::min(nextAt_, ready_at);
    }

    /**
     * Re-admit, in queue order, each op whose backoff expired by @p now
     * while @p has_room() holds. A full queue keeps the entry pending;
     * the queue drains every step, so that case needs no wake-up.
     */
    template <class HasRoom, class Admit>
    void
    pump(Tick now, HasRoom has_room, Admit admit)
    {
        if (q_.empty())
            return;
        Tick next = kTickMax;
        std::size_t w = 0;
        for (std::size_t i = 0; i < q_.size(); ++i) {
            const Pending p = q_[i];
            if (p.readyAt <= now && has_room()) {
                admit(p.op);
                continue;
            }
            next = std::min(next, std::max(p.readyAt, now + 1));
            q_[w++] = p;
        }
        q_.resize(w);
        nextAt_ = next;
    }

    /** Point every pending op of @p ev's spared row at its new home. */
    void
    respare(const SpareEvent& ev)
    {
        for (Pending& p : q_)
            site_(p.op).respare(ev);
    }

    /** Serialize as count, (op, ready tick) pairs, then nextAt(). */
    template <class PutOp>
    void
    saveState(CheckpointWriter& w, PutOp put_op) const
    {
        w.putCount(q_.size());
        for (const Pending& p : q_) {
            put_op(p.op);
            w.putI64(p.readyAt);
        }
        w.putI64(nextAt_);
    }

    template <class GetOp>
    void
    loadState(CheckpointReader& r, GetOp get_op)
    {
        q_.resize(r.getCount());
        for (Pending& p : q_) {
            p.op = get_op();
            p.readyAt = r.getI64();
        }
        nextAt_ = r.getI64();
    }

  private:
    struct Pending
    {
        OpT op;
        Tick readyAt;
    };

    std::function<FaultSite(OpT&)> site_;
    std::vector<Pending> q_;
    Tick nextAt_ = kTickMax;
};

/**
 * Shared implementation base of the per-channel controllers: everything
 * that was duplicated between the conventional and the RoMe stack.
 *
 * A subclass supplies the scheduling itself (stepOnce), the decomposition
 * of host requests into queue operations (admitOps + admissionChunkBytes)
 * and its device; the base runs the host-side admission pump, keeps one
 * record per request in a slot table (allocated at enqueue, freed when the
 * request's last op completes), records completions and latency, and owns
 * the runUntil / drain / idle driver loop. It also owns what happens to an
 * op after its data moved: the recovery policy for reads (recoverRead,
 * with the subclass's RetryQueue and FaultSite map), patrol scrub and
 * sparing (runScrub; the subclass rewrites its own queued ops in
 * respareQueued) and the hand-off of the completed op (handOff).
 */
class ChannelControllerBase : public IMemoryController
{
  public:
    ChannelControllerBase() = default;
    /** Device traces and retry queues call back into this object. */
    ChannelControllerBase(const ChannelControllerBase&) = delete;
    ChannelControllerBase& operator=(const ChannelControllerBase&) = delete;

    void enqueue(const Request& req) final;
    void bindSource(RequestSource* src) final;
    void runUntil(Tick until) final;
    Tick drain() final;
    bool idle() const override;
    Tick now() const final { return now_; }
    const std::vector<Completion>&
    completions() const final
    {
        return completions_;
    }
    const Accumulator& latencyNs() const final { return latencyNs_; }
    const LatencyHistogram&
    latencyHistogramNs() const final
    {
        return latencyHistNs_;
    }

    /** The timing-enforcing device this controller drives. */
    virtual const ChannelDevice& device() const = 0;

    std::uint64_t bytesRead() const { return bytesRead_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }

    /** Scheduling steps executed so far (hot-loop throughput metric). */
    std::uint64_t stepsExecuted() const { return steps_; }

    /**
     * How many bound-source requests the host buffer prefetches. Only
     * the front request drives scheduling decisions, so the window size
     * never changes results — it only bounds memory.
     */
    static constexpr std::size_t kSourceWindow = 8;

    std::size_t sourceWindow() const { return kSourceWindow; }

    /** High-water mark of the host buffer (bounded-memory evidence). */
    std::size_t hostBufferPeak() const { return hostPeak_; }

    /** The fault process and recovery state this controller consults. */
    const FaultInjector& faultInjector() const { return faults_; }

    // ---- telemetry (sim/telemetry.h) ------------------------------------

    /** Per-bank / per-channel stall attribution (empty when off). */
    const StallTable& stallTable() const { return stall_; }

    /** The occupancy / bandwidth / stall-mix sample ring. */
    const TimeSeries& timeSeries() const { return series_; }

    /**
     * Attach an event sink for the timeline exporter (nullptr detaches).
     * With @p trace_commands the controller additionally installs a
     * device trace that records one span per committed command; the
     * recorded timeline is byte-identical across thread counts and
     * runUntil slicings. Without it only coarse events are recorded
     * (retries, spares, checkpoints).
     */
    void
    attachTelemetrySink(TelemetrySink* sink, bool trace_commands = false)
    {
        sink_ = sink;
        if (sink != nullptr && trace_commands)
            installCommandTrace();
    }

    TelemetrySink* telemetrySink() const { return sink_; }

    /**
     * Disable the per-request completion log (completions() stays
     * empty; completedRequests / latency stats are unaffected). Required
     * for O(1)-memory streaming of arbitrarily long workloads.
     */
    void
    setRetainCompletions(bool retain) override
    {
        retainCompletions_ = retain;
    }

    /**
     * Fast-forward the fresh @p src past the sourcePulled_ requests the
     * checkpointed run had consumed, then attach it without refilling
     * (the restored host window already holds the pulled-but-unadmitted
     * requests). Null detaches (legal only when the source was drained).
     */
    void resumeSource(RequestSource* src) final;

    /**
     * Composite-router restore plumbing: attach @p src as-is, with no
     * skipping and no refill. A router resumes the *shared* stream once
     * and re-attaches its live per-partition feeds here — skipping would
     * double-advance the shared cursor.
     */
    void attachResumedFeed(RequestSource* src) { source_ = src; }

  protected:
    /**
     * One scheduling step. Must either advance now_ (issuing a command or
     * jumping to the next event) and return true, or return false —
     * leaving now_ on its last event tick — when nothing can happen at or
     * before @p until. now_ never lands between events, so every
     * decision input (arrivals, ages, refresh debt, idle timeouts) is
     * evaluated at the same ticks no matter how the drive slices time:
     * any runUntil partition is bit-identical to an unsliced drain.
     */
    virtual bool stepOnce(Tick until) = 0;

    /**
     * Admit operations of the front request (slot host_.front()) into the
     * subclass's request queue, each stamped with that slot and the
     * request's arrival. Returns true when the whole request was admitted
     * (and popped).
     */
    virtual bool admitOps() = 0;

    /** Operation granularity requests decompose into (column / eff. row). */
    virtual std::uint64_t admissionChunkBytes() const = 0;

    /** The ops @p req decomposes into at admissionChunkBytes(). */
    std::uint64_t
    opCount(const Request& req) const
    {
        const std::uint64_t chunk = admissionChunkBytes();
        return (req.addr + req.size - 1) / chunk - req.addr / chunk + 1;
    }

    /** The request at the head of the host window (which is non-empty). */
    const Request&
    frontRequest() const
    {
        return slots_[static_cast<std::size_t>(host_.front())].req;
    }

    /**
     * Admit from the host buffer while requests have arrived. With a
     * bound source, first tops the host buffer up to the source window,
     * preserving the invariant that the front request is the stream head
     * whenever work remains — the schedulers' next-arrival event logic
     * is oblivious to where requests come from.
     */
    void pumpArrivals();

    /**
     * Hand one finished op over to its request's record at @p data_end;
     * the request completes with its last op. The op is taken as issued
     * at now_. @p poisoned marks this op's data as carrying a DUE; the
     * request's completion is poisoned if any of its ops were.
     */
    void
    handOff(const OpTicket& op, Tick data_end, bool poisoned)
    {
        ReqRecord& rec = slots_[static_cast<std::size_t>(op.slot)];
        rec.poisoned |= poisoned;
        if (rec.firstIssue == kTickInvalid)
            rec.firstIssue = now_;
        if (--rec.opsRemaining == 0)
            retire(op.slot, data_end);
    }

    // ---- reliability (sim/fault.h): the recovery path of both stacks ----

    /**
     * Classify the read @p op whose data transferred at @p data_end. A
     * clean read completes; a DUE completes at once with @p poisoned set
     * (retrying an uncorrectable pattern cannot help). A CE defers the
     * completion: below the retry limit the op is re-read after a
     * bounded backoff; once retries are exhausted the row takes a
     * strike, and past the sparing threshold it is remapped to a spare
     * and the op replays there (completing late, never looping). With no
     * spare left the corrected data is delivered. True when the
     * completion was deferred to a later re-read.
     */
    template <class OpT>
    bool recoverRead(const OpT& op, Tick data_end, bool& poisoned,
                     RetryQueue<OpT>& retries);

    /**
     * Patrol-scrub step piggybacked on an issued refresh. Kept out of
     * line: inlined into a scheduler step, this cold path made the HBM4
     * step about 3% slower.
     */
    template <class OpT>
    __attribute__((noinline)) void
    runScrub(RetryQueue<OpT>& retries)
    {
        scrubEvents_.clear();
        faults_.scrub(scrubEvents_);
        for (const SpareEvent& ev : scrubEvents_)
            applySpare(ev, retries);
    }

    /**
     * Point the controller's queued ops (not its retries) of @p ev's
     * spared row at the spare. Runs only on the fault path.
     */
    virtual void respareQueued(const SpareEvent& ev) = 0;

    /** Fill the base-owned fields of @p s (bytes, latency, bandwidth). */
    void fillBaseStats(ControllerStats& s) const;

    // ---- telemetry plumbing ---------------------------------------------

    /**
     * Arm the counter tier from @p cfg (no-op when cfg.counters is
     * false): sizes the per-bank stall rows and the sample ring.
     * Subclass constructors call this with their bank/VBA count.
     */
    void initTelemetry(const TelemetryConfig& cfg, int num_banks);

    /** Counter-tier master switch (one branch on the hot path). */
    bool telemetryOn() const { return telemetry_; }

    /**
     * Charge the scheduler-time advance [from, to) to @p cause (and to
     * @p bank when >= 0). Call exactly where now_ advances, so any
     * slicing of the drive attributes identically and the cause totals
     * sum to now() after a drain.
     */
    void
    chargeStall(StallCause cause, Tick from, Tick to, int bank = -1)
    {
        if (telemetry_ && to > from)
            stall_.charge(cause, to - from, bank);
    }

    /** Subclass hook installing commandSpanTrace() on its device. */
    virtual void installCommandTrace() = 0;

    /**
     * Device trace callback recording one span per committed command on
     * its bank's track (REFab on the channel track): CAS spans cover the
     * data burst, row and refresh commands the bank-busy window, so the
     * timeline is the literal per-command schedule regardless of slicing.
     */
    std::function<void(Tick, const Command&,
                       const ChannelDevice::IssueResult&)>
    commandSpanTrace() const;

    /**
     * Serialize / restore every base-owned mutable field (clock, request
     * records, host window, completion log, latency stats, source cursor,
     * fault state). Subclass saveCheckpoint overrides call these first,
     * then append their scheduler and device state.
     */
    void saveBaseState(CheckpointWriter& w) const;
    void loadBaseState(CheckpointReader& r);

    /**
     * Restore-time binding of a queued or retrying op (or run of @p n
     * ops) to its record: fatal unless op.slot names a live record, then
     * give the op that request's arrival and count its ops. A subclass
     * calls it for every op it restored, then checkRestoredOps().
     */
    void adoptRestoredOp(OpTicket& op, int n = 1);

    /**
     * Fatal unless each live record's queued and retrying ops (as
     * adopted) plus its not-yet-admitted ones add up to its op count.
     */
    void checkRestoredOps();

    Tick now_ = 0;
    /**
     * Per-channel fault process (subclass ctors configure it with their
     * geometry). Disabled by default: every hot-path hook then reduces
     * to one enabled() branch.
     */
    FaultInjector faults_;
    /** The host window: slots of requests not yet fully admitted, FIFO. */
    std::deque<int> host_;
    /** Next not-yet-admitted chunk index of the front request. */
    std::uint64_t frontChunk_ = 0;
    std::vector<Completion> completions_;
    Accumulator latencyNs_;
    LatencyHistogram latencyHistNs_;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t bytesWritten_ = 0;
    std::uint64_t steps_ = 0;
    /** Requests ever enqueued; completions_ capacity is kept ahead of it. */
    std::uint64_t totalRequests_ = 0;
    /** Counter-tier telemetry state (initTelemetry; empty when off). */
    bool telemetry_ = false;
    StallTable stall_;
    TimeSeries series_;
    LatencyHistogram queueHistNs_;
    LatencyHistogram serviceHistNs_;
    LatencyHistogram retryHistNs_;
    LatencyHistogram linkHistNs_;
    /** Timeline event sink (attachTelemetrySink; null when detached). */
    TelemetrySink* sink_ = nullptr;

  private:
    /** One host request from enqueue to completion: a slot-table entry. */
    struct ReqRecord
    {
        Request req;
        /** Ops not yet completed; 0 marks a free slot. */
        int opsRemaining = 0;
        /** Any op of this request read poisoned (DUE) data. */
        bool poisoned = false;
        /** Issue tick of the first op handed off (latency breakdown). */
        Tick firstIssue = kTickInvalid;
        /** Retry backoff accumulated across the request's ops. */
        Tick retryTicks = 0;
    };

    /**
     * The last op of the request in @p slot finished at @p data_end:
     * record the completion and its latency, then free the slot.
     */
    void retire(int slot, Tick data_end);

    /** Emit the spare instant and rewrite queued and retrying ops. */
    template <class OpT>
    void
    applySpare(const SpareEvent& ev, RetryQueue<OpT>& retries)
    {
        if (sink_ != nullptr)
            sink_->instant("spare", ev.bank, now_);
        respareQueued(ev);
        retries.respare(ev);
    }

    /** Record breakdown components and push a time-series observation. */
    void telemetrySampleCompletion(const ReqRecord& rec, Tick data_end,
                                   Completion* c);

    /** Pull from source_ until the host window is full or it runs dry. */
    void refillFromSource();

    RequestSource* source_ = nullptr;
    /** Cached source_->exhausted(); lets idle() stay const and cheap. */
    bool sourceDone_ = true;
    /** Requests ever pulled from bound sources — the checkpointed source
     *  cursor resumeSource() fast-forwards a fresh stream to. */
    std::uint64_t sourcePulled_ = 0;
    std::size_t hostPeak_ = 0;
    /** Request records, indexed by OpTicket::slot. */
    std::vector<ReqRecord> slots_;
    /** Free slots, reused last-freed first. */
    std::vector<int> freeSlots_;
    /** Restore scratch: ops adopted per slot (adoptRestoredOp). */
    std::vector<std::int64_t> restoreTally_;
    std::uint64_t completedCount_ = 0;
    /** Completed requests whose data carried at least one DUE. */
    std::uint64_t poisonedCount_ = 0;
    bool retainCompletions_ = true;
    /** Scratch for scrub-driven spare events (reused across calls). */
    std::vector<SpareEvent> scrubEvents_;
};

template <class OpT>
bool
ChannelControllerBase::recoverRead(const OpT& op, Tick data_end,
                                   bool& poisoned, RetryQueue<OpT>& retries)
{
    OpT next = op;
    const FaultSite site = retries.site(next);
    const EccVerdict v =
        faults_.classifyRead(site.domain, *site.row, site.line, site.lines);
    if (v != EccVerdict::CorrectedError) {
        poisoned = v == EccVerdict::UncorrectableError;
        if (poisoned && sink_ != nullptr)
            sink_->instant("due", site.domain, data_end);
        return false;
    }
    const auto retry = [&](Tick ready_at) {
        faults_.noteRetry();
        // The op re-enters the queue no earlier than ready_at; everything
        // between the (re)issue decision and that point is retry backoff,
        // subtracted from the request's queueing component.
        if (telemetry_ && ready_at > now_)
            slots_[static_cast<std::size_t>(op.slot)].retryTicks +=
                ready_at - now_;
        if (sink_ != nullptr)
            sink_->instant("retry", TelemetrySink::kChannelTrack, now_);
        retries.push(next, ready_at);
        return true;
    };
    if (op.attempt < faults_.config().retryLimit) {
        ++next.attempt;
        return retry(faults_.retryReadyAt(data_end, op.attempt));
    }
    if (faults_.noteCorrectable(site.domain, *site.row)) {
        const SpareEvent ev = faults_.spareRow(site.domain, *site.row);
        if (ev.newRow >= 0) {
            applySpare(ev, retries);
            *site.row = ev.newRow;
            next.attempt = 0;
            return retry(faults_.retryReadyAt(data_end, 0));
        }
    }
    return false; // no spare left: deliver the corrected data as-is
}

// ---------------------------------------------------------------------------
// Parallel execution substrate
// ---------------------------------------------------------------------------

/** Worker count for parallel sweeps: hardware concurrency, at least 1. */
int defaultSimThreads();

/**
 * Run fn(0..n-1) on up to @p threads std::threads. Work is pulled from an
 * atomic index, results must be written to per-index slots — determinism
 * is then structural. threads <= 1 degenerates to a plain loop.
 */
void parallelFor(int n, int threads, const std::function<void(int)>& fn);

// ---------------------------------------------------------------------------
// ChannelSimEngine
// ---------------------------------------------------------------------------

/**
 * Owns N independent channel controllers and drives them through the
 * interface. Channels never share state, so drainAll / runAllUntil spread
 * them across a thread pool; per-channel results are independent of the
 * thread count.
 */
class ChannelSimEngine
{
  public:
    /** @param threads Worker threads for multi-channel operations. */
    explicit ChannelSimEngine(int threads = 1);

    /** Out of line: RequestSource is incomplete here. */
    ~ChannelSimEngine();

    /** Take ownership of @p mc; returns its channel index. */
    int addChannel(std::unique_ptr<IMemoryController> mc);

    int numChannels() const { return static_cast<int>(channels_.size()); }

    IMemoryController& channel(int idx) { return *channels_.at(idx); }
    const IMemoryController&
    channel(int idx) const
    {
        return *channels_.at(idx);
    }

    /** Queue one request on channel @p idx. */
    void enqueue(int idx, const Request& req);

    /** Queue a whole per-channel request list on channel @p idx. */
    void enqueue(int idx, const std::vector<Request>& reqs);

    /**
     * Bind a pull source to channel @p idx (the engine keeps it alive);
     * drainAll / runAllUntil then stream it. The node driver binds each
     * channel a PackedReplaySource of its share of the system stream,
     * split once per run (splitNodeStream in sim/node.h).
     */
    void bindSource(int idx, std::unique_ptr<RequestSource> src);

    /**
     * Checkpoint-resume counterpart of bindSource: hands a fresh instance
     * of channel @p idx's original source to its restored controller via
     * IMemoryController::resumeSource (fast-forward past the consumed
     * prefix, no refill) and keeps it alive like bindSource would.
     */
    void resumeSource(int idx, std::unique_ptr<RequestSource> src);

    /** Drain every channel; returns the latest finish tick. */
    Tick drainAll();

    /** Advance every channel to @p until. */
    void runAllUntil(Tick until);

    bool idle() const;

    /** Sum of all channels' stats (bandwidths re-derived from totals). */
    ControllerStats totals() const;

    int threads() const { return threads_; }

  private:
    int threads_;
    std::vector<std::unique_ptr<IMemoryController>> channels_;
    /** Sources bound via bindSource, indexed like channels_. */
    std::vector<std::unique_ptr<RequestSource>> sources_;
};

// ---------------------------------------------------------------------------
// Workload drivers and design-space sweeps
// ---------------------------------------------------------------------------

/**
 * Stream @p source through @p mc until both are drained; returns the
 * final stats snapshot. This is the streaming workload driver: with a
 * ChannelControllerBase-derived controller, host-side memory stays
 * O(queue depth) for any workload length.
 */
ControllerStats runWorkload(IMemoryController& mc, RequestSource& source);

/**
 * Replay @p reqs through @p mc and drain; returns the final stats
 * snapshot. Streams via a ReplaySource view — bit-compatible with the
 * historical enqueue-everything-then-drain loop.
 */
ControllerStats runWorkload(IMemoryController& mc,
                            const std::vector<Request>& reqs);

/** Immutable request list shared between the sweep jobs replaying it. */
using SharedRequests = std::shared_ptr<const std::vector<Request>>;

/** Wrap a request list for sharing across jobs without copying it. */
inline SharedRequests
shareRequests(std::vector<Request> reqs)
{
    return std::make_shared<const std::vector<Request>>(std::move(reqs));
}

/**
 * Factory producing a fresh workload source (one per sweep job). Jobs
 * regenerate their stream per run, so sweeps never materialize request
 * lists unless a ReplaySource is asked for explicitly.
 */
using SourceFactory = std::function<std::unique_ptr<RequestSource>()>;

/** Source factory replaying a shared in-memory request list. */
SourceFactory replayFactory(SharedRequests reqs);

/** One design point of a sweep: a fresh controller and its workload. */
struct SweepJob
{
    SweepJob(std::string label_, ControllerFactory make_,
             SourceFactory source_)
        : label(std::move(label_)), make(std::move(make_)),
          source(std::move(source_))
    {
    }

    /** Replay convenience: share one request list across jobs. */
    SweepJob(std::string label_, ControllerFactory make_,
             SharedRequests requests_)
        : SweepJob(std::move(label_), std::move(make_),
                   replayFactory(std::move(requests_)))
    {
    }

    /** Convenience for single-use workloads: wraps the list privately. */
    SweepJob(std::string label_, ControllerFactory make_,
             std::vector<Request> requests_)
        : SweepJob(std::move(label_), std::move(make_),
                   shareRequests(std::move(requests_)))
    {
    }

    std::string label;
    ControllerFactory make;
    SourceFactory source;
};

/** Outcome of one sweep job; @c mc is kept alive for deep inspection. */
struct SweepOutcome
{
    std::string label;
    ControllerStats stats;
    std::unique_ptr<IMemoryController> mc;
};

/**
 * Run every job (construct controller, enqueue its workload, drain) on up
 * to @p threads workers. Outcomes are returned in job order and are
 * independent of the thread count.
 */
std::vector<SweepOutcome> runSweep(std::vector<SweepJob> jobs,
                                   int threads = defaultSimThreads());

} // namespace rome

#endif // ROME_SIM_ENGINE_H
