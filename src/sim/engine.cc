#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/log.h"
#include "sim/source.h"

namespace rome
{

bool
ControllerStats::operator==(const ControllerStats& o) const
{
    return bytesRead == o.bytesRead && bytesWritten == o.bytesWritten &&
           overfetchBytes == o.overfetchBytes &&
           completedRequests == o.completedRequests && acts == o.acts &&
           pres == o.pres && reads == o.reads && writes == o.writes &&
           refPbs == o.refPbs && refAbs == o.refAbs &&
           rowCmds == o.rowCmds && colCmds == o.colCmds &&
           interfaceCommands == o.interfaceCommands &&
           ceCount == o.ceCount && dueCount == o.dueCount &&
           retryCount == o.retryCount && scrubCount == o.scrubCount &&
           sparedRows == o.sparedRows &&
           poisonedRequests == o.poisonedRequests &&
           // schedSteps and the telemetry fields (stallTicks,
           // breakdown histograms, timeSeries) deliberately excluded (see
           // engine.h): diagnostics of the run, not results — and
           // telemetry-on must compare equal to telemetry-off.
           finishedAt == o.finishedAt &&
           achievedBandwidth == o.achievedBandwidth &&
           effectiveBandwidth == o.effectiveBandwidth &&
           rowHitRate == o.rowHitRate && latencyMeanNs == o.latencyMeanNs &&
           latencyMaxNs == o.latencyMaxNs &&
           latencyHistNs == o.latencyHistNs;
}

void
ControllerStats::merge(const ControllerStats& o)
{
    // Weighted means need the pre-add weights of both sides.
    const double lat_w = static_cast<double>(completedRequests) +
                         static_cast<double>(o.completedRequests);
    if (lat_w > 0.0) {
        latencyMeanNs =
            (latencyMeanNs * static_cast<double>(completedRequests) +
             o.latencyMeanNs * static_cast<double>(o.completedRequests)) /
            lat_w;
    }
    const double col_w = static_cast<double>(colCmds) +
                         static_cast<double>(o.colCmds);
    if (col_w > 0.0) {
        rowHitRate = (rowHitRate * static_cast<double>(colCmds) +
                      o.rowHitRate * static_cast<double>(o.colCmds)) /
                     col_w;
    }
    bytesRead += o.bytesRead;
    bytesWritten += o.bytesWritten;
    overfetchBytes += o.overfetchBytes;
    completedRequests += o.completedRequests;
    acts += o.acts;
    pres += o.pres;
    reads += o.reads;
    writes += o.writes;
    refPbs += o.refPbs;
    refAbs += o.refAbs;
    rowCmds += o.rowCmds;
    colCmds += o.colCmds;
    interfaceCommands += o.interfaceCommands;
    ceCount += o.ceCount;
    dueCount += o.dueCount;
    retryCount += o.retryCount;
    scrubCount += o.scrubCount;
    sparedRows += o.sparedRows;
    poisonedRequests += o.poisonedRequests;
    schedSteps += o.schedSteps;
    for (std::size_t i = 0; i < kNumStallCauses; ++i)
        stallTicks[i] += o.stallTicks[i];
    queueNsHist.merge(o.queueNsHist);
    serviceNsHist.merge(o.serviceNsHist);
    retryNsHist.merge(o.retryNsHist);
    linkNsHist.merge(o.linkNsHist);
    timeSeries.merge(o.timeSeries);
    finishedAt = std::max(finishedAt, o.finishedAt);
    latencyMaxNs = std::max(latencyMaxNs, o.latencyMaxNs);
    // Bucket counts add, so merged percentiles are exact — identical to a
    // histogram that sampled every channel's requests directly.
    latencyHistNs.merge(o.latencyHistNs);
}

void
ControllerStats::deriveBandwidths()
{
    if (finishedAt == 0)
        return;
    const double ns = nsFromTicks(finishedAt);
    achievedBandwidth =
        static_cast<double>(totalBytes() + overfetchBytes) / ns;
    effectiveBandwidth = static_cast<double>(totalBytes()) / ns;
}

// ---------------------------------------------------------------------------
// IMemoryController
// ---------------------------------------------------------------------------

void
IMemoryController::saveCheckpoint(CheckpointWriter& w) const
{
    (void)w;
    fatal("controller \"%s\" does not support checkpointing",
          name().c_str());
}

void
IMemoryController::restoreCheckpoint(CheckpointReader& r)
{
    (void)r;
    fatal("controller \"%s\" does not support checkpointing",
          name().c_str());
}

void
IMemoryController::resumeSource(RequestSource* src)
{
    (void)src;
    fatal("controller \"%s\" does not support checkpointing",
          name().c_str());
}

std::vector<std::uint8_t>
saveControllerCheckpoint(const IMemoryController& mc)
{
    CheckpointWriter w;
    w.putU32(kCheckpointMagic);
    w.putU32(kCheckpointVersion);
    w.putStr(mc.name());
    mc.saveCheckpoint(w);
    return w.take();
}

void
restoreControllerCheckpoint(IMemoryController& mc,
                            const std::vector<std::uint8_t>& blob)
{
    CheckpointReader r(blob);
    const std::uint32_t magic = r.getU32();
    if (magic != kCheckpointMagic)
        fatal("not a checkpoint blob (magic 0x%08x)", magic);
    const std::uint32_t version = r.getU32();
    if (version != kCheckpointVersion) {
        fatal("checkpoint version %u, this build reads %u", version,
              kCheckpointVersion);
    }
    const std::string name = r.getStr();
    if (name != mc.name()) {
        fatal("checkpoint of controller \"%s\" cannot restore into \"%s\"",
              name.c_str(), mc.name().c_str());
    }
    mc.restoreCheckpoint(r);
    r.finish();
}

// ---------------------------------------------------------------------------
// ChannelControllerBase
// ---------------------------------------------------------------------------

void
ChannelControllerBase::enqueue(const Request& req)
{
    if (req.size == 0)
        fatal("zero-size request");
    // A record counts its ops in an int, and 0 marks a free slot.
    const std::uint64_t ops = opCount(req);
    if (ops > static_cast<std::uint64_t>(INT32_MAX))
        fatal("request of %llu ops", static_cast<unsigned long long>(ops));
    int slot = static_cast<int>(slots_.size());
    if (freeSlots_.empty()) {
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    slots_[static_cast<std::size_t>(slot)] =
        ReqRecord{req, static_cast<int>(ops)};
    host_.push_back(slot);
    hostPeak_ = std::max(hostPeak_, host_.size());
    // Keep the completion log's capacity ahead of everything enqueued so
    // recording a completion never allocates inside the scheduling loop.
    ++totalRequests_;
    if (retainCompletions_ && completions_.capacity() < totalRequests_) {
        completions_.reserve(
            std::max<std::size_t>({completions_.capacity() * 2,
                                   static_cast<std::size_t>(totalRequests_),
                                   64}));
    }
}

void
ChannelControllerBase::bindSource(RequestSource* src)
{
    source_ = src;
    // Prime the host window so host_.front() is the stream head before
    // the first scheduling step (idle() and drain() consult it).
    sourceDone_ = src == nullptr;
    if (src != nullptr)
        refillFromSource();
}

void
ChannelControllerBase::refillFromSource()
{
    Request r;
    while (host_.size() < kSourceWindow && source_->next(r)) {
        ++sourcePulled_;
        enqueue(r);
    }
    sourceDone_ = source_->exhausted();
}

void
ChannelControllerBase::resumeSource(RequestSource* src)
{
    if (src == nullptr) {
        if (!sourceDone_)
            fatal("cannot resume without a source: the checkpointed run "
                  "still had stream requests pending");
        source_ = nullptr;
        return;
    }
    // Fast-forward the fresh stream past the consumed prefix. Sources
    // regenerate deterministically (the reset() replay contract), so the
    // skipped requests are exactly the ones the restored host window /
    // queues already account for.
    Request r;
    for (std::uint64_t i = 0; i < sourcePulled_; ++i) {
        if (!src->next(r)) {
            fatal("resumed source ended after %llu of %llu checkpointed "
                  "pulls — not the stream the checkpoint was taken over",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(sourcePulled_));
        }
    }
    source_ = src;
    sourceDone_ = src->exhausted();
}

void
ChannelControllerBase::pumpArrivals()
{
    if (source_ != nullptr)
        refillFromSource();
    while (!host_.empty() && frontRequest().arrival <= now_) {
        if (!admitOps())
            break;
        if (source_ != nullptr)
            refillFromSource();
    }
}

void
ChannelControllerBase::retire(int slot, Tick data_end)
{
    const ReqRecord& rec = slots_[static_cast<std::size_t>(slot)];
    ++completedCount_;
    if (rec.poisoned)
        ++poisonedCount_;
    Completion* c = nullptr;
    if (retainCompletions_) {
        completions_.push_back(Completion{rec.req.id, data_end, rec.poisoned});
        c = &completions_.back();
    }
    const double lat_ns = nsFromTicks(data_end - rec.req.arrival);
    latencyNs_.sample(lat_ns);
    latencyHistNs_.sample(lat_ns);
    if (telemetry_)
        telemetrySampleCompletion(rec, data_end, c);
    freeSlots_.push_back(slot);
}

std::function<void(Tick, const Command&, const ChannelDevice::IssueResult&)>
ChannelControllerBase::commandSpanTrace() const
{
    const Organization& org = device().organization();
    return [this, &org](Tick when, const Command& cmd,
                        const ChannelDevice::IssueResult& res) {
        if (sink_ == nullptr)
            return;
        const char* name = "CMD";
        Tick end = res.bankReadyAt;
        switch (cmd.kind) {
          case CmdKind::Act: name = "ACT"; break;
          case CmdKind::Pre: name = "PRE"; break;
          case CmdKind::Rd: name = "RD"; end = res.dataUntil; break;
          case CmdKind::Wr: name = "WR"; end = res.dataUntil; break;
          case CmdKind::RefPb: name = "REFpb"; break;
          case CmdKind::RefAb: name = "REFab"; break;
          default: break;
        }
        const int track = cmd.kind == CmdKind::RefAb
                              ? TelemetrySink::kChannelTrack
                              : flatBankIndex(org, cmd.addr);
        sink_->span(name, track, when, end > when ? end - when : 0);
    };
}

void
ChannelControllerBase::initTelemetry(const TelemetryConfig& cfg,
                                     int num_banks)
{
    if (!cfg.counters)
        return;
    telemetry_ = true;
    stall_.init(num_banks);
    const Tick period = cfg.samplePeriod > 0
                            ? cfg.samplePeriod
                            : ticksFromNs(std::int64_t{1000});
    series_.init(period, cfg.sampleCapacity);
}

void
ChannelControllerBase::telemetrySampleCompletion(const ReqRecord& rec,
                                                 Tick data_end, Completion* c)
{
    // Exact decomposition: queue + service + retry == data_end - arrival
    // in ticks. Retry backoff is carved out of the pre-issue wait, so a
    // retry landing after the request's first issue can drive the queue
    // component negative — the Completion keeps it signed (the sum stays
    // exact); the histogram clamps at zero like every negative sample.
    const Tick first_issue = rec.firstIssue;
    const double queue_ns =
        nsFromTicks(first_issue - rec.req.arrival - rec.retryTicks);
    const double service_ns = nsFromTicks(data_end - first_issue);
    const double retry_ns = nsFromTicks(rec.retryTicks);
    const double link_ns = nsFromTicks(rec.req.linkDelay);
    queueHistNs_.sample(queue_ns);
    serviceHistNs_.sample(service_ns);
    retryHistNs_.sample(retry_ns);
    linkHistNs_.sample(link_ns);
    if (c != nullptr) {
        c->queueNs = queue_ns;
        c->serviceNs = service_ns;
        c->retryNs = retry_ns;
        c->linkNs = link_ns;
    }
    if (series_.enabled()) {
        TimeSample cur;
        cur.completed = completedCount_;
        cur.bytes = bytesRead_ + bytesWritten_;
        // Live records, counting the completing request only when it has
        // more than one op: the occupancy the recorded timelines hold.
        cur.occupancy = slots_.size() - freeSlots_.size() -
                        (opCount(rec.req) == 1 ? 1 : 0);
        cur.stall = stall_.totals();
        series_.observe(data_end, cur);
    }
}

void
ChannelControllerBase::runUntil(Tick until)
{
    // Closed-interval window: exhaust every event at ticks <= until,
    // including cascades landing exactly on the bound (e.g. a retry
    // waking at `until` whose re-read then issues at the same tick).
    // stepOnce's clamps keep now_ <= until, so the only exit is "nothing
    // left in this window" — which makes any partition of time into
    // windows process the exact same event sequence as one big window.
    while (now_ <= until) {
        ++steps_;
        if (!stepOnce(until))
            break;
    }
}

Tick
ChannelControllerBase::drain()
{
    while (!idle()) {
        ++steps_;
        if (!stepOnce(kTickMax - 1))
            break;
    }
    return device().lastDataEnd();
}

bool
ChannelControllerBase::idle() const
{
    // Every queued or retrying operation belongs to a live record, so no
    // live records implies empty op queues. A bound source with requests
    // left means pending work even when the host window drained.
    return host_.empty() && freeSlots_.size() == slots_.size() &&
           sourceDone_;
}

void
ChannelControllerBase::fillBaseStats(ControllerStats& s) const
{
    s.bytesRead = bytesRead_;
    s.bytesWritten = bytesWritten_;
    s.completedRequests = completedCount_;
    s.latencyMeanNs = latencyNs_.mean();
    s.latencyMaxNs = latencyNs_.max();
    s.latencyHistNs = latencyHistNs_;
    s.ceCount = faults_.ceCount();
    s.dueCount = faults_.dueCount();
    s.retryCount = faults_.retryCount();
    s.scrubCount = faults_.scrubCount();
    s.sparedRows = faults_.sparedRows();
    s.poisonedRequests = poisonedCount_;
    s.schedSteps = steps_;
    if (telemetry_) {
        s.stallTicks = stall_.totals();
        s.queueNsHist = queueHistNs_;
        s.serviceNsHist = serviceHistNs_;
        s.retryNsHist = retryHistNs_;
        s.linkNsHist = linkHistNs_;
        s.timeSeries = series_;
    }
    const auto& c = device().counters();
    s.acts = c.acts.value();
    s.pres = c.pres.value();
    s.reads = c.reads.value();
    s.writes = c.writes.value();
    s.refPbs = c.refPbs.value();
    s.refAbs = c.refAbs.value();
    s.rowCmds = c.rowCmds.value();
    s.colCmds = c.colCmds.value();
    s.finishedAt = device().lastDataEnd();
}

void
putRequest(CheckpointWriter& w, const Request& r)
{
    w.putU64(r.id);
    w.putU8(static_cast<std::uint8_t>(r.kind));
    w.putU64(r.addr);
    w.putU64(r.size);
    w.putI64(r.arrival);
    w.putI64(r.linkDelay);
}

Request
getRequest(CheckpointReader& r)
{
    Request q;
    q.id = r.getU64();
    const std::uint8_t kind = r.getU8();
    if (kind != static_cast<std::uint8_t>(ReqKind::Read) &&
        kind != static_cast<std::uint8_t>(ReqKind::Write))
        fatal("checkpoint: bad host request kind %u", kind);
    q.kind = static_cast<ReqKind>(kind);
    q.addr = r.getU64();
    q.size = r.getU64();
    if (q.size == 0)
        fatal("checkpoint: zero-size host request");
    q.arrival = r.getI64();
    q.linkDelay = r.getI64();
    return q;
}

void
ChannelControllerBase::saveBaseState(CheckpointWriter& w) const
{
    w.putI64(now_);
    faults_.saveState(w);
    // The slot table: its size, the free list in reuse order, then each
    // live record in slot order.
    w.putCount(slots_.size());
    w.putCount(freeSlots_.size());
    for (const int s : freeSlots_)
        w.putI32(s);
    for (const ReqRecord& rec : slots_) {
        if (rec.opsRemaining == 0)
            continue;
        putRequest(w, rec.req);
        w.putI32(rec.opsRemaining);
        w.putBool(rec.poisoned);
        w.putI64(rec.firstIssue);
        w.putI64(rec.retryTicks);
    }
    w.putCount(host_.size());
    for (const int s : host_)
        w.putI32(s);
    w.putU64(frontChunk_);
    w.putCount(completions_.size());
    for (const Completion& c : completions_) {
        w.putU64(c.id);
        w.putI64(c.finished);
        w.putBool(c.poisoned);
        w.putF64(c.queueNs);
        w.putF64(c.serviceNs);
        w.putF64(c.retryNs);
        w.putF64(c.linkNs);
    }
    latencyNs_.saveState(w);
    latencyHistNs_.saveState(w);
    w.putU64(bytesRead_);
    w.putU64(bytesWritten_);
    w.putU64(steps_);
    w.putU64(totalRequests_);
    w.putBool(sourceDone_);
    w.putU64(sourcePulled_);
    w.putU64(hostPeak_);
    w.putU64(completedCount_);
    w.putU64(poisonedCount_);
    w.putBool(retainCompletions_);
    // Telemetry accumulators (empty structures when the tier is off —
    // the enable flags themselves are config-derived, not serialized).
    stall_.saveState(w);
    series_.saveState(w);
    queueHistNs_.saveState(w);
    serviceHistNs_.saveState(w);
    retryHistNs_.saveState(w);
    linkHistNs_.saveState(w);
}

void
ChannelControllerBase::loadBaseState(CheckpointReader& r)
{
    now_ = r.getI64();
    faults_.loadState(r);
    // A free slot keeps opsRemaining 0; a live record needs at least one
    // op left and no more than its request decomposes into.
    slots_.assign(r.getCount(), ReqRecord{});
    freeSlots_.resize(r.getCount());
    std::vector<char> is_free(slots_.size(), 0);
    for (int& s : freeSlots_) {
        s = r.getI32();
        if (s < 0 || static_cast<std::size_t>(s) >= slots_.size() ||
            is_free[static_cast<std::size_t>(s)])
            fatal("checkpoint: bad free request slot %d", s);
        is_free[static_cast<std::size_t>(s)] = 1;
    }
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (is_free[s])
            continue;
        ReqRecord& rec = slots_[s];
        rec.req = getRequest(r);
        rec.opsRemaining = r.getI32();
        if (rec.opsRemaining < 1 ||
            static_cast<std::uint64_t>(rec.opsRemaining) > opCount(rec.req))
            fatal("checkpoint: request slot %zu with %d ops left", s,
                  rec.opsRemaining);
        rec.poisoned = r.getBool();
        rec.firstIssue = r.getI64();
        rec.retryTicks = r.getI64();
    }
    host_.resize(r.getCount());
    for (int& s : host_) {
        s = r.getI32();
        if (s < 0 || static_cast<std::size_t>(s) >= slots_.size() ||
            is_free[static_cast<std::size_t>(s)])
            fatal("checkpoint: host-window slot %d is not a live request", s);
    }
    frontChunk_ = r.getU64();
    // Admission resumes at chunk frontChunk_ of the front request; past
    // its last chunk, admitOps could neither admit nor pop the request.
    if (frontChunk_ != 0 &&
        (host_.empty() || frontChunk_ >= opCount(frontRequest())))
        fatal("checkpoint: admission chunk %llu past the front request",
              static_cast<unsigned long long>(frontChunk_));
    restoreTally_.assign(slots_.size(), 0);
    completions_.clear();
    const std::size_t ncomp = r.getCount();
    completions_.reserve(ncomp);
    for (std::size_t i = 0; i < ncomp; ++i) {
        Completion c;
        c.id = r.getU64();
        c.finished = r.getI64();
        c.poisoned = r.getBool();
        c.queueNs = r.getF64();
        c.serviceNs = r.getF64();
        c.retryNs = r.getF64();
        c.linkNs = r.getF64();
        completions_.push_back(c);
    }
    latencyNs_.loadState(r);
    latencyHistNs_.loadState(r);
    bytesRead_ = r.getU64();
    bytesWritten_ = r.getU64();
    steps_ = r.getU64();
    totalRequests_ = r.getU64();
    sourceDone_ = r.getBool();
    sourcePulled_ = r.getU64();
    hostPeak_ = static_cast<std::size_t>(r.getU64());
    completedCount_ = r.getU64();
    poisonedCount_ = r.getU64();
    retainCompletions_ = r.getBool();
    stall_.loadState(r);
    series_.loadState(r);
    queueHistNs_.loadState(r);
    serviceHistNs_.loadState(r);
    retryHistNs_.loadState(r);
    linkHistNs_.loadState(r);
    // The source pointer is transient: the caller re-attaches a fresh
    // stream with resumeSource (or leaves it detached when none was
    // bound — sourceDone_ then restored as true).
    source_ = nullptr;
}

void
ChannelControllerBase::adoptRestoredOp(OpTicket& op, int n)
{
    if (op.slot < 0 || static_cast<std::size_t>(op.slot) >= slots_.size() ||
        slots_[static_cast<std::size_t>(op.slot)].opsRemaining == 0)
        fatal("checkpoint: op of request slot %d, which is not live",
              op.slot);
    op.arrival = slots_[static_cast<std::size_t>(op.slot)].req.arrival;
    restoreTally_[static_cast<std::size_t>(op.slot)] += n;
}

void
ChannelControllerBase::checkRestoredOps()
{
    for (std::size_t i = 0; i < host_.size(); ++i) {
        const auto s = static_cast<std::size_t>(host_[i]);
        const std::uint64_t unadmitted =
            opCount(slots_[s].req) - (i == 0 ? frontChunk_ : 0);
        // Clamped past any record's op count, so the tally cannot
        // overflow and still cannot match.
        restoreTally_[s] += static_cast<std::int64_t>(
            std::min<std::uint64_t>(unadmitted, std::uint64_t{INT32_MAX} + 1));
    }
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (restoreTally_[s] != slots_[s].opsRemaining)
            fatal("checkpoint: request slot %zu has %lld ops queued or "
                  "unadmitted but %d left",
                  s, static_cast<long long>(restoreTally_[s]),
                  slots_[s].opsRemaining);
    }
    restoreTally_ = {};
}

// ---------------------------------------------------------------------------
// Parallel execution substrate
// ---------------------------------------------------------------------------

int
defaultSimThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
parallelFor(int n, int threads, const std::function<void(int)>& fn)
{
    if (n <= 0)
        return;
    const int workers = std::min(std::max(threads, 1), n);
    if (workers == 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<int> next{0};
    const auto worker = [&] {
        for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto& t : pool)
        t.join();
}

// ---------------------------------------------------------------------------
// ChannelSimEngine
// ---------------------------------------------------------------------------

ChannelSimEngine::ChannelSimEngine(int threads) : threads_(threads) {}

ChannelSimEngine::~ChannelSimEngine() = default;

int
ChannelSimEngine::addChannel(std::unique_ptr<IMemoryController> mc)
{
    if (!mc)
        fatal("null controller added to engine");
    channels_.push_back(std::move(mc));
    return static_cast<int>(channels_.size()) - 1;
}

void
ChannelSimEngine::enqueue(int idx, const Request& req)
{
    channels_.at(static_cast<std::size_t>(idx))->enqueue(req);
}

void
ChannelSimEngine::enqueue(int idx, const std::vector<Request>& reqs)
{
    auto& mc = *channels_.at(static_cast<std::size_t>(idx));
    for (const auto& r : reqs)
        mc.enqueue(r);
}

void
ChannelSimEngine::bindSource(int idx, std::unique_ptr<RequestSource> src)
{
    auto& mc = *channels_.at(static_cast<std::size_t>(idx));
    if (sources_.size() < channels_.size())
        sources_.resize(channels_.size());
    mc.bindSource(src.get());
    sources_[static_cast<std::size_t>(idx)] = std::move(src);
}

void
ChannelSimEngine::resumeSource(int idx, std::unique_ptr<RequestSource> src)
{
    auto& mc = *channels_.at(static_cast<std::size_t>(idx));
    if (sources_.size() < channels_.size())
        sources_.resize(channels_.size());
    mc.resumeSource(src.get());
    sources_[static_cast<std::size_t>(idx)] = std::move(src);
}

Tick
ChannelSimEngine::drainAll()
{
    std::vector<Tick> ends(channels_.size(), 0);
    parallelFor(numChannels(), threads_,
                [&](int i) { ends[static_cast<std::size_t>(i)] =
                                 channels_[static_cast<std::size_t>(i)]
                                     ->drain(); });
    Tick last = 0;
    for (const Tick t : ends)
        last = std::max(last, t);
    return last;
}

void
ChannelSimEngine::runAllUntil(Tick until)
{
    parallelFor(numChannels(), threads_,
                [&](int i) { channels_[static_cast<std::size_t>(i)]
                                 ->runUntil(until); });
}

bool
ChannelSimEngine::idle() const
{
    for (const auto& c : channels_) {
        if (!c->idle())
            return false;
    }
    return true;
}

ControllerStats
ChannelSimEngine::totals() const
{
    ControllerStats sum;
    for (const auto& c : channels_)
        sum.merge(c->stats());
    sum.deriveBandwidths();
    return sum;
}

// ---------------------------------------------------------------------------
// Workload drivers and design-space sweeps
// ---------------------------------------------------------------------------

ControllerStats
runWorkload(IMemoryController& mc, RequestSource& source)
{
    mc.bindSource(&source);
    mc.drain();
    mc.bindSource(nullptr);
    return mc.stats();
}

ControllerStats
runWorkload(IMemoryController& mc, const std::vector<Request>& reqs)
{
    // Non-owning view: replaying a borrowed list must not copy it.
    ReplaySource src(SharedRequests(std::shared_ptr<void>(), &reqs));
    return runWorkload(mc, src);
}

SourceFactory
replayFactory(SharedRequests reqs)
{
    if (!reqs)
        fatal("null request list behind a replay factory");
    return [reqs] { return std::make_unique<ReplaySource>(reqs); };
}

std::vector<SweepOutcome>
runSweep(std::vector<SweepJob> jobs, int threads)
{
    std::vector<SweepOutcome> out(jobs.size());
    parallelFor(static_cast<int>(jobs.size()), threads, [&](int i) {
        auto& job = jobs[static_cast<std::size_t>(i)];
        auto& res = out[static_cast<std::size_t>(i)];
        res.label = job.label;
        res.mc = job.make();
        const auto source = job.source();
        if (!source)
            fatal("sweep job \"%s\" produced no source", job.label.c_str());
        res.stats = runWorkload(*res.mc, *source);
    });
    return out;
}

} // namespace rome
