#include "rome/rome_mc.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

RomeMc::RomeMc(const DramConfig& base, VbaDesign design, RomeMcConfig cfg,
               RomeMapOrder map_order)
    : baseCfg_(base), map_(base.org, base.timing, design), cfg_(cfg),
      mapOrder_(map_order), dev_(map_.deviceOrganization(),
                                 map_.deviceTiming()),
      gen_(map_, dev_, !cfg.scalarLowering)
{
#if !ROME_ORACLES
    // The template (vectorized) lowering path stays live either way —
    // only the force-scalar flag and the legacy scheduler are oracles.
    if (cfg_.legacyScheduler || cfg_.scalarLowering)
        fatal("RomeMcConfig::%s is a test-only oracle compiled out of "
              "this build — reconfigure with -DROME_ORACLES=ON",
              cfg_.legacyScheduler ? "legacyScheduler" : "scalarLowering");
#endif
    if (cfg_.timing) {
        timing_ = *cfg_.timing;
    } else if (design.bankMode == VbaDesign::adopted().bankMode &&
               design.pcMode == VbaDesign::adopted().pcMode) {
        timing_ = romeTableVTiming();
    } else {
        timing_ = deriveRomeTiming(base.timing, map_);
    }
    if (cfg_.queueDepth == 0) {
        cfg_.queueDepth = std::max<int>(
            4, static_cast<int>((16 * 1024) / map_.effectiveRowBytes()));
    }
    if (cfg_.queueDepth < 1)
        fatal("RoMe queue depth must be positive");
    if (cfg_.operateFsms == 0) {
        cfg_.operateFsms = static_cast<int>(
            (timing_.tRDrow + timing_.tR2RS - 1) / timing_.tR2RS);
    }
    totalVbas_ = map_.vbasPerSid() *
                 map_.deviceOrganization().sidsPerChannel;
    refresh_.interval = base.timing.tREFIbank / totalVbas_;
    if (cfg_.refreshFsms == 0) {
        // Average refresh concurrency: one VBA stall per interval.
        const VbaPlan& plan = map_.planRef(VbaAddress{0, 0, 0});
        const Tick stall = base.timing.tRFCpb +
            (plan.banks.size() == 2 ? base.timing.tRREFD : 0);
        const double demand = static_cast<double>(stall) /
                              static_cast<double>(refresh_.interval);
        cfg_.refreshFsms = std::max(3, static_cast<int>(demand * 1.2) + 1);
    }
    opSlots_.resize(static_cast<std::size_t>(cfg_.operateFsms));
    refSlots_.resize(static_cast<std::size_t>(cfg_.refreshFsms));
    vbaBusyUntil_.assign(static_cast<std::size_t>(totalVbas_), 0);
    vbaBusyState_.assign(static_cast<std::size_t>(totalVbas_),
                         VbaState::Idle);
    // Fault domains are VBAs: every row op touches one whole effective
    // row, protected by a single SEC-DED codeword over all its lines.
    linesPerRow_ = static_cast<int>(map_.effectiveRowBytes() /
                                    baseCfg_.org.columnBytes);
    faults_.configure(cfg_.faults, totalVbas_, map_.rowsPerVba(),
                      linesPerRow_, linesPerRow_);
    // Telemetry "banks" are VBAs: one stall row per (SID, VBA) key.
    initTelemetry(cfg_.telemetry, totalVbas_);
}

VbaAddress
RomeMc::decodeRow(std::uint64_t addr) const
{
    const std::uint64_t chunk = addr / map_.effectiveRowBytes();
    const auto v = static_cast<std::uint64_t>(map_.vbasPerSid());
    const auto s = static_cast<std::uint64_t>(
        map_.deviceOrganization().sidsPerChannel);
    const auto r = static_cast<std::uint64_t>(map_.rowsPerVba());
    VbaAddress a;
    switch (mapOrder_) {
      case RomeMapOrder::VbaSidRow:
        a.vba = static_cast<int>(chunk % v);
        a.sid = static_cast<int>((chunk / v) % s);
        a.row = static_cast<int>((chunk / (v * s)) % r);
        break;
      case RomeMapOrder::SidVbaRow:
        a.sid = static_cast<int>(chunk % s);
        a.vba = static_cast<int>((chunk / s) % v);
        a.row = static_cast<int>((chunk / (s * v)) % r);
        break;
      case RomeMapOrder::RowVbaSid:
        a.row = static_cast<int>(chunk % r);
        a.vba = static_cast<int>((chunk / r) % v);
        a.sid = static_cast<int>((chunk / (r * v)) % s);
        break;
    }
    return a;
}

bool
RomeMc::admitOps()
{
    const Request& req = frontRequest();
    const std::uint64_t eff = map_.effectiveRowBytes();
    const std::uint64_t first = req.addr / eff;
    const std::uint64_t last = (req.addr + req.size - 1) / eff;
    const std::uint64_t total = last - first + 1;

    while (frontChunk_ < total &&
           queue_.size() + outstanding_.size() <
               static_cast<std::size_t>(cfg_.queueDepth)) {
        const std::uint64_t chunk = first + frontChunk_;
        const std::uint64_t chunk_lo = chunk * eff;
        const std::uint64_t lo = std::max(chunk_lo, req.addr);
        const std::uint64_t hi = std::min(chunk_lo + eff,
                                          req.addr + req.size);
        RowOp op;
        op.slot = host_.front();
        op.arrival = req.arrival;
        op.cmd.kind = req.kind == ReqKind::Read ? RowCmdKind::RdRow
                                                : RowCmdKind::WrRow;
        op.cmd.addr = decodeRow(chunk_lo);
        if (faults_.enabled()) {
            op.cmd.addr.row = faults_.remappedRow(vbaKey(op.cmd.addr),
                                                  op.cmd.addr.row);
        }
        op.usefulBytes = hi - lo;
        queue_.push_back(op);
        ++frontChunk_;
    }
    if (frontChunk_ == total) {
        host_.pop_front();
        frontChunk_ = 0;
        return true;
    }
    return false;
}

bool
RomeMc::vbaBusy(const VbaAddress& a, Tick at) const
{
    const auto busy_in = [&](const std::vector<FsmSlot>& slots) {
        for (const auto& s : slots) {
            if (s.busyUntil != kTickInvalid && s.busyUntil > at &&
                s.vba.sameVba(a)) {
                return true;
            }
        }
        return false;
    };
    return busy_in(opSlots_) || busy_in(refSlots_);
}

int
RomeMc::busyCount(const std::vector<FsmSlot>& slots, Tick at) const
{
    int n = 0;
    for (const auto& s : slots)
        n += s.busyUntil != kTickInvalid && s.busyUntil > at;
    return n;
}

void
RomeMc::retireSlots(Tick at)
{
    for (auto* slots : {&opSlots_, &refSlots_}) {
        for (auto& s : *slots) {
            if (s.busyUntil != kTickInvalid && s.busyUntil <= at)
                s.state = VbaState::Idle;
        }
    }
}

Tick
RomeMc::nextRefreshDue() const
{
    return cfg_.refreshEnabled ? refresh_.due : kTickMax;
}

Tick
RomeMc::queueWakeTick() const
{
    // A retry or an arrived request enters the queue once its backoff
    // passed and the queue has room; room only appears when an
    // outstanding transfer ends.
    const bool full = queue_.size() + outstanding_.size() >=
                      static_cast<std::size_t>(cfg_.queueDepth);
    const auto enter_at = [&](Tick ready) {
        const Tick at = std::max(ready, now_ + 1);
        return full ? std::max(at, outstanding_.firstFreeAfter(now_)) : at;
    };
    Tick next = kTickMax;
    if (!retryQ_.empty())
        next = std::min(next, enter_at(retryQ_.nextAt()));
    if (!host_.empty())
        next = std::min(next, enter_at(frontRequest().arrival));
    // A refresh that is already due but blocked wakes when a VBA or an
    // FSM slot frees, which the caller's busy terms cover.
    if (nextRefreshDue() > now_)
        next = std::min(next, nextRefreshDue());
    return next;
}

VbaState
RomeMc::vbaState(const VbaAddress& a, Tick at) const
{
    if (!cfg_.legacyScheduler) {
        const auto key = static_cast<std::size_t>(vbaKey(a));
        return vbaBusyUntil_[key] > at ? vbaBusyState_[key]
                                       : VbaState::Idle;
    }
    for (const auto& s : refSlots_) {
        if (s.busyUntil != kTickInvalid && s.busyUntil > at &&
            s.vba.sameVba(a)) {
            return VbaState::Refreshing;
        }
    }
    for (const auto& s : opSlots_) {
        if (s.busyUntil != kTickInvalid && s.busyUntil > at &&
            s.vba.sameVba(a)) {
            return s.state;
        }
    }
    return VbaState::Idle;
}

bool
RomeMc::stepOnce(Tick until)
{
    return cfg_.legacyScheduler ? stepOnceLegacy(until)
                                : stepOnceIndexed(until);
}

bool
RomeMc::stepOnceIndexed(Tick until)
{
    outstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries();
    pumpArrivals();
    opBusy_.release(now_);
    refBusy_.release(now_);

    // --- Refresh: one VBA pair-refresh per interval, rotating (§V-B) ----
    std::optional<VbaAddress> refresh_target;
    if (cfg_.refreshEnabled && now_ >= refresh_.due) {
        const int v = map_.vbasPerSid();
        VbaAddress t;
        t.vba = refresh_.cursor % v;
        t.sid = (refresh_.cursor / v) %
                map_.deviceOrganization().sidsPerChannel;
        refresh_target = t;
        const auto key = static_cast<std::size_t>(vbaKey(t));
        if (vbaBusyUntil_[key] <= now_ &&
            static_cast<int>(refBusy_.size()) < cfg_.refreshFsms) {
            const auto res = gen_.execute({RowCmdKind::Ref, t}, now_);
            refBusy_.push(res.vbaReadyAt);
            vbaBusyUntil_[key] = res.vbaReadyAt;
            vbaBusyState_[key] = VbaState::Refreshing;
            refHighWater_ = std::max(
                refHighWater_, static_cast<int>(refBusy_.size()));
            refresh_.advance(totalVbas_);
            if (faults_.enabled())
                runScrub(retryQ_);
            return true;
        }
    }

    // --- Data scheduling: issue the op that can go earliest; ties go to
    // VBAs other than the last issued one (interleaving), then to age.
    const Tick op_slot_free =
        static_cast<int>(opBusy_.size()) < cfg_.operateFsms
            ? now_
            : opBusy_.firstFreeAfter(now_);

    // Candidate floors depend on the op only through (is_write, same_sid)
    // and its VBA: precompute the four Table III gap variants so the scan
    // is a pair of table lookups per queue entry.
    Tick floor_at[2][2] = {{op_slot_free, op_slot_free},
                           {op_slot_free, op_slot_free}};
    if (lastRowCmdAt_ != kTickInvalid) {
        for (int w = 0; w < 2; ++w) {
            for (int s = 0; s < 2; ++s) {
                floor_at[w][s] = std::max(
                    op_slot_free,
                    lastRowCmdAt_ + timing_.gap(lastRowCmdWasWrite_,
                                                w != 0, s != 0));
            }
        }
    }

    const RowOp* best = nullptr;
    std::size_t best_idx = 0;
    Tick best_at = kTickMax;
    bool best_diff_vba = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const RowOp& op = queue_[i];
        if (refresh_target && refresh_target->sameVba(op.cmd.addr))
            continue; // let the pending refresh win the VBA
        const bool is_write = op.cmd.kind == RowCmdKind::WrRow;
        Tick at = floor_at[is_write][lastRowCmdSid_ == op.cmd.addr.sid];
        at = std::max(
            at, vbaBusyUntil_[static_cast<std::size_t>(vbaKey(op.cmd.addr))]);
        const bool diff_vba = !lastRowCmdVba_ ||
                              !lastRowCmdVba_->sameVba(op.cmd.addr);
        const bool better =
            at < best_at ||
            (at == best_at && diff_vba && !best_diff_vba) ||
            (at == best_at && diff_vba == best_diff_vba && best &&
             op.arrival < best->arrival);
        if (!best || better) {
            best = &op;
            best_idx = i;
            best_at = at;
            best_diff_vba = diff_vba;
        }
    }

    if (best) {
        const bool is_write = best->cmd.kind == RowCmdKind::WrRow;
        const Tick at = best_at;
        if (at > until) {
            // The bounded step issues nothing and is retried verbatim by
            // the next runUntil call from the same event tick, so
            // decisions survive the seam.
            return false;
        }

        const RowOp op = queue_[best_idx];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best_idx));
        if (telemetryOn() && at > now_) {
            // The winning op waited [now_, at): the binding constraint is
            // its own VBA (busy reading/writing/refreshing), else the
            // Table III command gap, else an occupied operate FSM.
            const auto key =
                static_cast<std::size_t>(vbaKey(op.cmd.addr));
            StallCause cause = StallCause::BankBusy;
            if (vbaBusyUntil_[key] == at) {
                cause = vbaBusyState_[key] == VbaState::Refreshing
                            ? StallCause::Refresh
                            : StallCause::BankBusy;
            } else if (lastRowCmdAt_ != kTickInvalid &&
                       lastRowCmdAt_ +
                               timing_.gap(lastRowCmdWasWrite_, is_write,
                                           lastRowCmdSid_ ==
                                               op.cmd.addr.sid) ==
                           at) {
                cause = StallCause::CasChain;
            }
            chargeStall(cause, now_, at, static_cast<int>(key));
        }
        const auto res = gen_.execute(op.cmd, at);
        now_ = at;
        outstanding_.push(res.dataUntil);

        opBusy_.release(at);
        opBusy_.push(res.vbaReadyAt);
        const auto key = static_cast<std::size_t>(vbaKey(op.cmd.addr));
        vbaBusyUntil_[key] = res.vbaReadyAt;
        vbaBusyState_[key] =
            is_write ? VbaState::Writing : VbaState::Reading;
        opHighWater_ = std::max(opHighWater_,
                                static_cast<int>(opBusy_.size()));

        lastRowCmdAt_ = at;
        lastRowCmdWasWrite_ = is_write;
        lastRowCmdSid_ = op.cmd.addr.sid;
        lastRowCmdVba_ = op.cmd.addr;

        completeRowOp(op, res);
        return true;
    }

    // --- Nothing issuable: advance to the next event ----------------------
    Tick next = queueWakeTick();
    next = std::min(next, opBusy_.firstFreeAfter(now_));
    next = std::min(next, refBusy_.firstFreeAfter(now_));
    if (next == kTickMax || next > until) {
        // now_ stays on its last event tick (slice invariance).
        return false;
    }
    if (telemetryOn() && next > now_) {
        // Attribute the idle jump to the wake term that produced `next`.
        // A due-but-blocked refresh owns the whole gap: it is what keeps
        // its VBA's queued work (and the rotation) from progressing.
        StallCause cause = StallCause::NoRequest;
        if (cfg_.refreshEnabled && now_ >= refresh_.due) {
            cause = StallCause::Refresh;
        } else if (!retryQ_.empty() &&
                   std::max(retryQ_.nextAt(), now_ + 1) <= next) {
            cause = StallCause::RetryBackoff;
        } else if (!host_.empty() &&
                   std::max(frontRequest().arrival, now_ + 1) <= next &&
                   queue_.size() + outstanding_.size() <
                       static_cast<std::size_t>(cfg_.queueDepth)) {
            cause = StallCause::NoRequest;
        } else if (!host_.empty() &&
                   queue_.size() + outstanding_.size() >=
                       static_cast<std::size_t>(cfg_.queueDepth)) {
            cause = StallCause::BankBusy; // admission is queue-bound
        } else if (nextRefreshDue() == next) {
            cause = StallCause::Refresh;
        } else if (opBusy_.firstFreeAfter(now_) == next) {
            cause = StallCause::BankBusy;
        } else if (refBusy_.firstFreeAfter(now_) == next) {
            cause = StallCause::Refresh;
        }
        chargeStall(cause, now_, next);
    }
    now_ = next;
    return true;
}

// Legacy scheduler (the seed's rescan-everything loop; decision oracle).
// Test-only: compiled out under -DROME_ORACLES=OFF — the constructor
// rejects cfg_.legacyScheduler there, so the stub is unreachable.
#if ROME_ORACLES

bool
RomeMc::stepOnceLegacy(Tick until)
{
    outstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries();
    pumpArrivals();
    retireSlots(now_);

    // --- Refresh: one VBA pair-refresh per interval, rotating (§V-B) ----
    std::optional<VbaAddress> refresh_target;
    if (cfg_.refreshEnabled && now_ >= refresh_.due) {
        const int v = map_.vbasPerSid();
        VbaAddress t;
        t.vba = refresh_.cursor % v;
        t.sid = (refresh_.cursor / v) %
                map_.deviceOrganization().sidsPerChannel;
        refresh_target = t;
        if (!vbaBusy(t, now_) &&
            busyCount(refSlots_, now_) < cfg_.refreshFsms) {
            const auto res = gen_.execute({RowCmdKind::Ref, t}, now_);
            for (auto& s : refSlots_) {
                if (s.busyUntil == kTickInvalid || s.busyUntil <= now_) {
                    s = FsmSlot{t, res.vbaReadyAt, VbaState::Refreshing};
                    break;
                }
            }
            refHighWater_ = std::max(refHighWater_,
                                     busyCount(refSlots_, now_));
            refresh_.advance(totalVbas_);
            if (faults_.enabled())
                runScrub(retryQ_);
            return true;
        }
    }

    // --- Data scheduling: issue the op that can go earliest; ties go to
    // VBAs other than the last issued one (interleaving), then to age.
    Tick op_slot_free = kTickMax;
    for (const auto& s : opSlots_) {
        op_slot_free = std::min(op_slot_free, s.busyUntil == kTickInvalid
                                                  ? now_ : s.busyUntil);
    }
    op_slot_free = std::max(op_slot_free, now_);

    const RowOp* best = nullptr;
    std::size_t best_idx = 0;
    Tick best_at = kTickMax;
    bool best_diff_vba = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const RowOp& op = queue_[i];
        if (refresh_target && refresh_target->sameVba(op.cmd.addr))
            continue; // let the pending refresh win the VBA
        const bool is_write = op.cmd.kind == RowCmdKind::WrRow;
        Tick at = op_slot_free;
        if (lastRowCmdAt_ != kTickInvalid) {
            const bool same_sid = lastRowCmdSid_ == op.cmd.addr.sid;
            at = std::max(at, lastRowCmdAt_ +
                          timing_.gap(lastRowCmdWasWrite_, is_write,
                                          same_sid));
        }
        for (const auto* slots : {&opSlots_, &refSlots_}) {
            for (const auto& s : *slots) {
                if (s.busyUntil != kTickInvalid &&
                    s.vba.sameVba(op.cmd.addr)) {
                    at = std::max(at, s.busyUntil);
                }
            }
        }
        const bool diff_vba = !lastRowCmdVba_ ||
                              !lastRowCmdVba_->sameVba(op.cmd.addr);
        const bool better =
            at < best_at ||
            (at == best_at && diff_vba && !best_diff_vba) ||
            (at == best_at && diff_vba == best_diff_vba && best &&
             op.arrival < best->arrival);
        if (!best || better) {
            best = &op;
            best_idx = i;
            best_at = at;
            best_diff_vba = diff_vba;
        }
    }

    if (best) {
        const bool is_write = best->cmd.kind == RowCmdKind::WrRow;
        const Tick at = best_at;
        if (at > until) {
            // Retried verbatim from the same event tick by the next call.
            return false;
        }

        const RowOp op = queue_[best_idx];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best_idx));
        const auto res = gen_.execute(op.cmd, at);
        now_ = at;
        outstanding_.push(res.dataUntil);

        for (auto& s : opSlots_) {
            if (s.busyUntil == kTickInvalid || s.busyUntil <= at) {
                s = FsmSlot{op.cmd.addr, res.vbaReadyAt,
                            is_write ? VbaState::Writing
                                     : VbaState::Reading};
                break;
            }
        }
        opHighWater_ = std::max(opHighWater_, busyCount(opSlots_, at));

        lastRowCmdAt_ = at;
        lastRowCmdWasWrite_ = is_write;
        lastRowCmdSid_ = op.cmd.addr.sid;
        lastRowCmdVba_ = op.cmd.addr;

        completeRowOp(op, res);
        return true;
    }

    // --- Nothing issuable: advance to the next event ----------------------
    Tick next = queueWakeTick();
    for (const auto* slots : {&opSlots_, &refSlots_}) {
        for (const auto& s : *slots) {
            if (s.busyUntil != kTickInvalid && s.busyUntil > now_)
                next = std::min(next, s.busyUntil);
        }
    }
    if (next == kTickMax || next > until) {
        // now_ stays on its last event tick (slice invariance).
        return false;
    }
    now_ = next;
    return true;
}

#else // !ROME_ORACLES

bool
RomeMc::stepOnceLegacy(Tick)
{
    panic("legacy oracle compiled out (ROME_ORACLES=OFF)");
}

#endif // ROME_ORACLES

// ---------------------------------------------------------------------------
// Completion and reliability
//
// RoMe's ECC granularity is the whole effective row: one SEC-DED codeword
// spans every line a row op transfers, so each RD_row is one decode
// (faultSite). The recovery policy is ChannelControllerBase's. Writes are
// not classified — errors surface on the read that consumes them.
// ---------------------------------------------------------------------------

void
RomeMc::completeRowOp(const RowOp& op,
                      const CommandGenerator::RowOpResult& res)
{
    const bool is_read = op.cmd.kind == RowCmdKind::RdRow;
    bool poisoned = false;
    if (faults_.enabled() && is_read &&
        recoverRead(op, res.dataUntil, poisoned, retryQ_)) {
        // The transfer happened (busy tables and the outstanding CAM
        // stand), but the data needs a retry: completion and byte
        // accounting wait for the attempt that reads clean.
        return;
    }
    if (is_read)
        bytesRead_ += op.usefulBytes;
    else
        bytesWritten_ += op.usefulBytes;
    overfetch_ += res.bytes - op.usefulBytes;
    handOff(op, res.dataUntil, poisoned);
}

void
RomeMc::pumpRetries()
{
    const auto depth = static_cast<std::size_t>(cfg_.queueDepth);
    retryQ_.pump(
        now_, [&] { return queue_.size() + outstanding_.size() < depth; },
        [&](const RowOp& op) { queue_.push_back(op); });
}

void
RomeMc::respareQueued(const SpareEvent& ev)
{
    for (RowOp& op : queue_)
        faultSite(op).respare(ev);
}

double
RomeMc::achievedBandwidth() const
{
    const Tick end = dev_.lastDataEnd();
    if (end == 0)
        return 0.0;
    return static_cast<double>(bytesRead_ + bytesWritten_ + overfetch_) /
           nsFromTicks(end);
}

double
RomeMc::effectiveBandwidth() const
{
    const Tick end = dev_.lastDataEnd();
    if (end == 0)
        return 0.0;
    return static_cast<double>(bytesRead_ + bytesWritten_) /
           nsFromTicks(end);
}

McComplexity
RomeMc::complexity() const
{
    McComplexity c;
    c.numTimingParams = RomeTimingParams::kNumMcVisibleParams;
    c.numBankFsms = cfg_.operateFsms + cfg_.refreshFsms;
    c.numBankStates = kNumRomeVbaStates;
    c.pagePolicy = "-";
    c.schedulingConcerns = {"VBA interleaving"};
    c.requestQueueDepth = cfg_.queueDepth;
    return c;
}

ControllerStats
RomeMc::stats() const
{
    ControllerStats s;
    fillBaseStats(s);
    s.overfetchBytes = overfetch_;
    // Only row-level commands cross the MC↔HBM interface (REF counts too);
    // the command generator expands them on the logic die.
    s.interfaceCommands = gen_.rowCommandsAccepted();
    s.achievedBandwidth = achievedBandwidth();
    s.effectiveBandwidth = effectiveBandwidth();
    return s;
}

// ---- checkpointing -------------------------------------------------------

void
RomeMc::saveCheckpoint(CheckpointWriter& w) const
{
    if (sink_ != nullptr)
        sink_->instant("checkpoint", TelemetrySink::kChannelTrack, now_);
    const auto put_row_op = [&w](const RowOp& op) {
        w.putU8(static_cast<std::uint8_t>(op.cmd.kind));
        w.putI32(op.cmd.addr.sid);
        w.putI32(op.cmd.addr.vba);
        w.putI32(op.cmd.addr.row);
        w.putI32(op.slot);
        w.putU64(op.usefulBytes);
        w.putI32(op.attempt);
    };
    const auto put_slot = [&w](const FsmSlot& s) {
        w.putI32(s.vba.sid);
        w.putI32(s.vba.vba);
        w.putI32(s.vba.row);
        w.putI64(s.busyUntil);
        w.putU8(static_cast<std::uint8_t>(s.state));
    };

    saveBaseState(w);
    dev_.saveState(w);
    gen_.saveCounters(w);

    w.putCount(queue_.size());
    for (const RowOp& op : queue_)
        put_row_op(op);
    outstanding_.saveState(w);

    w.putCount(opSlots_.size());
    for (const FsmSlot& s : opSlots_)
        put_slot(s);
    w.putCount(refSlots_.size());
    for (const FsmSlot& s : refSlots_)
        put_slot(s);
    opBusy_.saveState(w);
    refBusy_.saveState(w);
    w.putCount(vbaBusyUntil_.size());
    for (const Tick t : vbaBusyUntil_)
        w.putI64(t);
    for (const VbaState s : vbaBusyState_)
        w.putU8(static_cast<std::uint8_t>(s));

    w.putI64(lastRowCmdAt_);
    w.putBool(lastRowCmdWasWrite_);
    w.putI32(lastRowCmdSid_);
    w.putBool(lastRowCmdVba_.has_value());
    if (lastRowCmdVba_) {
        w.putI32(lastRowCmdVba_->sid);
        w.putI32(lastRowCmdVba_->vba);
        w.putI32(lastRowCmdVba_->row);
    }

    w.putI64(refresh_.interval);
    w.putI64(refresh_.due);
    w.putI32(refresh_.cursor);

    retryQ_.saveState(w, put_row_op);

    w.putU64(overfetch_);
    w.putI32(opHighWater_);
    w.putI32(refHighWater_);
}

void
RomeMc::restoreCheckpoint(CheckpointReader& r)
{
    // Every restored op, VBA state and the refresh rotation is checked
    // before use: the schedulers index per-VBA tables by them.
    const int sids = map_.deviceOrganization().sidsPerChannel;
    const auto get_row_op = [&]() {
        RowOp op;
        const std::uint8_t kind = r.getU8();
        if (kind != static_cast<std::uint8_t>(RowCmdKind::RdRow) &&
            kind != static_cast<std::uint8_t>(RowCmdKind::WrRow))
            fatal("rome checkpoint: bad row-op kind %u", kind);
        op.cmd.kind = static_cast<RowCmdKind>(kind);
        op.cmd.addr.sid = r.getI32();
        op.cmd.addr.vba = r.getI32();
        op.cmd.addr.row = r.getI32();
        const VbaAddress& a = op.cmd.addr;
        if (a.sid < 0 || a.sid >= sids || a.vba < 0 ||
            a.vba >= map_.vbasPerSid() || a.row < 0 ||
            a.row >= map_.rowsPerVba())
            fatal("rome checkpoint: row-op address %s out of range",
                  a.str().c_str());
        op.slot = r.getI32();
        adoptRestoredOp(op);
        op.usefulBytes = r.getU64();
        op.attempt = r.getI32();
        return op;
    };
    const auto get_state = [&r]() {
        const std::uint8_t state = r.getU8();
        if (state >= kNumRomeVbaStates)
            fatal("rome checkpoint: bad VBA state %u", state);
        return static_cast<VbaState>(state);
    };
    const auto get_slot = [&](FsmSlot& s) {
        s.vba.sid = r.getI32();
        s.vba.vba = r.getI32();
        s.vba.row = r.getI32();
        s.busyUntil = r.getI64();
        s.state = get_state();
    };

    loadBaseState(r);
    dev_.loadState(r);
    gen_.loadCounters(r);

    queue_.resize(r.getCount());
    for (RowOp& op : queue_)
        op = get_row_op();
    outstanding_.loadState(r);

    if (r.getCount() != opSlots_.size())
        fatal("rome checkpoint operate-FSM count mismatch");
    for (FsmSlot& s : opSlots_)
        get_slot(s);
    if (r.getCount() != refSlots_.size())
        fatal("rome checkpoint refresh-FSM count mismatch");
    for (FsmSlot& s : refSlots_)
        get_slot(s);
    opBusy_.loadState(r);
    refBusy_.loadState(r);
    if (r.getCount() != vbaBusyUntil_.size())
        fatal("rome checkpoint VBA count mismatch");
    for (Tick& t : vbaBusyUntil_)
        t = r.getI64();
    for (VbaState& s : vbaBusyState_)
        s = get_state();

    lastRowCmdAt_ = r.getI64();
    lastRowCmdWasWrite_ = r.getBool();
    lastRowCmdSid_ = r.getI32();
    if (r.getBool()) {
        VbaAddress a;
        a.sid = r.getI32();
        a.vba = r.getI32();
        a.row = r.getI32();
        lastRowCmdVba_ = a;
    } else {
        lastRowCmdVba_.reset();
    }

    refresh_.interval = r.getI64();
    refresh_.due = r.getI64();
    refresh_.cursor = r.getI32();
    if (refresh_.interval <= 0 || refresh_.cursor < 0 ||
        refresh_.cursor >= totalVbas_)
        fatal("rome checkpoint: bad refresh rotation");

    retryQ_.loadState(r, get_row_op);

    overfetch_ = r.getU64();
    opHighWater_ = r.getI32();
    refHighWater_ = r.getI32();
    checkRestoredOps();
}

} // namespace rome
