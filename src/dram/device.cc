#include "dram/device.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

using namespace rome::literals;

namespace
{

/** One command-bus slot is one nanosecond (1 GHz command clock). */
constexpr Tick kCmdSlot = kTicksPerNs;

Tick
maxTick(Tick a, Tick b)
{
    return a > b ? a : b;
}

} // namespace

ChannelDevice::ChannelDevice(const Organization& org,
                             const TimingParams& timing)
    : org_(org), t_(timing)
{
    minCcd_ = std::min({t_.tCCDL, t_.tCCDS, t_.tCCDR});
    minRrd_ = std::min(t_.tRRDL, t_.tRRDS);
    banks_.resize(static_cast<std::size_t>(org_.banksPerChannel()));
    sids_.resize(static_cast<std::size_t>(org_.pcsPerChannel *
                                          org_.sidsPerChannel));
    for (auto& s : sids_) {
        s.lastActPerBg.assign(
            static_cast<std::size_t>(org_.bankGroupsPerSid), kTickInvalid);
        s.actWindow.fill(kTickInvalid);
    }
    pcs_.reserve(static_cast<std::size_t>(org_.pcsPerChannel));
    for (int i = 0; i < org_.pcsPerChannel; ++i)
        pcs_.emplace_back(kCmdSlot);
}

BankRecord&
ChannelDevice::bank(const DramAddress& a)
{
    return banks_[static_cast<std::size_t>(flatBankIndex(org_, a))];
}

const BankRecord&
ChannelDevice::bank(const DramAddress& a) const
{
    return banks_[static_cast<std::size_t>(flatBankIndex(org_, a))];
}

ChannelDevice::SidRecord&
ChannelDevice::sidRec(int pc, int sid)
{
    return sids_[static_cast<std::size_t>(pc * org_.sidsPerChannel + sid)];
}

const ChannelDevice::SidRecord&
ChannelDevice::sidRec(int pc, int sid) const
{
    return sids_[static_cast<std::size_t>(pc * org_.sidsPerChannel + sid)];
}

// Helpers defined `inline` below run once per command on both the
// per-command path and the bulk template path, so both inline them.

inline Tick
ChannelDevice::earliestAct(const DramAddress& a, Tick t0) const
{
    const BankRecord& b = bank(a);
    if (b.open())
        return kTickMax; // must precharge first
    const SidRecord& s = sidRec(a.pc, a.sid);

    Tick t = t0;
    if (b.lastPre != kTickInvalid)
        t = maxTick(t, b.lastPre + t_.tRP);
    if (b.lastAct != kTickInvalid)
        t = maxTick(t, b.lastAct + t_.tRC);
    if (b.refUntil != kTickInvalid)
        t = maxTick(t, b.refUntil);
    if (s.refAbUntil != kTickInvalid)
        t = maxTick(t, s.refAbUntil);
    if (s.lastActPerBg[static_cast<std::size_t>(a.bg)] != kTickInvalid) {
        t = maxTick(t, s.lastActPerBg[static_cast<std::size_t>(a.bg)] +
                    t_.tRRDL);
    }
    if (s.lastAct != kTickInvalid)
        t = maxTick(t, s.lastAct + t_.tRRDS);
    // actFloor adds tFAW (its tRRD term is implied by tRRDS above).
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(
        actFloor(a.pc, a.sid, t));
}

Tick
ChannelDevice::earliestPre(const DramAddress& a, Tick t0) const
{
    if (!bank(a).open())
        return kTickMax;
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(
        preFloor(a, t0));
}

Tick
ChannelDevice::casChainFloor(const PcRecord& pc, const DramAddress& a,
                             bool is_write, Tick t) const
{
    if (pc.lastCas == kTickInvalid)
        return t;
    // CAS-to-CAS spacing on the shared PC data path.
    Tick gap = t_.tCCDS;
    if (pc.lastCasSid != a.sid)
        gap = t_.tCCDR;
    else if (pc.lastCasBg == a.bg)
        gap = t_.tCCDL;
    t = maxTick(t, pc.lastCas + gap);
    // Bus-direction turnarounds (command-level).
    if (!pc.lastCasWasWrite && is_write)
        t = maxTick(t, pc.lastCas + t_.tRTW);
    if (pc.lastCasWasWrite && !is_write) {
        const Tick wtr = (pc.lastCasBg == a.bg) ? t_.tWTRL : t_.tWTRS;
        t = maxTick(t, pc.lastCas + wtr);
    }
    return t;
}

Tick
ChannelDevice::earliestCas(const DramAddress& a, bool is_write, Tick t0) const
{
    const BankRecord& b = bank(a);
    if (!b.open() || b.openRow != a.row)
        return kTickMax; // row must be open (the MC handles ACT/PRE)
    const PcRecord& pc = pcs_[static_cast<std::size_t>(a.pc)];

    Tick t = t0;
    if (b.lastAct != kTickInvalid)
        t = maxTick(t, b.lastAct + (is_write ? t_.tRCDWR : t_.tRCDRD));
    return pc.colBus.nextFree(casChainFloor(pc, a, is_write, t));
}

inline Tick
ChannelDevice::earliestRefPb(const DramAddress& a, Tick t0) const
{
    if (bank(a).open())
        return kTickMax; // REFpb requires a precharged bank
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(
        refPbFloor(a, t0));
}

Tick
ChannelDevice::earliestRefAb(const DramAddress& a, Tick t0) const
{
    // Every bank in the (PC, SID) must be idle; each bank's REFpb floor
    // covers its own precharge and refresh windows plus the (PC, SID)'s.
    Tick t = t0;
    for (int bg = 0; bg < org_.bankGroupsPerSid; ++bg) {
        for (int ba = 0; ba < org_.banksPerGroup; ++ba) {
            DramAddress ba_addr = a;
            ba_addr.bg = bg;
            ba_addr.bank = ba;
            if (bank(ba_addr).open())
                return kTickMax;
            t = refPbFloor(ba_addr, t);
        }
    }
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(t);
}

Tick
ChannelDevice::earliestIssue(const Command& cmd, Tick not_before) const
{
    // The probe path runs once per candidate per scheduling step; range
    // validation stays on in debug builds, while release builds rely on
    // issue() re-validating every command that actually commits.
#ifndef NDEBUG
    checkAddress(org_, cmd.addr);
#endif
    switch (cmd.kind) {
      case CmdKind::Act:
        return earliestAct(cmd.addr, not_before);
      case CmdKind::Pre:
        return earliestPre(cmd.addr, not_before);
      case CmdKind::Rd:
        return earliestCas(cmd.addr, false, not_before);
      case CmdKind::Wr:
        return earliestCas(cmd.addr, true, not_before);
      case CmdKind::RefPb:
        return earliestRefPb(cmd.addr, not_before);
      case CmdKind::RefAb:
        return earliestRefAb(cmd.addr, not_before);
      default:
        panic("unknown command kind");
    }
}

ChannelDevice::IssueResult
ChannelDevice::issue(const Command& cmd, Tick when)
{
    checkAddress(org_, cmd.addr);
    const Tick earliest = earliestIssue(cmd, when);
    if (earliest == kTickMax || earliest > when) {
        panic("illegal %s at %lld ns (earliest legal: %s)",
              cmd.str().c_str(),
              static_cast<long long>(when / kTicksPerNs),
              earliest == kTickMax
                  ? "never (wrong bank state)"
                  : strfmt("%lld ns",
                           static_cast<long long>(earliest / kTicksPerNs))
                        .c_str());
    }
    apply(cmd, when);
    const IssueResult res = resultOf(cmd.kind, when);
    if (trace_)
        trace_(when, cmd, res);
    return res;
}

ChannelDevice::IssueResult
ChannelDevice::resultOf(CmdKind kind, Tick when) const
{
    IssueResult res;
    switch (kind) {
      case CmdKind::Act:
        res.bankReadyAt = when + std::min(t_.tRCDRD, t_.tRCDWR);
        break;
      case CmdKind::Pre:
        res.bankReadyAt = when + t_.tRP;
        break;
      case CmdKind::Rd:
      case CmdKind::Wr:
        res.dataFrom = when + (kind == CmdKind::Wr ? t_.tWL : t_.tCL);
        res.dataUntil = res.dataFrom + t_.tBURST;
        res.bankReadyAt = res.dataUntil;
        break;
      case CmdKind::RefPb:
        res.bankReadyAt = when + t_.tRFCpb;
        break;
      case CmdKind::RefAb:
        res.bankReadyAt = when + t_.tRFCab;
        break;
      default:
        panic("unknown command kind");
    }
    return res;
}

inline void
ChannelDevice::noteCas(const DramAddress& a, bool is_write, Tick when)
{
    BankRecord& b = bank(a);
    PcRecord& pc = pcs_[static_cast<std::size_t>(a.pc)];
    const Tick data_until =
        resultOf(is_write ? CmdKind::Wr : CmdKind::Rd, when).dataUntil;
    b.lastCas = when;
    b.lastCasWasWrite = is_write;
    pc.lastCas = when;
    pc.lastCasSid = a.sid;
    pc.lastCasBg = a.bg;
    pc.lastCasWasWrite = is_write;
    if (is_write)
        pc.lastWrDataEnd = data_until;
    pc.busBusyUntil = data_until;
    lastDataEnd_ = maxTick(lastDataEnd_, data_until);
}

inline void
ChannelDevice::countCas(bool is_write, std::uint64_t n)
{
    (is_write ? counters_.writes : counters_.reads).inc(n);
    counters_.colCmds.inc(n);
    counters_.dataBusBusyTicks.inc(n * static_cast<std::uint64_t>(t_.tBURST));
    counters_.dataBytes.inc(n * org_.columnBytes);
}

inline void
ChannelDevice::apply(const Command& cmd, Tick when)
{
    BankRecord& b = bank(cmd.addr);
    PcRecord& pc = pcs_[static_cast<std::size_t>(cmd.addr.pc)];
    if (isColCmd(cmd.kind)) {
        noteCas(cmd.addr, cmd.kind == CmdKind::Wr, when);
        pc.colBus.reserve(when);
        countCas(cmd.kind == CmdKind::Wr, 1);
        return;
    }

    SidRecord& s = sidRec(cmd.addr.pc, cmd.addr.sid);
    switch (cmd.kind) {
      case CmdKind::Act:
        b.lastAct = when;
        b.openRow = cmd.addr.row;
        s.lastActPerBg[static_cast<std::size_t>(cmd.addr.bg)] = when;
        s.lastAct = when;
        s.actWindow[s.actWindowHead] = when;
        s.actWindowHead = (s.actWindowHead + 1) & SidRecord::kFawMask;
        counters_.acts.inc();
        break;

      case CmdKind::Pre:
        b.lastPre = when;
        b.openRow = -1;
        counters_.pres.inc();
        break;

      case CmdKind::RefPb:
        b.refUntil = when + t_.tRFCpb;
        s.lastRefPb = when;
        counters_.refPbs.inc();
        break;

      case CmdKind::RefAb:
        for (int bg = 0; bg < org_.bankGroupsPerSid; ++bg) {
            for (int ba = 0; ba < org_.banksPerGroup; ++ba) {
                DramAddress a = cmd.addr;
                a.bg = bg;
                a.bank = ba;
                bank(a).refUntil = when + t_.tRFCab;
            }
        }
        s.refAbUntil = when + t_.tRFCab;
        counters_.refAbs.inc();
        break;

      default:
        panic("unknown command kind");
    }
    pc.rowBus.reserve(when);
    counters_.rowCmds.inc();
}

namespace
{

/** Build the concrete address of one template command. */
DramAddress
templateAddr(const TemplateCmd& e, const SequenceBinding& bind)
{
    DramAddress a;
    a.pc = e.pc;
    a.sid = bind.sid;
    a.bg = bind.banks[static_cast<std::size_t>(e.bankSlot)].first;
    a.bank = bind.banks[static_cast<std::size_t>(e.bankSlot)].second;
    a.row = bind.row;
    a.col = e.col;
    return a;
}

} // namespace

Tick
ChannelDevice::earliestSequence(const CmdTemplate& tpl,
                                const SequenceBinding& bind, Tick t0) const
{
    // Probe, in issue order, each command whose legality can involve
    // pre-existing state (see the header comment) with the per-command
    // rules, asking for exactly t0 + offset. Commands of one class are
    // nondecreasing per PC, so a rule a template command passes against
    // the last committed command (tRRDS, tRREFD) also holds for the
    // template's later commands of that class.
    constexpr std::size_t kMaxPcs = 4;
    if (static_cast<std::size_t>(org_.pcsPerChannel) > kMaxPcs)
        panic("sequence probe supports at most %zu PCs", kMaxPcs);
    std::array<std::uint8_t, kMaxPcs> n_act{};

    for (const std::uint32_t idx : tpl.probeIdx) {
        const TemplateCmd& e = tpl.cmds[idx];
        const PcRecord& pc = pcs_[static_cast<std::size_t>(e.pc)];
        const Tick at = t0 + e.offset;
        const DramAddress a = templateAddr(e, bind);

        switch (e.kind) {
          case CmdKind::Act: {
            if (earliestAct(a, at) != at)
                return kTickMax;
            // tFAW mixes pre-existing and template ACTs: with k template
            // ACTs already placed, the fourth-most-recent ACT before this
            // one is the k-th oldest pre-existing window entry (k = 0 is
            // earliestAct's own check).
            const SidRecord& s = sidRec(a.pc, a.sid);
            const std::size_t k = n_act[static_cast<std::size_t>(e.pc)]++;
            if (k > 0 && k < SidRecord::kFawActs) {
                const Tick w =
                    s.actWindow[(s.actWindowHead + k) & SidRecord::kFawMask];
                if (w != kTickInvalid && w + t_.tFAW > at)
                    return kTickMax;
            }
            break;
          }

          case CmdKind::Rd:
          case CmdKind::Wr:
            // The first CAS per PC meets the PC's CAS chain; one range
            // probe covers the whole fixed-cadence column stream.
            if (casChainFloor(pc, a, e.kind == CmdKind::Wr, at) != at ||
                !pc.colBus.rangeFree(t0 + tpl.casFirstOffset,
                                     t0 + tpl.casLastOffset + kCmdSlot)) {
                return kTickMax;
            }
            break;

          case CmdKind::Pre:
            // tRAS and CAS recovery involve only the template's own ACT
            // and CAS commands; only the row-bus slot can collide with
            // other operations' commands.
            if (pc.rowBus.nextFree(at) != at)
                return kTickMax;
            break;

          case CmdKind::RefPb:
            if (earliestRefPb(a, at) != at)
                return kTickMax;
            break;

          default:
            return kTickMax; // no template form for this command kind
        }
    }
    return t0;
}

void
ChannelDevice::issueSequence(const CmdTemplate& tpl,
                             const SequenceBinding& bind, Tick t0)
{
#ifndef NDEBUG
    // Debug builds re-validate every command: issue() panics on any
    // command the template cannot place at its fixed offset.
    for (const TemplateCmd& e : tpl.cmds)
        issue({e.kind, templateAddr(e, bind)}, t0 + e.offset);
#else
    // Row commands (few per template) go through the per-command apply
    // step. The column stream books its bus slots as one run (a single
    // span at slot-width cadence) and applies only the last CAS per bank
    // slot to the records and its counters in one batch: later CAS
    // records overwrite earlier ones, counters commute, and the calendar
    // merges a run into the same spans as its slots one by one, so the
    // end state is the per-command one.
    for (const std::uint32_t idx : tpl.rowIdx) {
        const TemplateCmd& e = tpl.cmds[idx];
        apply({e.kind, templateAddr(e, bind)}, t0 + e.offset);
    }
    if (tpl.casPerPc > 0) {
        for (int p = 0; p < tpl.pcCount; ++p) {
            pcs_[static_cast<std::size_t>(p)].colBus.reserveRun(
                t0 + tpl.casFirstOffset, tpl.casPerPc, tpl.casCadence);
            const auto note = [&](std::int16_t slot, Tick off) {
                DramAddress a;
                a.pc = p;
                a.sid = bind.sid;
                a.bg = bind.banks[static_cast<std::size_t>(slot)].first;
                a.bank = bind.banks[static_cast<std::size_t>(slot)].second;
                noteCas(a, tpl.casIsWrite, t0 + off);
            };
            for (std::int16_t slot = 0; slot < bind.numBanks; ++slot) {
                const Tick off =
                    tpl.lastCasOffsetPerSlot[static_cast<std::size_t>(slot)];
                if (off != kTickInvalid && slot != tpl.lastCasSlot)
                    note(slot, off);
            }
            // The template's last CAS goes last, so its PC record wins.
            note(tpl.lastCasSlot, tpl.casLastOffset);
        }
        countCas(tpl.casIsWrite, static_cast<std::uint64_t>(tpl.casPerPc) *
                                     static_cast<std::uint64_t>(tpl.pcCount));
    }
    // Trace consumers see exactly the per-command callback sequence.
    if (trace_) {
        for (const TemplateCmd& e : tpl.cmds) {
            const Tick at = t0 + e.offset;
            trace_(at, {e.kind, templateAddr(e, bind)}, resultOf(e.kind, at));
        }
    }
#endif
}

BankState
ChannelDevice::bankState(const DramAddress& a, Tick now) const
{
    const SidRecord& s = sidRec(a.pc, a.sid);
    if (s.refAbUntil != kTickInvalid && now < s.refAbUntil)
        return BankState::Refreshing;
    return bank(a).stateAt(now, t_);
}

int
ChannelDevice::openRow(const DramAddress& a) const
{
    return bank(a).openRow;
}

const BankRecord&
ChannelDevice::bankRecord(const DramAddress& a) const
{
    return bank(a);
}

void
ChannelDevice::saveState(CheckpointWriter& w) const
{
    w.putCount(banks_.size());
    for (const BankRecord& b : banks_) {
        w.putI32(b.openRow);
        w.putI64(b.lastAct);
        w.putI64(b.lastPre);
        w.putI64(b.lastCas);
        w.putBool(b.lastCasWasWrite);
        w.putI64(b.refUntil);
    }
    w.putCount(sids_.size());
    for (const SidRecord& s : sids_) {
        w.putCount(s.lastActPerBg.size());
        for (const Tick t : s.lastActPerBg)
            w.putI64(t);
        w.putI64(s.lastAct);
        w.putCount(s.actWindow.size());
        for (const Tick t : s.actWindow)
            w.putI64(t);
        w.putU64(s.actWindowHead);
        w.putI64(s.lastRefPb);
        w.putI64(s.refAbUntil);
    }
    w.putCount(pcs_.size());
    for (const PcRecord& p : pcs_) {
        w.putI64(p.lastCas);
        w.putI32(p.lastCasSid);
        w.putI32(p.lastCasBg);
        w.putBool(p.lastCasWasWrite);
        w.putI64(p.lastWrDataEnd);
        w.putI64(p.busBusyUntil);
        p.rowBus.saveState(w);
        p.colBus.saveState(w);
    }
    w.putI64(lastDataEnd_);
    counters_.acts.saveState(w);
    counters_.pres.saveState(w);
    counters_.reads.saveState(w);
    counters_.writes.saveState(w);
    counters_.refAbs.saveState(w);
    counters_.refPbs.saveState(w);
    counters_.dataBusBusyTicks.saveState(w);
    counters_.dataBytes.saveState(w);
    counters_.rowCmds.saveState(w);
    counters_.colCmds.saveState(w);
}

void
ChannelDevice::loadState(CheckpointReader& r)
{
    if (r.getCount() != banks_.size())
        fatal("device checkpoint bank count mismatch");
    for (BankRecord& b : banks_) {
        b.openRow = r.getI32();
        b.lastAct = r.getI64();
        b.lastPre = r.getI64();
        b.lastCas = r.getI64();
        b.lastCasWasWrite = r.getBool();
        b.refUntil = r.getI64();
    }
    if (r.getCount() != sids_.size())
        fatal("device checkpoint SID count mismatch");
    for (SidRecord& s : sids_) {
        if (r.getCount() != s.lastActPerBg.size())
            fatal("device checkpoint bank-group count mismatch");
        for (Tick& t : s.lastActPerBg)
            t = r.getI64();
        s.lastAct = r.getI64();
        if (r.getCount() != s.actWindow.size())
            fatal("device checkpoint ACT-window size mismatch");
        for (Tick& t : s.actWindow)
            t = r.getI64();
        s.actWindowHead = static_cast<std::size_t>(r.getU64());
        if (s.actWindowHead >= SidRecord::kFawActs)
            fatal("device checkpoint ACT-window head %zu out of range",
                  s.actWindowHead);
        s.lastRefPb = r.getI64();
        s.refAbUntil = r.getI64();
    }
    if (r.getCount() != pcs_.size())
        fatal("device checkpoint PC count mismatch");
    for (PcRecord& p : pcs_) {
        p.lastCas = r.getI64();
        p.lastCasSid = r.getI32();
        p.lastCasBg = r.getI32();
        p.lastCasWasWrite = r.getBool();
        p.lastWrDataEnd = r.getI64();
        p.busBusyUntil = r.getI64();
        p.rowBus.loadState(r);
        p.colBus.loadState(r);
    }
    lastDataEnd_ = r.getI64();
    counters_.acts.loadState(r);
    counters_.pres.loadState(r);
    counters_.reads.loadState(r);
    counters_.writes.loadState(r);
    counters_.refAbs.loadState(r);
    counters_.refPbs.loadState(r);
    counters_.dataBusBusyTicks.loadState(r);
    counters_.dataBytes.loadState(r);
    counters_.rowCmds.loadState(r);
    counters_.colCmds.loadState(r);
}

} // namespace rome
