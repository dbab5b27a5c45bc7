/**
 * @file
 * Timing-enforcing model of one HBM channel.
 *
 * The device is passive: a memory controller (or the RoMe command generator)
 * asks when a command may issue (earliestIssue) and then commits it (issue).
 * Every issue() is re-validated against the full conventional timing rule
 * set. The RoMe command generator's fixed-interval templates are admitted by
 * earliestSequence, which asks the same per-command rule functions, and
 * committed by issueSequence through the same state-transition code (debug
 * builds re-validate each template command through issue() as well). Each
 * timing rule and each state transition is stated once.
 *
 * Modeled constraints:
 *  - bank core timings: tRC, tRAS, tRP, tRCDRD/WR, tRTP, write recovery
 *  - ACT-to-ACT: tRRDL / tRRDS and the tFAW window per (PC, SID)
 *  - CAS-to-CAS: tCCDL (same BG), tCCDS (diff BG), tCCDR (diff SID)
 *  - bus turnaround: tRTW and derived WR→RD gaps
 *  - refresh: tRFCab / tRFCpb busy windows, tRREFD spacing
 *  - command bus: one row command and one column command per ns per channel
 *    (both PCs share the C/A pins)
 */

#ifndef ROME_DRAM_DEVICE_H
#define ROME_DRAM_DEVICE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/checkpoint.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/address.h"
#include "dram/bank.h"
#include "dram/command.h"
#include "dram/slot_calendar.h"
#include "dram/timing.h"

namespace rome
{

/** Event counters a channel accumulates (consumed by the energy model). */
struct DeviceCounters
{
    Counter acts;
    Counter pres;
    Counter reads;
    Counter writes;
    Counter refAbs;
    Counter refPbs;
    /** Ticks any PC's data bus carried data (summed over PCs). */
    Counter dataBusBusyTicks;
    /** Bytes moved over the channel data pins. */
    Counter dataBytes;
    /** Commands sent over the row / column C/A pins. */
    Counter rowCmds;
    Counter colCmds;
};

/**
 * One fixed-offset command of a lowering template (see CmdTemplate).
 * bankSlot indexes the per-call SequenceBinding's bank list, so the same
 * template drives every VBA of a design.
 */
struct TemplateCmd
{
    CmdKind kind = CmdKind::Act;
    /** Physical PC the command addresses. */
    std::int16_t pc = 0;
    /** Index into SequenceBinding::banks. */
    std::int16_t bankSlot = 0;
    /** Column for RD/WR entries. */
    std::int32_t col = 0;
    /** Tick offset from the sequence anchor t0. */
    Tick offset = 0;
};

/**
 * A precomputed "predetermined commands at fixed intervals" sequence
 * (RoMe §IV-C, Figure 9): the steady-state lowering of one row-level
 * operation, with every command at a constant offset from the anchor.
 * Entries are in issue order — the order the scalar lowering path commits
 * them — so a bulk commit reproduces the scalar path's state transitions
 * and trace exactly.
 */
struct CmdTemplate
{
    std::vector<TemplateCmd> cmds;
    /** Offset of the first / last column command (column-bus range check). */
    Tick casFirstOffset = 0;
    Tick casLastOffset = 0;
    bool hasCas = false;

    // ---- bulk-commit aggregates (derived from cmds by the recorder) -----
    // The column stream's net effect on per-PC / per-bank records depends
    // only on its last commands, so the bulk committer applies it once
    // instead of per CAS. Offsets are identical across PCs.

    /** Column commands per participating PC. */
    int casPerPc = 0;
    /** Bank slot of the last column command. */
    std::int16_t lastCasSlot = 0;
    /** All column commands of a template share one direction. */
    bool casIsWrite = false;
    /** Offset of the last column command per bank slot. */
    std::array<Tick, 2> lastCasOffsetPerSlot{kTickInvalid, kTickInvalid};
    /** PCs participating (PCs 0..pcCount-1 each see every offset). */
    int pcCount = 0;
    /** Fixed spacing of the column stream (per PC). */
    Tick casCadence = 0;
    /**
     * Entries earliestSequence must inspect: every row command plus the
     * first column command per PC — all later column commands interact
     * only with the template's own stream.
     */
    std::vector<std::uint32_t> probeIdx;
    /** Row-command entries (the bulk committer reserves CAS slots
     *  arithmetically from casFirstOffset/casCadence instead). */
    std::vector<std::uint32_t> rowIdx;
};

/** Per-call addressing context a CmdTemplate is bound to. */
struct SequenceBinding
{
    int sid = 0;
    int row = 0;
    /** (bank group, bank) per template bank slot. */
    std::array<std::pair<int, int>, 2> banks{};
    int numBanks = 0;
};

/** One HBM channel with full conventional timing enforcement. */
class ChannelDevice
{
  public:
    ChannelDevice(const Organization& org, const TimingParams& timing);

    const Organization& organization() const { return org_; }
    const TimingParams& timing() const { return t_; }

    /**
     * Earliest tick >= @p not_before at which @p cmd satisfies every timing
     * constraint. Returns kTickMax if the command is structurally illegal in
     * the current state (e.g. ACT to an open bank).
     */
    Tick earliestIssue(const Command& cmd, Tick not_before) const;

    /** Result of committing a command. */
    struct IssueResult
    {
        /** When the bank returns to a schedulable state. */
        Tick bankReadyAt = 0;
        /** Data occupies the PC bus in [dataFrom, dataUntil); 0/0 if none. */
        Tick dataFrom = 0;
        Tick dataUntil = 0;
    };

    /**
     * Commit @p cmd at @p when. Panics when any constraint is violated —
     * callers must consult earliestIssue first.
     */
    IssueResult issue(const Command& cmd, Tick when);

    // ---- bulk template issue (RoMe steady-state fast path) --------------

    /**
     * Whole-template admission probe: returns @p t0 when every command of
     * @p tpl can issue at exactly t0 + offset — i.e. the scalar lowering
     * path, asked to start at @p t0, would produce precisely the
     * template's fixed-interval schedule — and kTickMax otherwise
     * (callers fall back to scalar per-command lowering, which stretches
     * minimally instead).
     *
     * The probe asks the per-command rules (earliestAct, earliestRefPb,
     * the CAS-chain part of earliestCas) whether each command that can
     * interact with pre-existing device state lands on its offset;
     * intra-template constraints hold by construction, since the
     * template was recorded from a validated scalar run. It adds only
     * what is specific to a template: the tFAW window — the one rule
     * mixing pre-existing and template commands by order statistics — is
     * checked against the k-th oldest entry of the ACT ring for the k-th
     * template ACT, one rangeFree probe covers the whole column stream,
     * and PREs check only their row-bus slot.
     */
    Tick earliestSequence(const CmdTemplate& tpl, const SequenceBinding& b,
                          Tick t0) const;

    /**
     * Commit every command of @p tpl at t0 + offset in one pass, with the
     * identical state transitions, counters, and trace callbacks the
     * scalar per-command path would produce — but without re-validating
     * each command (debug builds still do). Row commands go through the
     * per-command apply step; the column stream's records and counters
     * are applied once, and its bus slots are booked with one
     * SlotCalendar::reserveRun per PC (one span when the cadence equals
     * the slot width), so a commit costs O(row commands + PCs), not
     * O(column commands). An installed trace sees every command, in
     * template order, with the IssueResult issue() would have returned.
     * Only call after earliestSequence(tpl, b, t0) returned t0.
     */
    void issueSequence(const CmdTemplate& tpl, const SequenceBinding& b,
                       Tick t0);

    /** Observable state of the addressed bank at @p now. */
    BankState bankState(const DramAddress& a, Tick now) const;

    /** Open row of the addressed bank (-1 when closed). */
    int openRow(const DramAddress& a) const;

    /** Raw record access for schedulers that inspect timestamps. */
    const BankRecord& bankRecord(const DramAddress& a) const;

    /** Same, addressed by flat bank index (see flatBankIndex). */
    const BankRecord&
    bankRecord(int flat_index) const
    {
        return banks_[static_cast<std::size_t>(flat_index)];
    }

    // ---- scheduler probe pruning ---------------------------------------
    // Cheap lower bounds on earliestIssue: never above the exact answer,
    // computable without touching bank state or the slot calendars. A
    // scheduler probing candidates in tie-break order can skip the exact
    // probe for any candidate whose floor cannot beat its current best.

    /** Lower bound for any RD/WR on @p pc at or after @p t. */
    Tick
    casFloor(int pc, Tick t) const
    {
        const PcRecord& p = pcs_[static_cast<std::size_t>(pc)];
        if (p.lastCas != kTickInvalid && p.lastCas + minCcd_ > t)
            return p.lastCas + minCcd_;
        return t;
    }

    /** Lower bound for any ACT in (@p pc, @p sid) at or after @p t. */
    Tick
    actFloor(int pc, int sid, Tick t) const
    {
        const SidRecord& s = sidRec(pc, sid);
        if (s.lastAct != kTickInvalid && s.lastAct + minRrd_ > t)
            t = s.lastAct + minRrd_;
        const Tick oldest = s.actWindow[s.actWindowHead];
        if (oldest != kTickInvalid && oldest + t_.tFAW > t)
            t = oldest + t_.tFAW;
        return t;
    }

    /**
     * Lower bound for a PRE to the bank at @p a at or after @p t: the
     * tRAS window since its ACT and the read/write recovery (tRTP / tWR)
     * since its last CAS — everything earliestPre enforces except the
     * row-bus slot lookup.
     */
    Tick
    preFloor(const DramAddress& a, Tick t) const
    {
        const BankRecord& b = bank(a);
        if (b.lastAct != kTickInvalid && b.lastAct + t_.tRAS > t)
            t = b.lastAct + t_.tRAS;
        if (b.lastCas != kTickInvalid) {
            const Tick rec =
                b.lastCas + (b.lastCasWasWrite ? t_.tWR : t_.tRTP);
            if (rec > t)
                t = rec;
        }
        return t;
    }

    /**
     * Lower bound for a REFpb to the bank at @p a at or after @p t:
     * precharge completion, its own and the (PC, SID)'s refresh busy
     * windows, and tRREFD spacing.
     */
    Tick
    refPbFloor(const DramAddress& a, Tick t) const
    {
        const BankRecord& b = bank(a);
        if (b.lastPre != kTickInvalid && b.lastPre + t_.tRP > t)
            t = b.lastPre + t_.tRP;
        if (b.refUntil != kTickInvalid && b.refUntil > t)
            t = b.refUntil;
        const SidRecord& s = sidRec(a.pc, a.sid);
        if (s.refAbUntil != kTickInvalid && s.refAbUntil > t)
            t = s.refAbUntil;
        if (s.lastRefPb != kTickInvalid && s.lastRefPb + t_.tRREFD > t)
            t = s.lastRefPb + t_.tRREFD;
        return t;
    }

    /** Tick at which the last issued command's data transfer finishes. */
    Tick lastDataEnd() const { return lastDataEnd_; }

    const DeviceCounters& counters() const { return counters_; }

    /**
     * Install a trace callback invoked on every committed command with
     * its IssueResult (busy window / data beats), so timeline exporters
     * can render spans without re-deriving timing.
     */
    void
    setTrace(std::function<void(Tick, const Command&, const IssueResult&)>
                 cb)
    {
        trace_ = std::move(cb);
    }

    /** Command-only trace callback (result ignored). */
    void
    setTrace(std::function<void(Tick, const Command&)> cb)
    {
        if (!cb) {
            trace_ = nullptr;
            return;
        }
        trace_ = [cb = std::move(cb)](Tick when, const Command& c,
                                      const IssueResult&) { cb(when, c); };
    }

    // ---- checkpoint / restore (common/checkpoint.h) ---------------------

    /**
     * Serialize every mutable timing record (banks, SIDs, PCs including
     * the command-bus slot calendars), lastDataEnd and the counters.
     * Geometry, timing parameters and derived floors are reproduced by
     * constructing the restore target with the same configuration.
     */
    void saveState(CheckpointWriter& w) const;

    /** Inverse of saveState into an identically configured device. */
    void loadState(CheckpointReader& r);

  private:
    /** Tracking shared by the banks of one (PC, SID). */
    struct SidRecord
    {
        /** Last ACT per bank group (tRRDL). */
        std::vector<Tick> lastActPerBg;
        /** Last ACT anywhere in the (PC, SID) (tRRDS). */
        Tick lastAct = kTickInvalid;
        /** Ring of the last four ACT times (tFAW); the head is the
         *  oldest entry and advances by mask. */
        static constexpr std::size_t kFawActs = 4;
        static constexpr std::size_t kFawMask = kFawActs - 1;
        std::array<Tick, kFawActs> actWindow{};
        std::size_t actWindowHead = 0;
        /** Last per-bank refresh issue (tRREFD). */
        Tick lastRefPb = kTickInvalid;
        /** Completion of the last all-bank refresh. */
        Tick refAbUntil = kTickInvalid;
    };

    /** Tracking shared by one PC (CAS stream, data bus, command slots). */
    struct PcRecord
    {
        explicit PcRecord(Tick slot_width)
            : rowBus(slot_width), colBus(slot_width)
        {}

        Tick lastCas = kTickInvalid;
        int lastCasSid = -1;
        int lastCasBg = -1;
        bool lastCasWasWrite = false;
        /** End of the last write burst (WR→RD turnaround reference). */
        Tick lastWrDataEnd = kTickInvalid;
        /** End of the last data transfer on this PC. */
        Tick busBusyUntil = 0;
        /**
         * Command slots per PC. The C/A pins are shared by the two PCs of a
         * channel but are fast enough to issue RD/WR to both PCs every
         * tCCDS and ACTs every tRRDS (§IV-D): one slot per ns per PC.
         */
        SlotCalendar rowBus;
        SlotCalendar colBus;
    };

    BankRecord& bank(const DramAddress& a);
    const BankRecord& bank(const DramAddress& a) const;
    SidRecord& sidRec(int pc, int sid);
    const SidRecord& sidRec(int pc, int sid) const;

    Tick earliestAct(const DramAddress& a, Tick t0) const;
    Tick earliestPre(const DramAddress& a, Tick t0) const;
    Tick earliestCas(const DramAddress& a, bool is_write, Tick t0) const;
    Tick earliestRefPb(const DramAddress& a, Tick t0) const;
    Tick earliestRefAb(const DramAddress& a, Tick t0) const;

    /** CAS-to-CAS gap (by SID/BG) and tRTW / tWTRS/L after @p pc's last
     *  CAS, for a RD/WR to @p a at or after @p t. */
    Tick casChainFloor(const PcRecord& pc, const DramAddress& a,
                       bool is_write, Tick t) const;

    /** State and counter transition of @p cmd (no validation, no trace). */
    void apply(const Command& cmd, Tick when);
    /** What committing @p kind at @p when reports; depends on nothing
     *  else. */
    IssueResult resultOf(CmdKind kind, Tick when) const;
    /** Bank, PC and data-end records a RD/WR at @p when leaves behind. */
    void noteCas(const DramAddress& a, bool is_write, Tick when);
    /** Counters of @p n RD/WR commands. */
    void countCas(bool is_write, std::uint64_t n);

    Organization org_;
    TimingParams t_;
    /** Smallest possible CAS-to-CAS / ACT-to-ACT gaps (probe floors). */
    Tick minCcd_ = 0;
    Tick minRrd_ = 0;
    std::vector<BankRecord> banks_;
    std::vector<SidRecord> sids_;
    std::vector<PcRecord> pcs_;
    Tick lastDataEnd_ = 0;
    DeviceCounters counters_;
    std::function<void(Tick, const Command&, const IssueResult&)> trace_;
};

} // namespace rome

#endif // ROME_DRAM_DEVICE_H
