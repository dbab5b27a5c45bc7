#include "mc/mc.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/log.h"

namespace rome
{

namespace
{

/** Candidate priorities (smaller = preferred among same-tick candidates). */
constexpr int kPrioForced = 0;   // aged ops / overdue refresh
constexpr int kPrioCasHit = 2;   // FR: ready column command to an open row
constexpr int kPrioAct = 3;
constexpr int kPrioPre = 4;
constexpr int kPrioIdlePre = 5;  // close/adaptive policy precharges
constexpr int kPrioRefresh = 6;  // opportunistic refresh

/** Refresh postponement bound before a refresh becomes forced (JEDEC: 8). */
constexpr int kRefreshForceAt = 8;
constexpr int kRefreshPendingCap = 9;

/** Candidate tie-break categories, in legacy collection order. */
constexpr int kRankRefresh = 0;
constexpr int kRankReadOp = 1;
constexpr int kRankWriteOp = 2;
constexpr int kRankIdlePre = 3;

/** Largest seq gap a run stores between consecutive ops. */
constexpr std::uint64_t kMaxSeqStride = 1u << 30;

/** Two ops carry the same ticket (request record and retry attempt). */
bool
sameTicket(const OpTicket& a, const OpTicket& b)
{
    return a.slot == b.slot && a.attempt == b.attempt;
}

/** Last activity of an open bank (adaptive idle-timeout reference). */
Tick
bankLastUse(const BankRecord& rec)
{
    return std::max(rec.lastAct, rec.lastCas == kTickInvalid ? rec.lastAct
                                                             : rec.lastCas);
}

} // namespace

ConventionalMc::ConventionalMc(const DramConfig& cfg, AddressMapping mapping,
                               McConfig mc_cfg)
    : dramCfg_(cfg), map_(std::move(mapping)), cfg_(mc_cfg),
      dev_(cfg.org, cfg.timing)
{
    if (cfg_.readQueueDepth < 1 || cfg_.writeQueueDepth < 1)
        fatal("queue depths must be positive");
#if !ROME_ORACLES
    if (cfg_.legacyScheduler)
        fatal("McConfig::legacyScheduler is a test-only oracle compiled "
              "out of this build — reconfigure with -DROME_ORACLES=ON");
#endif
    // One SEC-DED codeword per 32 B line: every read CAS is classified
    // as exactly one codeword. Fault domains are flat bank indices.
    faults_.configure(cfg_.faults, cfg.org.banksPerChannel(),
                      cfg.org.rowsPerBank,
                      static_cast<int>(cfg.org.columnsPerRow()), 1);
    if (cfg_.refreshEnabled) {
        const int units = cfg.org.pcsPerChannel * cfg.org.sidsPerChannel;
        const Tick interval =
            cfg.timing.tREFIbank / cfg.org.banksPerSid();
        for (int pc = 0; pc < cfg.org.pcsPerChannel; ++pc) {
            for (int sid = 0; sid < cfg.org.sidsPerChannel; ++sid) {
                RefreshUnit u;
                u.pc = pc;
                u.sid = sid;
                const int idx = pc * cfg.org.sidsPerChannel + sid;
                u.rot.interval = interval;
                u.rot.due = interval * idx / units;
                refreshUnits_.push_back(u);
            }
        }
    }
    const std::uint64_t stride = map_.columnStrideLines();
    if (stride != 0 && stride <= kMaxLanes)
        lanes_.resize(stride);
    if (!cfg_.legacyScheduler) {
        const int nbanks = cfg.org.banksPerChannel();
        bankIx_.resize(static_cast<std::size_t>(nbanks));
        for (int b = 0; b < nbanks; ++b) {
            DramAddress a; // inverse of flatBankIndex (PC-major)
            int idx = b;
            a.bank = idx % cfg.org.banksPerGroup;
            idx /= cfg.org.banksPerGroup;
            a.bg = idx % cfg.org.bankGroupsPerSid;
            idx /= cfg.org.bankGroupsPerSid;
            a.sid = idx % cfg.org.sidsPerChannel;
            idx /= cfg.org.sidsPerChannel;
            a.pc = idx;
            bankIx_[static_cast<std::size_t>(b)].addr = a;
        }
        const auto cap = static_cast<std::size_t>(cfg_.readQueueDepth +
                                                  cfg_.writeQueueDepth);
        pool_.reserve(cap);
        freeNodes_.reserve(cap);
        // Each bank lists at most one RD and one WR representative.
        casLists_.resize(static_cast<std::size_t>(cfg.org.pcsPerChannel));
        for (auto& l : casLists_)
            l.reserve(static_cast<std::size_t>(
                2 * nbanks / cfg.org.pcsPerChannel));
        rowBanks_.reserve(static_cast<std::size_t>(nbanks));
        openBanks_.reserve(static_cast<std::size_t>(nbanks));
        unitForcedBank_.assign(refreshUnits_.size(), -1);
        refreshCands_.reserve(refreshUnits_.size());
    }
    updateRefreshDue();
    initTelemetry(cfg_.telemetry, cfg.org.banksPerChannel());
}

void
ConventionalMc::updateRefreshDue()
{
    refreshDue_ = kTickMax;
    for (const RefreshUnit& u : refreshUnits_)
        refreshDue_ = std::min(refreshDue_, u.rot.due);
}

int
ConventionalMc::pendingRefreshCount(const RefreshUnit& u) const
{
    return u.rot.pendingCount(now_, kRefreshPendingCap);
}

bool
ConventionalMc::refreshBlocked(const DramAddress& a) const
{
    // ACTs to a bank with a forced refresh pending are held off so the bank
    // can reach Idle and the refresh can issue.
    if (!cfg_.refreshEnabled)
        return false;
    for (const auto& u : refreshUnits_) {
        if (u.pc != a.pc || u.sid != a.sid)
            continue;
        if (pendingRefreshCount(u) < kRefreshForceAt)
            continue;
        const int bg = u.rot.cursor / dramCfg_.org.banksPerGroup;
        const int ba = u.rot.cursor % dramCfg_.org.banksPerGroup;
        if (bg == a.bg && ba == a.bank)
            return true;
    }
    return false;
}

std::size_t
ConventionalMc::readQueueSize() const
{
    return cfg_.legacyScheduler ? readQ_.size()
                                : static_cast<std::size_t>(readCount_);
}

std::size_t
ConventionalMc::writeQueueSize() const
{
    return cfg_.legacyScheduler ? writeQ_.size()
                                : static_cast<std::size_t>(writeCount_);
}

bool
ConventionalMc::admitOps()
{
    const Request& req = frontRequest();
    const bool is_read = req.kind == ReqKind::Read;
    const auto& outstanding = is_read ? readOutstanding_ : writeOutstanding_;
    const auto depth = static_cast<std::size_t>(
        is_read ? cfg_.readQueueDepth : cfg_.writeQueueDepth);
    const auto queued = [&] {
        return is_read ? readQueueSize() : writeQueueSize();
    };
    if (queued() + outstanding.size() >= depth)
        return false; // the front request always has a chunk left
    const std::uint64_t first_line = map_.lineOf(req.addr);
    const std::uint64_t total =
        map_.lineOf(req.addr + req.size - 1) - first_line + 1;

    Op op;
    op.slot = host_.front();
    op.arrival = req.arrival;
    op.kind = req.kind;
    while (frontChunk_ < total && queued() + outstanding.size() < depth) {
        op.addr = lineAddress(first_line + frontChunk_);
        if (cfg_.legacyScheduler)
            (is_read ? readQ_ : writeQ_).push_back(op);
        else
            insertOpIndexed(op);
        ++frontChunk_;
    }
    if (frontChunk_ == total) {
        host_.pop_front();
        frontChunk_ = 0;
        return true;
    }
    return false;
}

DramAddress
ConventionalMc::lineAddress(std::uint64_t line)
{
    if (lanes_.empty())
        return physicalAddress(map_.decodeLine(line));
    const std::uint64_t n = lanes_.size();
    Lane& lane = lanes_[static_cast<std::size_t>(line & (n - 1))];
    if (lane.line != line - n || !map_.stepColumn(lane.addr))
        lane.addr = physicalAddress(map_.decodeLine(line));
    lane.line = line;
    return lane.addr;
}

DramAddress
ConventionalMc::physicalAddress(DramAddress a) const
{
    // Spared rows are remapped at admission so every queued op carries
    // the physical row it will access.
    if (faults_.enabled())
        a.row = faults_.remappedRow(flatBankIndex(dramCfg_.org, a), a.row);
    return a;
}

void
ConventionalMc::updateWriteDrain()
{
    // Write-drain hysteresis.
    const auto w_occ = static_cast<double>(writeQueueSize());
    const auto w_depth = static_cast<double>(cfg_.writeQueueDepth);
    const bool forced = readQueueSize() == 0 && writeQueueSize() != 0;
    if (!drainingWrites_) {
        if (w_occ >= cfg_.writeHighWatermark * w_depth || forced)
            drainingWrites_ = true;
    } else if (w_occ <= cfg_.writeLowWatermark * w_depth && !forced) {
        drainingWrites_ = false;
    }
}

void
ConventionalMc::completeOp(const Op& op, Tick data_end)
{
    // Writes carry no read data to check.
    bool poisoned = false;
    if (faults_.enabled() && op.kind == ReqKind::Read &&
        recoverRead(op, data_end, poisoned, retryQ_))
        return; // correctable error: the op completes on a later re-read
    if (op.kind == ReqKind::Read)
        bytesRead_ += dramCfg_.org.columnBytes;
    else
        bytesWritten_ += dramCfg_.org.columnBytes;
    // completeOp runs at the CAS issue tick, so now_ is exactly the
    // command's issue time for the latency breakdown.
    handOff(op, data_end, poisoned);
}

void
ConventionalMc::pumpRetries()
{
    // Re-admission respects the read queue depth (retries compete with
    // admission for queue space).
    const auto depth = static_cast<std::size_t>(cfg_.readQueueDepth);
    retryQ_.pump(
        now_,
        [&] { return readQueueSize() + readOutstanding_.size() < depth; },
        [&](const Op& op) {
            if (cfg_.legacyScheduler)
                readQ_.push_back(op);
            else
                insertOpIndexed(op);
        });
}

void
ConventionalMc::respareQueued(const SpareEvent& ev)
{
    // Lanes cache physical rows, which this event just changed.
    for (Lane& lane : lanes_)
        lane.line = kNoLine;
    if (cfg_.legacyScheduler) {
        for (Op& op : readQ_)
            faultSite(op).respare(ev);
        for (Op& op : writeQ_)
            faultSite(op).respare(ev);
        return;
    }
    // Every op of a run shares its row, so the run moves as a whole.
    BankEntry& e = bankIx_[static_cast<std::size_t>(ev.bank)];
    for (BankList* l : {&e.read, &e.write}) {
        for (int i = l->head; i != -1;
             i = pool_[static_cast<std::size_t>(i)].next) {
            faultSite(pool_[static_cast<std::size_t>(i)].op).respare(ev);
        }
    }
    // Row identities in the bank changed: hit summaries are stale.
    reindexBankRow(ev.bank);
}

ConventionalMc::IdleWake
ConventionalMc::idleWakeTick(Tick adaptive_next) const
{
    // Nothing schedulable: jump to the next retry, arrival or queue-entry
    // release, refresh due time, or the caller-provided adaptive-timeout
    // expiry. Terms are offered in that order and only a strictly
    // earlier one takes over, so ties go to the earlier term.
    IdleWake wake;
    const auto offer = [&wake](Tick at, StallCause cause) {
        if (at < wake.at)
            wake = {at, cause};
    };
    if (retryQ_.nextAt() != kTickMax)
        offer(std::max(retryQ_.nextAt(), now_ + 1), StallCause::RetryBackoff);
    if (!host_.empty()) {
        const Tick arrival = frontRequest().arrival;
        Tick admit_at = std::max(arrival, now_ + 1);
        Tick first_free = std::min(readOutstanding_.firstFreeAfter(now_),
                                   writeOutstanding_.firstFreeAfter(now_));
        if (first_free != kTickMax)
            admit_at = std::min(admit_at, std::max(now_ + 1, first_free));
        // Front request not yet arrived = truly idle; arrived but
        // unadmittable = the queues/CAM are the bottleneck.
        offer(admit_at, arrival > now_ ? StallCause::NoRequest
                                       : StallCause::BankBusy);
    }
    for (const auto& u : refreshUnits_) {
        if (pendingRefreshCount(u) == 0)
            offer(u.rot.due, StallCause::Refresh);
    }
    // Adaptive-timeout expiry counts as NoRequest.
    offer(adaptive_next, StallCause::NoRequest);
    return wake;
}

bool
ConventionalMc::stepOnce(Tick until)
{
    return cfg_.legacyScheduler ? stepOnceLegacy(until)
                                : stepOnceIndexed(until);
}

// ---------------------------------------------------------------------------
// Indexed scheduler
// ---------------------------------------------------------------------------

bool
ConventionalMc::candBeats(const Candidate& a, const Candidate& b)
{
    if (a.earliest != b.earliest)
        return a.earliest < b.earliest;
    return candRankLess(a, b);
}

bool
ConventionalMc::candRankLess(const Candidate& a, const Candidate& b)
{
    if (a.priority != b.priority)
        return a.priority < b.priority;
    if (a.age != b.age)
        return a.age < b.age;
    if (a.rankCat != b.rankCat)
        return a.rankCat < b.rankCat;
    return a.rankIdx < b.rankIdx;
}

void
ConventionalMc::insertOpIndexed(const Op& op)
{
    const int bank = flatBankIndex(dramCfg_.org, op.addr);
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    const bool is_write = op.kind == ReqKind::Write;
    BankList& l = is_write ? e.write : e.read;
    const std::uint64_t seq = admitSeq_++;
    ++l.count;
    if (is_write)
        ++writeCount_;
    else
        ++readCount_;
    const BankRecord& rec = dev_.bankRecord(bank);
    const bool hit = rec.open() && rec.openRow == op.addr.row;

    if (l.tail != -1) {
        // The op continues the tail run when it carries the same ticket
        // and row, takes the next column and keeps the run's seq stride.
        // It then shares the run's arrival and hit state, so the hit rep,
        // arrival bound, ordering, CAS entry and row worklist all stand.
        OpNode& t = pool_[static_cast<std::size_t>(l.tail)];
        if (t.op.addr.row == op.addr.row &&
            t.op.addr.col + t.count == op.addr.col && sameTicket(t.op, op)) {
            const std::uint64_t gap =
                seq - (t.seq + static_cast<std::uint64_t>(t.count - 1) *
                                   static_cast<std::uint64_t>(t.seqStride));
            if (t.count == 1 && gap <= kMaxSeqStride)
                t.seqStride = static_cast<int>(gap);
            if (gap == static_cast<std::uint64_t>(t.seqStride)) {
                ++t.count;
                if (hit)
                    ++l.hitCount;
                return;
            }
        }
    }

    int node;
    if (!freeNodes_.empty()) {
        node = freeNodes_.back();
        freeNodes_.pop_back();
    } else {
        node = static_cast<int>(pool_.size());
        pool_.emplace_back();
    }
    OpNode& n = pool_[static_cast<std::size_t>(node)];
    n.op = op;
    n.seq = seq;
    n.count = 1;
    n.seqStride = 0;
    n.bank = bank;
    n.prev = n.next = -1;
    if (l.tail == -1) {
        l.head = l.tail = node;
    } else {
        OpNode& t = pool_[static_cast<std::size_t>(l.tail)];
        if (op.arrival < t.op.arrival)
            l.ordered = false; // an ECC retry re-enters behind younger ops
        t.next = node;
        n.prev = l.tail;
        l.tail = node;
    }
    if (hit) {
        ++l.hitCount;
        if (l.hitRep == -1 ||
            op.arrival <
                pool_[static_cast<std::size_t>(l.hitRep)].op.arrival) {
            l.hitRep = node; // new seq is larger, so ties keep the old rep
        }
    }
    if (op.arrival < l.minArrivalLb)
        l.minArrivalLb = op.arrival;
    syncCasEntry(l, bank, is_write);
    syncRowWork(bank);
}

void
ConventionalMc::removeHeadOp(int node)
{
    OpNode& n = pool_[static_cast<std::size_t>(node)];
    BankEntry& e = bankIx_[static_cast<std::size_t>(n.bank)];
    const bool is_write = n.op.kind == ReqKind::Write;
    BankList& l = is_write ? e.write : e.read;
    --l.count;
    if (is_write)
        --writeCount_;
    else
        --readCount_;
    const BankRecord& rec = dev_.bankRecord(n.bank);
    if (rec.open() && rec.openRow == n.op.addr.row)
        --l.hitCount;

    if (--n.count > 0) {
        // The run's next op becomes its head. It has the same arrival and
        // row and the next seq, so it is the list's next-best op exactly
        // where the consumed one was: only the CAS-list key moves.
        ++n.op.addr.col;
        n.seq += static_cast<std::uint64_t>(n.seqStride);
        syncCasEntry(l, n.bank, is_write);
        return;
    }

    if (n.prev != -1)
        pool_[static_cast<std::size_t>(n.prev)].next = n.next;
    else
        l.head = n.next;
    if (n.next != -1)
        pool_[static_cast<std::size_t>(n.next)].prev = n.prev;
    else
        l.tail = n.prev;
    if (l.count == 0) {
        l.hitRep = -1;
        l.minArrivalLb = kTickMax;
        l.ordered = true;
    } else {
        if (l.ordered)
            l.minArrivalLb = pool_[static_cast<std::size_t>(l.head)].op.arrival;
        if (l.hitRep == node) {
            if (l.hitCount == 0) {
                l.hitRep = -1;
            } else if (l.ordered) {
                // The rep was the first hit in list order: its successor
                // is the next hit after it.
                int i = n.next;
                while (pool_[static_cast<std::size_t>(i)].op.addr.row !=
                       rec.openRow)
                    i = pool_[static_cast<std::size_t>(i)].next;
                l.hitRep = i;
            } else {
                rescanList(l, rec.openRow);
            }
        }
    }
    freeNodes_.push_back(node);
    syncCasEntry(l, n.bank, is_write);
    syncRowWork(n.bank);
}

void
ConventionalMc::rescanList(BankList& l, int open_row)
{
    l.hitCount = 0;
    l.hitRep = -1;
    Tick min_arr = kTickMax;
    for (int i = l.head; i != -1;
         i = pool_[static_cast<std::size_t>(i)].next) {
        const OpNode& n = pool_[static_cast<std::size_t>(i)];
        min_arr = std::min(min_arr, n.op.arrival);
        if (open_row >= 0 && n.op.addr.row == open_row) {
            l.hitCount += n.count;
            if (l.hitRep == -1 ||
                n.op.arrival <
                    pool_[static_cast<std::size_t>(l.hitRep)].op.arrival) {
                l.hitRep = i; // walk is in seq order: ties keep the first
            }
        }
    }
    l.minArrivalLb = min_arr;
}

void
ConventionalMc::reindexBankRow(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    const BankRecord& rec = dev_.bankRecord(bank);
    const int open_row = rec.open() ? rec.openRow : -1;
    rescanList(e.read, open_row);
    rescanList(e.write, open_row);
    syncCasEntry(e.read, bank, false);
    syncCasEntry(e.write, bank, true);
    syncRowWork(bank);
}

void
ConventionalMc::syncCasEntry(BankList& l, int bank, bool is_write)
{
    // A listed entry always names a live run (every removal syncs before
    // its node can be reused), so an unchanged node id and head seq is an
    // unchanged rep.
    const int rep = l.hitRep;
    if (l.listed ? rep == l.entry.node &&
                       pool_[static_cast<std::size_t>(rep)].seq == l.entry.seq
                 : rep == -1)
        return;
    auto& list = casLists_[static_cast<std::size_t>(
        bankIx_[static_cast<std::size_t>(bank)].addr.pc)];
    if (rep == -1) {
        list.erase(std::lower_bound(list.begin(), list.end(), l.entry));
        l.listed = false;
        return;
    }
    const OpNode& n = pool_[static_cast<std::size_t>(rep)];
    const CasEntry next{n.op.arrival, n.seq, rep, bank, is_write};
    if (!l.listed) {
        list.insert(std::upper_bound(list.begin(), list.end(), next), next);
        l.entry = next;
        l.listed = true;
        return;
    }
    // A new rep shifts the entry in place to its new key's slot.
    auto i = static_cast<std::size_t>(
        std::lower_bound(list.begin(), list.end(), l.entry) - list.begin());
    if (l.entry < next) {
        for (; i + 1 < list.size() && list[i + 1] < next; ++i)
            list[i] = list[i + 1];
    } else {
        for (; i > 0 && next < list[i - 1]; --i)
            list[i] = list[i - 1];
    }
    list[i] = next;
    l.entry = next;
}

void
ConventionalMc::syncRowWork(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    // A closed bank has no hits, so this is "has work" when closed and
    // "has a conflicting op" when open.
    const bool row_work =
        e.read.count > e.read.hitCount || e.write.count > e.write.hitCount;
    if (row_work && e.rowPos == -1) {
        e.rowPos = static_cast<int>(rowBanks_.size());
        rowBanks_.push_back(bank);
    } else if (!row_work && e.rowPos != -1) {
        const int last = rowBanks_.back();
        rowBanks_[static_cast<std::size_t>(e.rowPos)] = last;
        bankIx_[static_cast<std::size_t>(last)].rowPos = e.rowPos;
        rowBanks_.pop_back();
        e.rowPos = -1;
    }
}

int
ConventionalMc::agedConflictRep(const BankEntry& e, bool any_write,
                                int open_row, bool& rep_is_write)
{
    const Tick thr = cfg_.agePriorityThreshold;
    if (e.read.count > 0 && now_ - e.read.minArrivalLb > thr) {
        for (int i = e.read.head; i != -1;
             i = pool_[static_cast<std::size_t>(i)].next) {
            const OpNode& n = pool_[static_cast<std::size_t>(i)];
            if (now_ - n.op.arrival > thr && n.op.addr.row != open_row) {
                rep_is_write = false;
                return i;
            }
        }
    }
    if (any_write && e.write.count > 0 &&
        now_ - e.write.minArrivalLb > thr) {
        for (int i = e.write.head; i != -1;
             i = pool_[static_cast<std::size_t>(i)].next) {
            const OpNode& n = pool_[static_cast<std::size_t>(i)];
            if (now_ - n.op.arrival > thr && n.op.addr.row != open_row) {
                rep_is_write = true;
                return i;
            }
        }
    }
    return -1;
}

void
ConventionalMc::noteBankOpened(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    if (e.openPos != -1)
        return;
    e.openPos = static_cast<int>(openBanks_.size());
    openBanks_.push_back(bank);
}

void
ConventionalMc::noteBankClosed(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    if (e.openPos == -1)
        return;
    const int last = openBanks_.back();
    openBanks_[static_cast<std::size_t>(e.openPos)] = last;
    bankIx_[static_cast<std::size_t>(last)].openPos = e.openPos;
    openBanks_.pop_back();
    e.openPos = -1;
}

void
ConventionalMc::applyRowCommand(const Command& cmd)
{
    const int bank = flatBankIndex(dramCfg_.org, cmd.addr);
    if (cmd.kind == CmdKind::Act)
        noteBankOpened(bank);
    else if (cmd.kind == CmdKind::Pre)
        noteBankClosed(bank);
    reindexBankRow(bank);
}

bool
ConventionalMc::stepOnceIndexed(Tick until)
{
    readOutstanding_.release(now_);
    writeOutstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries(); // before admission: retries compete for queue space
    pumpArrivals();
    updateWriteDrain();

    Candidate best;
    bool have_best = false;
    // Probe pruning: a candidate whose cheap lower bound (floor) cannot
    // strictly beat the running best — and whose tie-break key loses on an
    // exact tie — is discarded without the exact earliestIssue probe. The
    // winner is the unique argmin of (earliest, candRankLess), so neither
    // pruning nor the visiting order below changes it.
    const auto pruned = [&](const Candidate& c) {
        return have_best &&
               (c.floor > best.earliest ||
                (c.floor == best.earliest && candRankLess(best, c)));
    };
    const auto probe = [&](Candidate& c) {
        c.earliest = dev_.earliestIssue(c.cmd, now_);
        if (c.earliest != kTickMax && (!have_best || candBeats(c, best))) {
            best = c;
            have_best = true;
        }
    };
    const auto consider = [&](Candidate& c) {
        if (!pruned(c))
            probe(c);
    };

    // --- refresh: the per-step forced-block table and candidates -------
    // A unit owes a refresh once now >= due and is forced once it owes
    // kRefreshForceAt, i.e. now >= due + (kRefreshForceAt - 1) * interval.
    // The candidates are offered last, once the op candidates have set a
    // running best that usually prunes them.
    bool any_forced = false;
    refreshCands_.clear();
    if (cfg_.refreshEnabled && now_ >= refreshDue_) {
        for (std::size_t i = 0; i < refreshUnits_.size(); ++i) {
            const RefreshUnit& u = refreshUnits_[i];
            unitForcedBank_[i] = -1;
            if (now_ < u.rot.due)
                continue;
            DramAddress a;
            a.pc = u.pc;
            a.sid = u.sid;
            a.bg = u.rot.cursor / dramCfg_.org.banksPerGroup;
            a.bank = u.rot.cursor % dramCfg_.org.banksPerGroup;
            const int bank = flatBankIndex(dramCfg_.org, a);
            const BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
            const bool forced =
                now_ - u.rot.due >= (kRefreshForceAt - 1) * u.rot.interval;
            if (forced) {
                unitForcedBank_[i] = bank;
                any_forced = true;
            } else if (e.read.count + e.write.count > 0) {
                continue; // postpone while the target bank has queued work
            }
            Candidate c;
            c.isRefresh = true;
            c.refreshUnit = static_cast<int>(i);
            c.priority = forced ? kPrioForced : kPrioRefresh;
            c.age = u.rot.due; // most-overdue first among refresh ties
            c.rankCat = kRankRefresh;
            c.rankIdx = i;
            if (dev_.bankRecord(a).open()) {
                a.row = dev_.openRow(a);
                c.cmd = Command{CmdKind::Pre, a};
                c.floor = dev_.preFloor(a, now_);
            } else {
                c.cmd = Command{CmdKind::RefPb, a};
                c.floor = dev_.refPbFloor(a, now_);
            }
            refreshCands_.push_back(c);
        }
    }
    const auto held = [&](const DramAddress& bank_addr, int bank) {
        return any_forced &&
               unitForcedBank_[static_cast<std::size_t>(
                   bank_addr.pc * dramCfg_.org.sidsPerChannel +
                   bank_addr.sid)] == bank;
    };

    // --- CAS candidates: each PC's hit representatives in rank order ----
    // All of a PC's column commands share its floor, so the first entry
    // whose exact probe lands on the floor beats every later one, and
    // the first entry pruned on (floor, rank) means all later ones are.
    const bool draining = drainingWrites_;
    const Tick thr = cfg_.agePriorityThreshold;
    for (std::size_t pc = 0; pc < casLists_.size(); ++pc) {
        const auto& list = casLists_[pc];
        if (list.empty())
            continue;
        const Tick floor = dev_.casFloor(static_cast<int>(pc), now_);
        for (const CasEntry& ce : list) {
            if (ce.isWrite && !draining)
                continue;
            Candidate c;
            c.priority = now_ - ce.arrival > thr ? kPrioForced : kPrioCasHit;
            c.age = ce.arrival;
            c.rankCat = ce.isWrite ? kRankWriteOp : kRankReadOp;
            c.rankIdx = ce.seq;
            c.floor = floor;
            if (pruned(c))
                break;
            const BankEntry& e = bankIx_[static_cast<std::size_t>(ce.bank)];
            if (held(e.addr, ce.bank))
                continue; // bank held for a forced refresh
            c.cmd = Command{ce.isWrite ? CmdKind::Wr : CmdKind::Rd,
                            pool_[static_cast<std::size_t>(ce.node)].op.addr};
            c.opIndex = ce.node;
            c.isWrite = ce.isWrite;
            probe(c);
            if (c.earliest == floor)
                break;
        }
    }

    // --- row commands: ACT for closed banks, conflict PRE for open ones -
    for (const int b : rowBanks_) {
        const BankEntry& e = bankIx_[static_cast<std::size_t>(b)];
        const bool any_read = e.read.count > 0;
        const bool any_write = draining && e.write.count > 0;
        if (!any_read && !any_write)
            continue;
        if (held(e.addr, b))
            continue; // bank held for a forced refresh
        const BankRecord& rec = dev_.bankRecord(b);
        if (!rec.open()) {
            // One structural ACT candidate: the first queued op (in
            // read-then-write admission order) supplies row and age.
            const Tick floor = dev_.actFloor(e.addr.pc, e.addr.sid, now_);
            if (have_best && floor > best.earliest)
                continue;
            const int node = any_read ? e.read.head : e.write.head;
            const OpNode& n = pool_[static_cast<std::size_t>(node)];
            Candidate c;
            c.cmd = Command{CmdKind::Act, n.op.addr};
            c.priority =
                now_ - n.op.arrival > thr ? kPrioForced : kPrioAct;
            c.age = n.op.arrival;
            c.rankCat = any_read ? kRankReadOp : kRankWriteOp;
            c.rankIdx = n.seq;
            c.floor = floor;
            consider(c);
            continue;
        }

        // Conflict precharge: only when no queued op still hits the open
        // row, unless a conflicting op is aged (QoS).
        const bool conflicts =
            e.read.count > e.read.hitCount ||
            (any_write && e.write.count > e.write.hitCount);
        if (!conflicts)
            continue;
        const Tick floor = dev_.preFloor(e.addr, now_);
        if (have_best && floor > best.earliest)
            continue;
        const bool has_hit =
            e.read.hitCount > 0 || (draining && e.write.hitCount > 0);
        int rep = -1;
        bool rep_write = false;
        if (!has_hit) {
            rep = any_read ? e.read.head : e.write.head;
            rep_write = !any_read;
        } else {
            rep = agedConflictRep(e, any_write, rec.openRow, rep_write);
        }
        if (rep != -1) {
            const OpNode& n = pool_[static_cast<std::size_t>(rep)];
            DramAddress a = n.op.addr;
            a.row = rec.openRow;
            Candidate c;
            c.cmd = Command{CmdKind::Pre, a};
            c.priority =
                now_ - n.op.arrival > thr ? kPrioForced : kPrioPre;
            c.age = n.op.arrival;
            c.rankCat = rep_write ? kRankWriteOp : kRankReadOp;
            c.rankIdx = n.seq;
            c.floor = floor;
            consider(c);
        }
    }

    for (Candidate& c : refreshCands_)
        consider(c);

    // --- close/adaptive policies: precharge idle open rows --------------
    // A bank that also has a conflict PRE offers the same command at the
    // same tick with a more urgent priority, so its idle PRE never wins.
    if (cfg_.pagePolicy != PagePolicy::Open) {
        for (const int b : openBanks_) {
            const BankEntry& e = bankIx_[static_cast<std::size_t>(b)];
            if (e.read.hitCount > 0 || (draining && e.write.hitCount > 0))
                continue;
            const BankRecord& rec = dev_.bankRecord(b);
            if (cfg_.pagePolicy == PagePolicy::Adaptive &&
                now_ - bankLastUse(rec) < cfg_.adaptiveIdleTimeout) {
                continue;
            }
            DramAddress a = e.addr;
            a.row = rec.openRow;
            Candidate c;
            c.cmd = Command{CmdKind::Pre, a};
            c.priority = kPrioIdlePre;
            c.age = 0;
            c.rankCat = kRankIdlePre;
            c.rankIdx = static_cast<std::uint64_t>(b);
            c.floor = dev_.preFloor(a, now_);
            consider(c);
        }
    }

    if (!have_best) {
        Tick adaptive_next = kTickMax;
        if (cfg_.pagePolicy == PagePolicy::Adaptive) {
            for (const int b : openBanks_) {
                adaptive_next = std::min(
                    adaptive_next,
                    std::max(now_ + 1, bankLastUse(dev_.bankRecord(b)) +
                                           cfg_.adaptiveIdleTimeout));
            }
        }
        const IdleWake wake = idleWakeTick(adaptive_next);
        if (wake.at == kTickMax || wake.at > until) {
            // Nothing can happen before the bound: now_ stays on its last
            // event tick so decisions never depend on where time sliced.
            return false;
        }
        if (telemetryOn() && wake.at > now_) {
            // Pending writes parked below the drain bar outrank the wake
            // term's own cause.
            const bool parked =
                writeCount_ > 0 && !drainingWrites_ && readCount_ == 0;
            chargeStall(parked ? StallCause::WriteDrain : wake.cause, now_,
                        wake.at);
        }
        now_ = wake.at;
        return true;
    }

    if (best.earliest > until) {
        // Retried verbatim from the same event tick by the next call.
        return false;
    }

    if (telemetryOn() && best.earliest > now_) {
        // The winning candidate waited [now_, earliest): when the cheap
        // structural floor (tRRD/tFAW for ACT, CAS-chain/turnaround for
        // RD/WR) already equals the exact probe, that constraint binds;
        // otherwise the bank FSM itself was the holdup.
        StallCause cause = StallCause::BankBusy;
        if (best.isRefresh) {
            cause = StallCause::Refresh;
        } else if (best.cmd.kind == CmdKind::Rd ||
                   best.cmd.kind == CmdKind::Wr) {
            if (best.floor == best.earliest)
                cause = StallCause::CasChain;
        } else if (best.cmd.kind == CmdKind::Act &&
                   best.floor == best.earliest) {
            cause = StallCause::ActWindow;
        }
        chargeStall(cause, now_, best.earliest,
                    flatBankIndex(dramCfg_.org, best.cmd.addr));
    }
    now_ = best.earliest;
    const auto res = dev_.issue(best.cmd, now_);
    readQOcc_.sample(static_cast<double>(readCount_));

    if (best.isRefresh) {
        if (best.cmd.kind == CmdKind::RefPb) {
            RefreshUnit& u =
                refreshUnits_[static_cast<std::size_t>(best.refreshUnit)];
            u.rot.advance(dramCfg_.org.banksPerSid());
            updateRefreshDue();
            if (faults_.enabled())
                runScrub(retryQ_); // patrol scrub rides the refresh calendar
        } else {
            applyRowCommand(best.cmd); // opportunistic-refresh precharge
        }
    } else if (best.cmd.kind == CmdKind::Rd ||
               best.cmd.kind == CmdKind::Wr) {
        const Op op = pool_[static_cast<std::size_t>(best.opIndex)].op;
        removeHeadOp(best.opIndex);
        (best.isWrite ? writeOutstanding_ : readOutstanding_)
            .push(res.dataUntil);
        ++casIssued_;
        completeOp(op, res.dataUntil);
    } else {
        applyRowCommand(best.cmd); // ACT or conflict/idle PRE
    }
    return true;
}

// ---------------------------------------------------------------------------
// Legacy scheduler (the seed's rescan-everything loop; decision oracle).
// Test-only: compiled out under -DROME_ORACLES=OFF — the constructor
// rejects cfg_.legacyScheduler there, so the stubs are unreachable.
// ---------------------------------------------------------------------------

#if ROME_ORACLES

void
ConventionalMc::collectRefreshCandidates(std::vector<Candidate>& out) const
{
    for (std::size_t i = 0; i < refreshUnits_.size(); ++i) {
        const RefreshUnit& u = refreshUnits_[i];
        const int pending = pendingRefreshCount(u);
        if (pending == 0)
            continue;
        DramAddress a;
        a.pc = u.pc;
        a.sid = u.sid;
        a.bg = u.rot.cursor / dramCfg_.org.banksPerGroup;
        a.bank = u.rot.cursor % dramCfg_.org.banksPerGroup;

        const bool forced = pending >= kRefreshForceAt;
        if (!forced) {
            // Postpone while the target bank has queued work.
            const auto targets_bank = [&](const Op& op) {
                return op.addr.pc == a.pc && op.addr.sid == a.sid &&
                       op.addr.bg == a.bg && op.addr.bank == a.bank;
            };
            if (std::any_of(readQ_.begin(), readQ_.end(), targets_bank) ||
                std::any_of(writeQ_.begin(), writeQ_.end(), targets_bank)) {
                continue;
            }
        }

        Candidate c;
        c.isRefresh = true;
        c.refreshUnit = static_cast<int>(i);
        c.priority = forced ? kPrioForced : kPrioRefresh;
        c.age = u.rot.due; // most-overdue first among refresh ties
        if (dev_.bankRecord(a).open()) {
            a.row = dev_.openRow(a);
            c.cmd = Command{CmdKind::Pre, a};
        } else {
            c.cmd = Command{CmdKind::RefPb, a};
        }
        c.earliest = dev_.earliestIssue(c.cmd, now_);
        if (c.earliest != kTickMax)
            out.push_back(c);
    }
}

void
ConventionalMc::collectOpCandidates(std::vector<Candidate>& out) const
{
    // Per-bank summary: does any queued op hit the open row?
    struct BankWork
    {
        bool hasHit = false;
    };
    std::unordered_map<int, BankWork> work;
    const auto scan = [&](const std::vector<Op>& q) {
        for (const Op& op : q) {
            const int idx = flatBankIndex(dramCfg_.org, op.addr);
            const BankRecord& rec = dev_.bankRecord(op.addr);
            auto& w = work[idx];
            if (rec.open() && rec.openRow == op.addr.row)
                w.hasHit = true;
        }
    };
    scan(readQ_);
    if (drainingWrites_)
        scan(writeQ_);

    // Track banks we already emitted an ACT/PRE candidate for (dedupe).
    std::unordered_set<int> act_banks, pre_banks;

    const auto consider = [&](const std::vector<Op>& q, bool is_write) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Op& op = q[i];
            if (refreshBlocked(op.addr))
                continue;
            const BankRecord& rec = dev_.bankRecord(op.addr);
            const int bank_idx = flatBankIndex(dramCfg_.org, op.addr);
            const bool aged = now_ - op.arrival > cfg_.agePriorityThreshold;

            Candidate c;
            c.age = op.arrival;
            c.opIndex = static_cast<int>(i);
            c.isWrite = is_write;
            if (rec.open() && rec.openRow == op.addr.row) {
                c.cmd = Command{is_write ? CmdKind::Wr : CmdKind::Rd,
                                op.addr};
                c.priority = aged ? kPrioForced : kPrioCasHit;
            } else if (!rec.open()) {
                if (!act_banks.insert(bank_idx).second)
                    continue;
                c.cmd = Command{CmdKind::Act, op.addr};
                c.priority = aged ? kPrioForced : kPrioAct;
                c.opIndex = -1;
            } else {
                // Conflict: precharge only when no queued op still hits the
                // open row, unless the conflicting op is aged (QoS).
                const auto it = work.find(bank_idx);
                const bool has_hit = it != work.end() && it->second.hasHit;
                if (has_hit && !aged)
                    continue;
                if (!pre_banks.insert(bank_idx).second)
                    continue;
                DramAddress a = op.addr;
                a.row = rec.openRow;
                c.cmd = Command{CmdKind::Pre, a};
                c.priority = aged ? kPrioForced : kPrioPre;
                c.opIndex = -1;
            }
            c.earliest = dev_.earliestIssue(c.cmd, now_);
            if (c.earliest != kTickMax)
                out.push_back(c);
        }
    };
    consider(readQ_, false);
    if (drainingWrites_)
        consider(writeQ_, true);

    // Close/adaptive page policies: precharge open rows with no pending hit.
    if (cfg_.pagePolicy != PagePolicy::Open) {
        for (int pc = 0; pc < dramCfg_.org.pcsPerChannel; ++pc) {
            for (int sid = 0; sid < dramCfg_.org.sidsPerChannel; ++sid) {
                for (int bg = 0; bg < dramCfg_.org.bankGroupsPerSid; ++bg) {
                    for (int ba = 0; ba < dramCfg_.org.banksPerGroup; ++ba) {
                        DramAddress a{pc, sid, bg, ba, 0, 0};
                        const BankRecord& rec = dev_.bankRecord(a);
                        if (!rec.open())
                            continue;
                        const int idx = flatBankIndex(dramCfg_.org, a);
                        const auto it = work.find(idx);
                        if (it != work.end() && it->second.hasHit)
                            continue;
                        if (cfg_.pagePolicy == PagePolicy::Adaptive &&
                            now_ - bankLastUse(rec) <
                                cfg_.adaptiveIdleTimeout) {
                            continue;
                        }
                        if (!pre_banks.insert(idx).second)
                            continue;
                        a.row = rec.openRow;
                        Candidate c;
                        c.cmd = Command{CmdKind::Pre, a};
                        c.priority = kPrioIdlePre;
                        c.age = 0;
                        c.earliest = dev_.earliestIssue(c.cmd, now_);
                        if (c.earliest != kTickMax)
                            out.push_back(c);
                    }
                }
            }
        }
    }
}

bool
ConventionalMc::stepOnceLegacy(Tick until)
{
    readOutstanding_.release(now_);
    writeOutstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries(); // before admission: retries compete for queue space
    pumpArrivals();
    updateWriteDrain();

    std::vector<Candidate> cands;
    cands.reserve(readQ_.size() + writeQ_.size() + refreshUnits_.size());
    collectRefreshCandidates(cands);
    collectOpCandidates(cands);

    if (cands.empty()) {
        Tick adaptive_next = kTickMax;
        if (cfg_.pagePolicy == PagePolicy::Adaptive) {
            for (int pc = 0; pc < dramCfg_.org.pcsPerChannel; ++pc) {
                for (int sid = 0; sid < dramCfg_.org.sidsPerChannel; ++sid) {
                    for (int bg = 0; bg < dramCfg_.org.bankGroupsPerSid;
                         ++bg) {
                        for (int ba = 0; ba < dramCfg_.org.banksPerGroup;
                             ++ba) {
                            const BankRecord& rec = dev_.bankRecord(
                                DramAddress{pc, sid, bg, ba, 0, 0});
                            if (!rec.open())
                                continue;
                            adaptive_next = std::min(
                                adaptive_next,
                                std::max(now_ + 1,
                                         bankLastUse(rec) +
                                         cfg_.adaptiveIdleTimeout));
                        }
                    }
                }
            }
        }
        const Tick next = idleWakeTick(adaptive_next).at;
        if (next == kTickMax || next > until) {
            // now_ stays on its last event tick (slice invariance).
            return false;
        }
        now_ = next;
        return true;
    }

    const Candidate* best = nullptr;
    for (const Candidate& c : cands) {
        if (!best || c.earliest < best->earliest ||
            (c.earliest == best->earliest &&
             (c.priority < best->priority ||
              (c.priority == best->priority && c.age < best->age)))) {
            best = &c;
        }
    }

    if (best->earliest > until) {
        // Retried verbatim from the same event tick by the next call.
        return false;
    }

    now_ = best->earliest;
    const auto res = dev_.issue(best->cmd, now_);
    readQOcc_.sample(static_cast<double>(readQ_.size()));

    if (best->isRefresh) {
        if (best->cmd.kind == CmdKind::RefPb) {
            RefreshUnit& u =
                refreshUnits_[static_cast<std::size_t>(best->refreshUnit)];
            u.rot.advance(dramCfg_.org.banksPerSid());
            if (faults_.enabled())
                runScrub(retryQ_); // patrol scrub rides the refresh calendar
        }
    } else if (best->cmd.kind == CmdKind::Rd || best->cmd.kind == CmdKind::Wr) {
        auto& queue = best->isWrite ? writeQ_ : readQ_;
        const Op op = queue[static_cast<std::size_t>(best->opIndex)];
        queue.erase(queue.begin() + best->opIndex);
        (best->isWrite ? writeOutstanding_ : readOutstanding_)
            .push(res.dataUntil);
        ++casIssued_;
        completeOp(op, res.dataUntil);
    }
    return true;
}

#else // !ROME_ORACLES

void
ConventionalMc::collectRefreshCandidates(std::vector<Candidate>&) const
{
    panic("legacy oracle compiled out (ROME_ORACLES=OFF)");
}

void
ConventionalMc::collectOpCandidates(std::vector<Candidate>&) const
{
    panic("legacy oracle compiled out (ROME_ORACLES=OFF)");
}

bool
ConventionalMc::stepOnceLegacy(Tick)
{
    panic("legacy oracle compiled out (ROME_ORACLES=OFF)");
}

#endif // ROME_ORACLES

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double
ConventionalMc::achievedBandwidth() const
{
    const Tick end = dev_.lastDataEnd();
    if (end == 0)
        return 0.0;
    return static_cast<double>(bytesRead_ + bytesWritten_) /
           nsFromTicks(end);
}

double
ConventionalMc::rowHitRate() const
{
    // Every CAS either hit an already-open row or required an ACT first.
    if (casIssued_ == 0)
        return 0.0;
    const auto acts = dev_.counters().acts.value();
    if (acts >= casIssued_)
        return 0.0;
    return 1.0 - static_cast<double>(acts) /
                 static_cast<double>(casIssued_);
}

McComplexity
ConventionalMc::complexity() const
{
    McComplexity c;
    c.numTimingParams = TimingParams::kNumMcVisibleParams;
    // One FSM per bank of each PC (Figure 4: N = total banks per PC).
    c.numBankFsms = dramCfg_.org.sidsPerChannel *
                    dramCfg_.org.banksPerSid();
    c.numBankStates = kNumConventionalBankStates;
    switch (cfg_.pagePolicy) {
      case PagePolicy::Open: c.pagePolicy = "Open"; break;
      case PagePolicy::Close: c.pagePolicy = "Close"; break;
      case PagePolicy::Adaptive: c.pagePolicy = "Adaptive"; break;
    }
    c.schedulingConcerns = {"Row-buffer locality", "Bank interleaving",
                            "Bank group interleaving", "PC interleaving"};
    // Reported per PC (Table IV compares per-controller structures).
    c.requestQueueDepth = cfg_.readQueueDepth /
                          dramCfg_.org.pcsPerChannel;
    return c;
}

ControllerStats
ConventionalMc::stats() const
{
    ControllerStats s;
    fillBaseStats(s);
    // Conventional MCs drive every DRAM command over the interface.
    s.interfaceCommands = s.rowCmds + s.colCmds;
    s.achievedBandwidth = achievedBandwidth();
    s.effectiveBandwidth = s.achievedBandwidth;
    s.rowHitRate = rowHitRate();
    return s;
}

// ---- checkpointing -------------------------------------------------------

namespace
{

void
putDramAddress(CheckpointWriter& w, const DramAddress& a)
{
    w.putI32(a.pc);
    w.putI32(a.sid);
    w.putI32(a.bg);
    w.putI32(a.bank);
    w.putI32(a.row);
    w.putI32(a.col);
}

DramAddress
getDramAddress(CheckpointReader& r)
{
    DramAddress a;
    a.pc = r.getI32();
    a.sid = r.getI32();
    a.bg = r.getI32();
    a.bank = r.getI32();
    a.row = r.getI32();
    a.col = r.getI32();
    return a;
}

} // namespace

void
ConventionalMc::saveCheckpoint(CheckpointWriter& w) const
{
    if (sink_ != nullptr)
        sink_->instant("checkpoint", TelemetrySink::kChannelTrack, now_);
    // An op's arrival is its record's; restore takes it from there.
    const auto put_op = [&w](const Op& op) {
        putDramAddress(w, op.addr);
        w.putI32(op.slot);
        w.putU8(static_cast<std::uint8_t>(op.kind));
        w.putI32(op.attempt);
    };
    const auto put_bank_list = [&w](const BankList& l) {
        w.putI32(l.head);
        w.putI32(l.tail);
        w.putI32(l.count);
    };

    saveBaseState(w);
    dev_.saveState(w);

    w.putCount(readQ_.size());
    for (const Op& op : readQ_)
        put_op(op);
    w.putCount(writeQ_.size());
    for (const Op& op : writeQ_)
        put_op(op);

    w.putCount(pool_.size());
    for (const OpNode& n : pool_) {
        put_op(n.op);
        w.putU64(n.seq);
        w.putI32(n.count);
        w.putI32(n.seqStride);
        w.putI32(n.bank);
        w.putI32(n.prev);
        w.putI32(n.next);
    }
    w.putCount(freeNodes_.size());
    for (const int n : freeNodes_)
        w.putI32(n);
    w.putCount(bankIx_.size());
    for (const BankEntry& e : bankIx_) {
        put_bank_list(e.read);
        put_bank_list(e.write);
    }
    w.putU64(admitSeq_);

    readOutstanding_.saveState(w);
    writeOutstanding_.saveState(w);
    w.putBool(drainingWrites_);
    w.putCount(refreshUnits_.size());
    for (const RefreshUnit& u : refreshUnits_) {
        w.putI64(u.rot.interval);
        w.putI64(u.rot.due);
        w.putI32(u.rot.cursor);
    }

    retryQ_.saveState(w, put_op);

    w.putU64(casIssued_);
    readQOcc_.saveState(w);
}

void
ConventionalMc::restoreCheckpoint(CheckpointReader& r)
{
    const Organization& org = dramCfg_.org;
    const auto get_op = [&r, &org]() {
        Op op;
        op.addr = getDramAddress(r);
        if (!addressInRange(org, op.addr))
            fatal("hbm4 checkpoint: op address %s out of range",
                  op.addr.str().c_str());
        op.slot = r.getI32();
        const std::uint8_t kind = r.getU8();
        if (kind != static_cast<std::uint8_t>(ReqKind::Read) &&
            kind != static_cast<std::uint8_t>(ReqKind::Write))
            fatal("hbm4 checkpoint: bad op kind %u", kind);
        op.kind = static_cast<ReqKind>(kind);
        op.attempt = r.getI32();
        return op;
    };
    const auto get_bank_list = [&r](BankList& l) {
        l = BankList{};
        l.head = r.getI32();
        l.tail = r.getI32();
        l.count = r.getI32();
    };

    loadBaseState(r);
    dev_.loadState(r);

    // Queued and retrying ops are bound to their records as they load;
    // a pool node is bound when rebuildIndex finds it on a bank list
    // (free nodes keep stale contents).
    const auto get_live_op = [&] {
        Op op = get_op();
        adoptRestoredOp(op);
        return op;
    };
    readQ_.resize(r.getCount());
    for (Op& op : readQ_)
        op = get_live_op();
    writeQ_.resize(r.getCount());
    for (Op& op : writeQ_)
        op = get_live_op();

    const std::size_t nodes = r.getCount();
    const auto max_nodes =
        cfg_.legacyScheduler ? 0u
                             : static_cast<std::size_t>(cfg_.readQueueDepth +
                                                        cfg_.writeQueueDepth);
    if (nodes > max_nodes)
        fatal("hbm4 checkpoint: %zu op nodes exceed the queue depths", nodes);
    pool_.resize(nodes);
    for (OpNode& n : pool_) {
        n.op = get_op();
        n.seq = r.getU64();
        n.count = r.getI32();
        n.seqStride = r.getI32();
        n.bank = r.getI32();
        n.prev = r.getI32();
        n.next = r.getI32();
    }
    freeNodes_.resize(r.getCount());
    for (int& n : freeNodes_)
        n = r.getI32();
    if (r.getCount() != bankIx_.size())
        fatal("hbm4 checkpoint bank-index size mismatch");
    for (BankEntry& e : bankIx_) {
        get_bank_list(e.read);
        get_bank_list(e.write);
    }
    admitSeq_ = r.getU64();

    readOutstanding_.loadState(r);
    writeOutstanding_.loadState(r);
    drainingWrites_ = r.getBool();
    if (r.getCount() != refreshUnits_.size())
        fatal("hbm4 checkpoint refresh-unit count mismatch");
    for (RefreshUnit& u : refreshUnits_) {
        u.rot.interval = r.getI64();
        u.rot.due = r.getI64();
        u.rot.cursor = r.getI32();
        if (u.rot.interval <= 0 || u.rot.cursor < 0 ||
            u.rot.cursor >= org.banksPerSid())
            fatal("hbm4 checkpoint: bad refresh rotation");
    }
    updateRefreshDue();

    retryQ_.loadState(r, get_live_op);

    casIssued_ = r.getU64();
    readQOcc_.loadState(r);
    for (Lane& lane : lanes_)
        lane.line = kNoLine; // the restored fault state may remap rows
    if (!cfg_.legacyScheduler)
        rebuildIndex();
    checkRestoredOps();
}

void
ConventionalMc::rebuildIndex()
{
    // Every restored link is range- and consistency-checked before use:
    // each bank list must walk from head to tail through in-range,
    // not-yet-seen nodes of that bank and queue, with matching back links;
    // each run must belong to a live request record (which supplies its
    // arrival), hold at least one op, fit its row's columns, and have
    // a positive seq stride when longer than one op; the runs' seqs must
    // rise along the list and stay below the next admission seq, and
    // their op counts must sum to the list's count; the free list must
    // cover exactly the remaining nodes.
    const int npool = static_cast<int>(pool_.size());
    const int cols = dramCfg_.org.columnsPerRow();
    std::vector<char> seen(pool_.size(), 0);
    readCount_ = writeCount_ = 0;
    for (int b = 0; b < static_cast<int>(bankIx_.size()); ++b) {
        BankEntry& e = bankIx_[static_cast<std::size_t>(b)];
        for (const bool is_write : {false, true}) {
            BankList& l = is_write ? e.write : e.read;
            int prev = -1;
            std::uint64_t next_seq = 0; // lowest seq the next run may take
            long long walked = 0;
            for (int i = l.head; i != -1;
                 i = pool_[static_cast<std::size_t>(i)].next) {
                if (i < 0 || i >= npool || seen[static_cast<std::size_t>(i)])
                    fatal("hbm4 checkpoint: bad op-list link %d", i);
                seen[static_cast<std::size_t>(i)] = 1;
                OpNode& n = pool_[static_cast<std::size_t>(i)];
                if (n.bank != b || n.prev != prev ||
                    flatBankIndex(dramCfg_.org, n.op.addr) != b ||
                    (n.op.kind == ReqKind::Write) != is_write)
                    fatal("hbm4 checkpoint: op node %d is mislinked", i);
                if (n.count <= 0 || n.count > cols - n.op.addr.col ||
                    (n.count > 1 && n.seqStride <= 0))
                    fatal("hbm4 checkpoint: op run %d has bad shape", i);
                adoptRestoredOp(n.op, n.count);
                // Last seq of the run, checked below admitSeq_ without
                // overflowing.
                const auto span = static_cast<std::uint64_t>(n.count - 1) *
                                  static_cast<std::uint64_t>(
                                      std::max(n.seqStride, 0));
                if (n.seq < next_seq || n.seq >= admitSeq_ ||
                    admitSeq_ - n.seq <= span)
                    fatal("hbm4 checkpoint: op run %d seqs out of order", i);
                next_seq = n.seq + span + 1;
                if (prev != -1 &&
                    n.op.arrival <
                        pool_[static_cast<std::size_t>(prev)].op.arrival)
                    l.ordered = false;
                prev = i;
                walked += n.count;
            }
            if (prev != l.tail || walked != l.count)
                fatal("hbm4 checkpoint: bank %d op list is inconsistent", b);
            (is_write ? writeCount_ : readCount_) += l.count;
        }
    }
    for (const int n : freeNodes_) {
        if (n < 0 || n >= npool || seen[static_cast<std::size_t>(n)])
            fatal("hbm4 checkpoint: bad free op node %d", n);
        seen[static_cast<std::size_t>(n)] = 1;
    }
    if (std::find(seen.begin(), seen.end(), 0) != seen.end())
        fatal("hbm4 checkpoint: op node neither queued nor free");

    // Derived state: open banks from the device, then per bank the hit
    // summaries, CAS-list entries and row-worklist slot.
    for (auto& l : casLists_)
        l.clear();
    rowBanks_.clear();
    openBanks_.clear();
    for (int b = 0; b < static_cast<int>(bankIx_.size()); ++b) {
        BankEntry& e = bankIx_[static_cast<std::size_t>(b)];
        e.rowPos = e.openPos = -1;
        if (dev_.bankRecord(b).open())
            noteBankOpened(b);
        reindexBankRow(b);
    }
}

} // namespace rome
