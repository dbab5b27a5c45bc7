/**
 * @file
 * Busy-span calendar of one command bus (see SlotCalendar).
 */

#ifndef ROME_DRAM_SLOT_CALENDAR_H
#define ROME_DRAM_SLOT_CALENDAR_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/checkpoint.h"
#include "common/log.h"
#include "common/types.h"

namespace rome
{

/**
 * Occupied slots of one command bus; each reservation books one slot
 * [at, at + width). A calendar rather than a high-water mark: the RoMe
 * command generator lowers whole row operations at once, so a later
 * operation may legally claim an earlier free slot between commands that
 * were already committed.
 *
 * Busy time is held as sorted, disjoint, maximal spans [from, until): a
 * reservation merges with every span it overlaps or touches, so a
 * fixed-cadence column stream whose stride equals the slot width is one
 * entry, and the spans depend only on the set of booked slots, not on
 * the order they were booked in. nextFree and rangeFree answer exactly
 * as a set of slot starts would: a gap narrower than a slot keeps two
 * spans apart but fits no slot.
 *
 * Backed by a sorted vector with a retired-prefix cursor: reservations
 * are near-monotone, so inserts are almost always appends or extensions
 * of the newest span, lookups are cache-friendly binary searches, and a
 * warmed-up calendar books slots without calling the allocator.
 */
class SlotCalendar
{
  public:
    /** Time kept behind the newest reservation, in slots. */
    static constexpr Tick kHorizonSlots = 16384;

    struct Span
    {
        Tick from = 0;
        Tick until = 0;
    };

    explicit SlotCalendar(Tick width) : width_(width)
    {
        // Steady-state capacity: the live spans plus a retired prefix of
        // under kCompactAt. The busiest bus of the serving corpus keeps
        // about 1.8 Ki spans live (HBM4, mostly one-slot CAS spans), so
        // this reservation keeps reserve() allocation-free for the whole
        // run there. A denser bus (at most kHorizonSlots live spans, each
        // at least a slot long and a tick apart) grows the vector during
        // warm-up and then reuses it; reserving that bound for every bus
        // would cost far more memory than it saves.
        spans_.reserve(kInitialCapacity);
    }

    /** First tick >= @p t whose [t, t+width) window is free. */
    Tick
    nextFree(Tick t) const
    {
        // Fast path: conventional schedulers probe at monotonically
        // increasing times, so most queries land past the newest
        // reservation and need no search at all.
        if (spans_.empty() || t >= spans_.back().until)
            return t;
        Tick cand = t;
        for (auto it = firstEndingAfter(t);
             it != spans_.end() && it->from < cand + width_; ++it) {
            cand = std::max(cand, it->until);
        }
        return cand;
    }

    /**
     * True when no reservation overlaps [from, until) — a bulk probe
     * for a template's whole column-command stream.
     */
    bool
    rangeFree(Tick from, Tick until) const
    {
        if (spans_.empty() || from >= spans_.back().until)
            return true;
        const auto it = firstEndingAfter(from);
        return it == spans_.end() || it->from >= until;
    }

    /** Mark [at, at+width) busy. */
    void reserve(Tick at) { book(at, at + width_); }

    /**
     * Mark @p count slots busy, starting at @p at and @p stride apart.
     * A run whose stride equals the slot width books one span.
     */
    void
    reserveRun(Tick at, int count, Tick stride)
    {
        if (count <= 0)
            return;
        if (stride == width_) {
            book(at, at + static_cast<Tick>(count) * width_);
            return;
        }
        for (int i = 0; i < count; ++i, at += stride)
            book(at, at + width_);
    }

    /** Live (unretired) spans, oldest first. */
    std::size_t liveSpans() const { return spans_.size() - head_; }

    /** Serialize only the live spans; the retired prefix can never
     *  conflict again, so dropping it is behavior-preserving. */
    void
    saveState(CheckpointWriter& w) const
    {
        w.putCount(liveSpans());
        for (std::size_t i = head_; i < spans_.size(); ++i) {
            w.putI64(spans_[i].from);
            w.putI64(spans_[i].until);
        }
    }

    /** Inverse of saveState; fatal unless the spans are non-empty,
     *  sorted and separated by at least one tick (maximal). */
    void
    loadState(CheckpointReader& r)
    {
        head_ = 0;
        spans_.resize(r.getCount());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Span& s = spans_[i];
            s.from = r.getI64();
            s.until = r.getI64();
            if (s.from >= s.until ||
                (i > 0 && s.from <= spans_[i - 1].until)) {
                fatal("slot calendar span %zu is empty, unsorted or "
                      "not disjoint from its predecessor", i);
            }
        }
    }

  private:
    /** Retired prefix length that triggers compaction. */
    static constexpr std::size_t kCompactAt = 512;
    static constexpr std::size_t kInitialCapacity = 4096;

    /** First live span ending after @p t (the first that can overlap
     *  any window starting at or after t). */
    std::vector<Span>::const_iterator
    firstEndingAfter(Tick t) const
    {
        return std::partition_point(
            spans_.begin() + static_cast<std::ptrdiff_t>(head_),
            spans_.end(), [t](const Span& s) { return s.until <= t; });
    }

    /** Merge [from, until) into the spans, then retire old ones. */
    void
    book(Tick from, Tick until)
    {
        if (spans_.empty() || from > spans_.back().until) {
            spans_.push_back({from, until});
        } else if (from >= spans_.back().from) {
            spans_.back().until = std::max(spans_.back().until, until);
        } else {
            // Spans [lo, hi) overlap or touch the new one: merge them.
            const auto begin =
                spans_.begin() + static_cast<std::ptrdiff_t>(head_);
            const auto lo = std::partition_point(
                begin, spans_.end(),
                [from](const Span& s) { return s.until < from; });
            const auto hi = std::partition_point(
                lo, spans_.end(),
                [until](const Span& s) { return s.from <= until; });
            if (lo == hi) {
                spans_.insert(lo, {from, until});
            } else {
                lo->from = std::min(lo->from, from);
                lo->until = std::max((hi - 1)->until, until);
                spans_.erase(lo + 1, hi);
            }
        }
        // Bound memory: issue times are near-monotone, so spans ending
        // more than the horizon before the newest one can never conflict
        // again. Retire them behind the head cursor and compact in bulk
        // so capacity is reused, not grown.
        const Tick horizon = spans_.back().until - kHorizonSlots * width_;
        while (spans_[head_].until < horizon)
            ++head_;
        if (head_ >= kCompactAt) {
            spans_.erase(spans_.begin(),
                         spans_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    Tick width_;
    /** Spans before head_ are retired; the rest are live. */
    std::size_t head_ = 0;
    std::vector<Span> spans_;
};

} // namespace rome

#endif // ROME_DRAM_SLOT_CALENDAR_H
