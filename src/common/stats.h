/**
 * @file
 * Lightweight statistics primitives: counters, scalar gauges and
 * fixed-bucket latency histograms.
 */

#ifndef ROME_COMMON_STATS_H
#define ROME_COMMON_STATS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/checkpoint.h"

namespace rome
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    void saveState(CheckpointWriter& w) const { w.putU64(value_); }
    void loadState(CheckpointReader& r) { value_ = r.getU64(); }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running scalar statistics (count/sum/min/max/mean) over a stream of
 * samples; used for latency and queue-occupancy tracking.
 */
class Accumulator
{
  public:
    Accumulator() = default;

    /** Add one sample. */
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        sumSq_ += v * v;
        ++count_;
    }

    void reset() { *this = Accumulator{}; }

    /** Fold another accumulator's samples into this one. */
    void
    merge(const Accumulator& o)
    {
        if (o.count_ == 0)
            return;
        if (count_ == 0 || o.min_ < min_)
            min_ = o.min_;
        if (count_ == 0 || o.max_ > max_)
            max_ = o.max_;
        sum_ += o.sum_;
        sumSq_ += o.sumSq_;
        count_ += o.count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    /** Population variance. */
    double variance() const;

    void
    saveState(CheckpointWriter& w) const
    {
        w.putU64(count_);
        w.putF64(sum_);
        w.putF64(sumSq_);
        w.putF64(min_);
        w.putF64(max_);
    }

    void
    loadState(CheckpointReader& r)
    {
        count_ = r.getU64();
        sum_ = r.getF64();
        sumSq_ = r.getF64();
        min_ = r.getF64();
        max_ = r.getF64();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Streaming latency histogram with HdrHistogram-style log-linear buckets:
 * each power-of-two octave is split into 32 linear sub-buckets, so any
 * recorded value is off by at most 1/32 (~3.1%) of its magnitude and
 * values below 64 ns are exact. The bucket array is a fixed-size
 * std::array covering the full uint64 range (~15 KiB), so sampling is
 * O(1) with no allocation and a histogram can ride inside a stats
 * snapshot by value.
 *
 * Merging adds bucket counts element-wise, which is *exact*: the merge of
 * per-channel histograms yields the same percentiles as one histogram fed
 * every channel's samples. That is what makes cube-level tail latency
 * (p99/p99.9 across 32 channels) well-defined — per-channel means or
 * maxima cannot be combined into a system percentile, bucket counts can.
 *
 * Samples are latencies in nanoseconds; negative samples clamp to 0.
 */
class LatencyHistogram
{
  public:
    /** Sub-buckets per octave (2^5 = 32 → ≤3.1% relative error). */
    static constexpr int kSubBucketBits = 5;
    static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;
    /** Buckets covering every uint64 ns value (60 octave groups). */
    static constexpr std::size_t kNumBuckets =
        static_cast<std::size_t>(64 - kSubBucketBits + 1) * kSubBuckets;

    /** Record one latency sample (ns). */
    void sample(double ns);

    /** Fold another histogram's samples into this one (exact). */
    void merge(const LatencyHistogram& o);

    void reset() { *this = LatencyHistogram{}; }

    std::uint64_t count() const { return count_; }
    double minNs() const { return count_ ? min_ : 0.0; }
    double maxNs() const { return count_ ? max_ : 0.0; }
    double
    meanNs() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** Exact sum of all samples (ns) — breakdown components must add up. */
    double sumNs() const { return sum_; }

    /**
     * Nearest-rank p-th percentile (p in [0, 100]) estimated from bucket
     * boundaries; the result is clamped to [minNs, maxNs] and p >= 100
     * returns the exact maximum. Relative error is bounded by the bucket
     * width (≤3.1%); values below 64 ns are exact.
     */
    double percentileNs(double p) const;

    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return buckets_[i];
    }

    /** Bucket index recording integer value @p v. */
    static std::size_t indexFor(std::uint64_t v);

    /** Smallest integer value landing in bucket @p i. */
    static std::uint64_t bucketLow(std::size_t i);

    /** Exact-state equality (bucket counts and min/max/sum/count). */
    bool operator==(const LatencyHistogram& o) const;
    bool operator!=(const LatencyHistogram& o) const { return !(*this == o); }

    /** Sparse serialization: only populated buckets are written. */
    void
    saveState(CheckpointWriter& w) const
    {
        w.putU64(count_);
        w.putF64(sum_);
        w.putF64(min_);
        w.putF64(max_);
        std::uint64_t populated = 0;
        for (const std::uint64_t b : buckets_)
            populated += b != 0;
        w.putCount(static_cast<std::size_t>(populated));
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            if (buckets_[i] != 0) {
                w.putU32(static_cast<std::uint32_t>(i));
                w.putU64(buckets_[i]);
            }
        }
    }

    void
    loadState(CheckpointReader& r)
    {
        *this = LatencyHistogram{};
        count_ = r.getU64();
        sum_ = r.getF64();
        min_ = r.getF64();
        max_ = r.getF64();
        const std::size_t populated = r.getCount();
        for (std::size_t k = 0; k < populated; ++k) {
            const std::uint32_t i = r.getU32();
            if (i >= buckets_.size())
                fatal("latency-histogram bucket index %u out of range", i);
            buckets_[i] = r.getU64();
        }
    }

  private:
    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace rome

#endif // ROME_COMMON_STATS_H
