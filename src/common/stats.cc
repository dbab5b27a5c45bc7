#include "common/stats.h"

#include <bit>
#include <cmath>

namespace rome
{

double
Accumulator::variance() const
{
    if (count_ == 0)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double m = sum_ / n;
    return sumSq_ / n - m * m;
}

std::size_t
LatencyHistogram::indexFor(std::uint64_t v)
{
    // The first two octaves are exact unit-wide buckets; beyond them the
    // top kSubBucketBits+1 bits select the bucket, keeping every bucket's
    // width below 1/kSubBuckets of its low edge.
    if (v < 2 * kSubBuckets)
        return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBucketBits;
    const std::uint64_t mantissa = v >> shift; // in [kSubBuckets, 2*kSubBuckets)
    return static_cast<std::size_t>(shift + 1) * kSubBuckets +
           static_cast<std::size_t>(mantissa - kSubBuckets);
}

std::uint64_t
LatencyHistogram::bucketLow(std::size_t i)
{
    if (i < 2 * kSubBuckets)
        return i;
    const std::size_t shift = i / kSubBuckets - 1;
    return (kSubBuckets + i % kSubBuckets) << shift;
}

void
LatencyHistogram::sample(double ns)
{
    if (ns < 0.0)
        ns = 0.0;
    if (count_ == 0 || ns < min_)
        min_ = ns;
    if (count_ == 0 || ns > max_)
        max_ = ns;
    sum_ += ns;
    ++count_;
    ++buckets_[indexFor(static_cast<std::uint64_t>(std::llround(ns)))];
}

void
LatencyHistogram::merge(const LatencyHistogram& o)
{
    if (o.count_ == 0)
        return;
    if (count_ == 0 || o.min_ < min_)
        min_ = o.min_;
    if (count_ == 0 || o.max_ > max_)
        max_ = o.max_;
    sum_ += o.sum_;
    count_ += o.count_;
    for (std::size_t i = 0; i < kNumBuckets; ++i)
        buckets_[i] += o.buckets_[i];
}

double
LatencyHistogram::percentileNs(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p >= 100.0)
        return max_;
    if (p < 0.0)
        p = 0.0;
    // Nearest-rank: the smallest bucket whose cumulative count reaches
    // ceil(p/100 * count).
    const double exact = p / 100.0 * static_cast<double>(count_);
    std::uint64_t target =
        static_cast<std::uint64_t>(std::ceil(exact));
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            // Representative: the bucket's integer midpoint (exact for
            // the unit-wide low buckets), clamped to observed extremes.
            const std::uint64_t low = bucketLow(i);
            const std::uint64_t high = i + 1 < kNumBuckets
                                           ? bucketLow(i + 1)
                                           : ~std::uint64_t{0};
            double rep = static_cast<double>(low) +
                         static_cast<double>(high - low - 1) / 2.0;
            if (rep < min_)
                rep = min_;
            if (rep > max_)
                rep = max_;
            return rep;
        }
    }
    return max_;
}

bool
LatencyHistogram::operator==(const LatencyHistogram& o) const
{
    return count_ == o.count_ && sum_ == o.sum_ && min_ == o.min_ &&
           max_ == o.max_ && buckets_ == o.buckets_;
}

} // namespace rome
