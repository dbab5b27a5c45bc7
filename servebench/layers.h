/**
 * @file
 * Host-time tracing for the corpus serving benchmark.
 *
 * Everything here wraps the simulator's public interfaces from the
 * outside; no simulator code is instrumented. A traced sweep installs:
 *
 *  - TimedSource: a RequestSource decorator over the system-wide source
 *    (trace decode: sim/trace + sim/source). Calls are far too frequent
 *    to time one by one (millions per rate point), so every call is
 *    counted and a pseudo-random 1-in-kSourceSampleEvery subset is timed;
 *    the layer's time is the scaled sample mean, reported with its
 *    1-sigma sampling error.
 *  - TracedController: a forwarding IMemoryController that wraps the
 *    per-channel feed it is bound to (shard + arrival + node router/link)
 *    in a FeedTimer, and opens spans around drain/runUntil/bindSource/
 *    stats/destruction. tracedFactory() wraps a controller factory so
 *    construction is a span too.
 *
 * Spans live in memory (SpanLog) and are written once the sweep ends.
 * Each records name, start, end, parent span and rate point; the leaf
 * layers called too often for spans (feed pulls, source decodes) are
 * accumulated on the span that was open on the calling thread. A span's
 * self time is its duration minus the union of its children's intervals
 * minus the leaf time accumulated on it.
 */

#ifndef SERVEBENCH_LAYERS_H
#define SERVEBENCH_LAYERS_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/source.h"

namespace servebench
{

/** One decode call in this many is timed (the rest are only counted). */
constexpr std::uint64_t kSourceSampleEvery = 16;

/** Sampled timing of one high-frequency call site. */
struct SampledTime
{
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    /** Sum and sum of squares of the sampled (measured) durations, ns. */
    double sumNs = 0.0;
    double sumSqNs = 0.0;

    void merge(const SampledTime& o);
    /** All calls' time, clock cost of the samples removed, ns. */
    double estimateNs(double clock_ns) const;
    /** 1-sigma error of estimateNs (finite-population corrected), ns. */
    double stderrNs() const;
};

/** One traced interval plus the leaf-layer time accumulated inside it. */
struct Span
{
    /** Index in the SpanLog. */
    int id = -1;
    const char* name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** Driver run (rate point x realization) and rate point the span
     *  belongs to, -1 outside any. */
    int run = -1;
    int point = -1;
    /** Small per-thread id (0 = the thread that owns the SpanLog). */
    int thread = 0;

    /** Feed pulls made by this span's thread while it was open. */
    std::uint64_t feedPulls = 0;
    std::uint64_t feedDelivered = 0;
    /** Measured duration of those pulls, ns (decode children included). */
    double feedNs = 0.0;
    /** Decode calls made inside a feed pull, and outside any. */
    SampledTime sourceInFeed;
    SampledTime sourceDirect;
};

/**
 * In-memory span recorder. open()/close() are thread-safe; the leaf
 * accumulators of a span are written only by the thread that opened it.
 */
class SpanLog
{
  public:
    SpanLog();
    SpanLog(const SpanLog&) = delete;
    SpanLog& operator=(const SpanLog&) = delete;

    /** Driver run and rate point subsequent spans are tagged with
     *  (-1 = none). */
    void
    setRun(int run, int point)
    {
        std::lock_guard<std::mutex> lock(mu_);
        run_ = run;
        point_ = point;
    }

    /** Nanoseconds since the log was created. */
    std::int64_t nowNs() const;

    /** Measured cost of one clock read (median of back-to-back reads). */
    double clockNs() const { return clockNs_; }

    /** Decode calls made with no span open on the calling thread. */
    std::uint64_t orphanCalls() const;

    const std::deque<Span>& spans() const { return spans_; }

    /** Spans as a JSON array, one object per span. */
    std::string toJson() const;

  private:
    friend class ScopedSpan;
    friend class TimedSource;

    /** Start a span under @p enclosing (or the owner's innermost span);
     *  @p prev_ambient receives what close() must restore. */
    Span* open(const char* name, Span* enclosing, int& prev_ambient);
    void close(Span* span, int prev_ambient);

    std::chrono::steady_clock::time_point epoch_;
    double clockNs_ = 0.0;
    mutable std::mutex mu_;
    int run_ = -1;           ///< guarded by mu_
    int point_ = -1;         ///< guarded by mu_
    std::deque<Span> spans_; ///< guarded by mu_ for insertion
    /** Innermost span of the owning thread: parent of worker spans. */
    int ambient_ = -1;          ///< guarded by mu_
    int nextThread_ = 1;        ///< guarded by mu_
    std::uint64_t orphans_ = 0; ///< guarded by mu_
};

/** RAII span on the calling thread; a null log makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog* log, const char* name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanLog* log_;
    Span* span_ = nullptr;
    Span* prev_ = nullptr;
    int prevAmbient_ = -1;
};

/** Source-layer decorator: counts every decode, times a sample. */
class TimedSource final : public rome::RequestSource
{
  public:
    TimedSource(std::unique_ptr<rome::RequestSource> inner, SpanLog& log);

  protected:
    bool produce(rome::Request& out) override;
    void rewind() override { inner_->reset(); }

  private:
    std::unique_ptr<rome::RequestSource> inner_;
    SpanLog& log_;
    std::uint64_t rng_;
};

/**
 * Forwarding controller that times the layers it sits between: its own
 * drain/runUntil/bindSource (admission + scheduler + device), the feed
 * the engine binds to it, and stats(). Results are those of the wrapped
 * controller, unchanged. Checkpointing is not forwarded (the drivers'
 * run() never checkpoints).
 */
class TracedController final : public rome::IMemoryController
{
  public:
    TracedController(std::unique_ptr<rome::IMemoryController> inner,
                     SpanLog& log);
    ~TracedController() override;
    TracedController(const TracedController&) = delete;
    TracedController& operator=(const TracedController&) = delete;

    std::string name() const override { return inner_->name(); }
    void enqueue(const rome::Request& req) override
    {
        inner_->enqueue(req);
    }
    void bindSource(rome::RequestSource* src) override;
    void runUntil(rome::Tick until) override;
    rome::Tick drain() override;
    bool idle() const override { return inner_->idle(); }
    rome::Tick now() const override { return inner_->now(); }
    const std::vector<rome::Completion>& completions() const override
    {
        return inner_->completions();
    }
    void setRetainCompletions(bool retain) override
    {
        inner_->setRetainCompletions(retain);
    }
    const rome::Accumulator& latencyNs() const override
    {
        return inner_->latencyNs();
    }
    const rome::LatencyHistogram& latencyHistogramNs() const override
    {
        return inner_->latencyHistogramNs();
    }
    rome::McComplexity complexity() const override
    {
        return inner_->complexity();
    }
    rome::ControllerStats stats() const override;

  private:
    class FeedTimer;

    std::unique_ptr<rome::IMemoryController> inner_;
    SpanLog& log_;
    std::unique_ptr<FeedTimer> feed_;
};

/** Host time of one driver run's channel drains (the engine layer). */
struct EngineShare
{
    /** Sum of the channels' drain spans, s. */
    double busyS = 0.0;
    /** threads x (last drain end - first drain start) - busy, s. */
    double idleS = 0.0;
    /** Slowest channel's drain time / the median channel's. */
    double straggler = 0.0;
};

/**
 * Per-layer host time of one traced sweep, from its spans. Each layer's
 * time is self time: nothing is counted in two layers, and
 *   sum(layers) + clock + unattributed == sum of the owner thread's
 *   serial time + busy (every span accounted exactly once).
 */
struct LayerReport
{
    /** Trace decode: sampled decode calls scaled up, plus file opens. */
    double sourceS = 0.0;
    double sourceErrS = 0.0; ///< 1-sigma sampling error of sourceS
    std::uint64_t decodeCalls = 0;
    /** Per-channel stream (shard, arrival, router/link) minus decode. */
    double feedS = 0.0;
    std::uint64_t feedPulls = 0;
    std::uint64_t feedDelivered = 0;
    /** drain / runUntil / bindSource minus feed: admission, scheduler,
     *  device. */
    double ctrlS = 0.0;
    double constructS = 0.0;
    double teardownS = 0.0;
    /** stats() + makeRatePoint. */
    double statsS = 0.0;
    /** Clock reads of the leaf timers themselves. */
    double clockS = 0.0;
    /** Owner-thread time inside the driver calls that no span covers
     *  (shard and engine set-up, thread start/join, stats merge). */
    double unattributedS = 0.0;
    std::vector<EngineShare> runs;
    std::uint64_t orphanCalls = 0;
};

/** Attribute @p log's spans of @p runs driver runs to the layers. */
LayerReport analyzeSpans(const SpanLog& log, int threads, int runs);

/** @p make wrapped so each construction is a span and yields a
 *  TracedController. */
rome::ControllerFactory tracedFactory(rome::ControllerFactory make,
                                      SpanLog& log);

/** @p make wrapped so each system source is a TimedSource. */
rome::SourceFactory timedSourceFactory(rome::SourceFactory make,
                                       SpanLog& log);

} // namespace servebench

#endif // SERVEBENCH_LAYERS_H
