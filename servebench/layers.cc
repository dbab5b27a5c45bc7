#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/json_writer.h"

namespace servebench
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Span open on this thread (leaf calls accumulate onto it). */
thread_local Span* tl_span = nullptr;
/** Inside a feed pull: decodes made now are the feed's children. */
thread_local bool tl_in_feed = false;
/** Per-thread id handed out by the SpanLog (-1 = not yet assigned). */
thread_local int tl_thread = -1;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

} // namespace

// ---------------------------------------------------------------------------
// SampledTime
// ---------------------------------------------------------------------------

void
SampledTime::merge(const SampledTime& o)
{
    calls += o.calls;
    sampled += o.sampled;
    sumNs += o.sumNs;
    sumSqNs += o.sumSqNs;
}

double
SampledTime::estimateNs(double clock_ns) const
{
    if (sampled == 0)
        return 0.0;
    const double per_call =
        std::max(sumNs / static_cast<double>(sampled) - clock_ns, 0.0);
    return per_call * static_cast<double>(calls);
}

double
SampledTime::stderrNs() const
{
    if (sampled < 2)
        return 0.0;
    const double n = static_cast<double>(sampled);
    const double mean = sumNs / n;
    const double var = std::max((sumSqNs - n * mean * mean) / (n - 1), 0.0);
    const double fpc = std::max(1.0 - n / static_cast<double>(calls), 0.0);
    return static_cast<double>(calls) * std::sqrt(var / n * fpc);
}

// ---------------------------------------------------------------------------
// SpanLog / ScopedSpan
// ---------------------------------------------------------------------------

SpanLog::SpanLog() : epoch_(Clock::now())
{
    tl_thread = 0;
    // Cost of one clock read: the median gap of back-to-back reads. It is
    // subtracted from every timed leaf call so the clock's own cost is
    // charged to tracing, not to the layer being timed.
    std::vector<double> gaps(2001);
    for (double& g : gaps) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        g = nsBetween(a, b);
    }
    std::nth_element(gaps.begin(), gaps.begin() + 1000, gaps.end());
    clockNs_ = gaps[1000];
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::uint64_t
SpanLog::orphanCalls() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return orphans_;
}

Span*
SpanLog::open(const char* name, Span* enclosing, int& prev_ambient)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (tl_thread < 0)
        tl_thread = nextThread_++;
    Span& s = spans_.emplace_back();
    s.id = static_cast<int>(spans_.size()) - 1;
    s.name = name;
    s.parent = enclosing != nullptr ? enclosing->id : ambient_;
    s.run = run_;
    s.point = point_;
    s.thread = tl_thread;
    prev_ambient = ambient_;
    if (tl_thread == 0)
        ambient_ = s.id;
    s.startNs = nowNs();
    return &s;
}

void
SpanLog::close(Span* span, int prev_ambient)
{
    span->endNs = nowNs();
    if (tl_thread == 0) {
        std::lock_guard<std::mutex> lock(mu_);
        ambient_ = prev_ambient;
    }
}

std::string
SpanLog::toJson() const
{
    rome::JsonWriter w;
    w.beginArray();
    for (const Span& s : spans_) {
        w.beginObject();
        w.key("id").value(s.id);
        w.key("name").value(std::string(s.name));
        w.key("start_ns").value(s.startNs);
        w.key("end_ns").value(s.endNs);
        w.key("parent").value(s.parent);
        w.key("run").value(s.run);
        w.key("point").value(s.point);
        w.key("thread").value(s.thread);
        if (s.feedPulls > 0) {
            w.key("feed_pulls").value(s.feedPulls);
            w.key("feed_delivered").value(s.feedDelivered);
            w.key("feed_ns").value(s.feedNs);
        }
        const std::pair<const char*, const SampledTime*> acc[] = {
            {"source_in_feed", &s.sourceInFeed},
            {"source_direct", &s.sourceDirect}};
        for (const auto& [key, t] : acc) {
            if (t->calls == 0)
                continue;
            w.key(key).beginObject();
            w.key("calls").value(t->calls);
            w.key("sampled").value(t->sampled);
            w.key("sampled_ns").value(t->sumNs);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    return w.str();
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name) : log_(log)
{
    if (log_ == nullptr)
        return;
    prev_ = tl_span;
    span_ = log_->open(name, prev_, prevAmbient_);
    tl_span = span_;
}

ScopedSpan::~ScopedSpan()
{
    if (log_ == nullptr)
        return;
    log_->close(span_, prevAmbient_);
    tl_span = prev_;
}

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

TimedSource::TimedSource(std::unique_ptr<rome::RequestSource> inner,
                         SpanLog& log)
    : inner_(std::move(inner)), log_(log)
{
    // Distinct, fixed sampling streams per instance; the sample choice
    // affects only the timing estimate, never the request sequence.
    static std::atomic<std::uint64_t> instances{0};
    rng_ = 0x9e3779b97f4a7c15ull * (instances.fetch_add(1) + 1);
}

bool
TimedSource::produce(rome::Request& out)
{
    Span* s = tl_span;
    if (s == nullptr) {
        std::lock_guard<std::mutex> lock(log_.mu_);
        ++log_.orphans_;
        return inner_->next(out);
    }
    SampledTime& acc = tl_in_feed ? s->sourceInFeed : s->sourceDirect;
    ++acc.calls;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    if (rng_ % kSourceSampleEvery != 0)
        return inner_->next(out);
    const auto t0 = Clock::now();
    const bool ok = inner_->next(out);
    const double ns = nsBetween(t0, Clock::now());
    ++acc.sampled;
    acc.sumNs += ns;
    acc.sumSqNs += ns * ns;
    return ok;
}

/** Times every pull of the per-channel feed the engine bound. */
class TracedController::FeedTimer final : public rome::RequestSource
{
  public:
    explicit FeedTimer(rome::RequestSource* inner) : inner_(inner) {}

  protected:
    bool
    produce(rome::Request& out) override
    {
        Span* s = tl_span;
        if (s == nullptr)
            return inner_->next(out);
        const bool outer = tl_in_feed;
        tl_in_feed = true;
        const auto t0 = Clock::now();
        const bool ok = inner_->next(out);
        const double ns = nsBetween(t0, Clock::now());
        tl_in_feed = outer;
        ++s->feedPulls;
        s->feedDelivered += ok ? 1 : 0;
        s->feedNs += ns;
        return ok;
    }

    void rewind() override { inner_->reset(); }

  private:
    rome::RequestSource* inner_;
};

TracedController::TracedController(
    std::unique_ptr<rome::IMemoryController> inner, SpanLog& log)
    : inner_(std::move(inner)), log_(log)
{
}

TracedController::~TracedController()
{
    ScopedSpan span(&log_, "ctrl.teardown");
    inner_.reset();
}

void
TracedController::bindSource(rome::RequestSource* src)
{
    ScopedSpan span(&log_, "ctrl.bind");
    if (src == nullptr) {
        inner_->bindSource(nullptr);
        feed_.reset();
        return;
    }
    auto feed = std::make_unique<FeedTimer>(src);
    inner_->bindSource(feed.get());
    feed_ = std::move(feed);
}

void
TracedController::runUntil(rome::Tick until)
{
    ScopedSpan span(&log_, "ctrl.run_until");
    inner_->runUntil(until);
}

rome::Tick
TracedController::drain()
{
    ScopedSpan span(&log_, "ctrl.drain");
    return inner_->drain();
}

rome::ControllerStats
TracedController::stats() const
{
    ScopedSpan span(&log_, "stats");
    return inner_->stats();
}

rome::ControllerFactory
tracedFactory(rome::ControllerFactory make, SpanLog& log)
{
    return [make = std::move(make),
            &log]() -> std::unique_ptr<rome::IMemoryController> {
        ScopedSpan span(&log, "ctrl.construct");
        return std::make_unique<TracedController>(make(), log);
    };
}

rome::SourceFactory
timedSourceFactory(rome::SourceFactory make, SpanLog& log)
{
    return [make = std::move(make),
            &log]() -> std::unique_ptr<rome::RequestSource> {
        ScopedSpan span(&log, "source.open");
        return std::make_unique<TimedSource>(make(), log);
    };
}

// ---------------------------------------------------------------------------
// Attribution
// ---------------------------------------------------------------------------

LayerReport
analyzeSpans(const SpanLog& log, int threads, int runs)
{
    const std::deque<Span>& spans = log.spans();
    const double clock = log.clockNs();
    LayerReport rep;
    rep.orphanCalls = log.orphanCalls();

    // Pooled per-decode cost: sampling is uniform, so the sweep-wide
    // sample mean applies to every span's call count.
    SampledTime in_feed;
    SampledTime direct;
    for (const Span& s : spans) {
        in_feed.merge(s.sourceInFeed);
        direct.merge(s.sourceDirect);
    }
    const auto per_call = [clock](const SampledTime& t,
                                  const SampledTime& fallback) {
        const SampledTime& use = t.sampled > 0 ? t : fallback;
        return use.sampled > 0
                   ? std::max(use.sumNs / static_cast<double>(use.sampled) -
                                  clock,
                              0.0)
                   : 0.0;
    };
    const double in_feed_call = per_call(in_feed, direct);
    const double direct_call = per_call(direct, in_feed);
    rep.decodeCalls = in_feed.calls + direct.calls;
    rep.sourceErrS = std::hypot(in_feed.stderrNs(), direct.stderrNs()) * 1e-9;

    // Union of each span's children's intervals, clipped to the span.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                  s.endNs);
    }

    const auto is = [](const Span& s, const char* name) {
        return std::strcmp(s.name, name) == 0;
    };
    for (const Span& s : spans) {
        auto& iv = kids[static_cast<std::size_t>(s.id)];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        std::int64_t reach = s.startNs;
        for (const auto& [a, b] : iv) {
            const std::int64_t lo = std::max(a, reach);
            const std::int64_t hi = std::min(b, s.endNs);
            if (hi > lo)
                covered += static_cast<double>(hi - lo);
            reach = std::max(reach, hi);
        }
        const double src_in_feed =
            static_cast<double>(s.sourceInFeed.calls) * in_feed_call;
        const double src_direct =
            static_cast<double>(s.sourceDirect.calls) * direct_call;
        const double pulls = static_cast<double>(s.feedPulls);
        // A timed call costs its measured interval plus one more clock
        // read; the interval itself holds one clock read of overhead.
        const double leaf = s.feedNs + pulls * clock + src_direct +
                            2.0 * clock *
                                static_cast<double>(s.sourceDirect.sampled);
        const double self =
            static_cast<double>(s.endNs - s.startNs) - covered - leaf;
        const double feed_self =
            s.feedNs - pulls * clock - src_in_feed -
            2.0 * clock * static_cast<double>(s.sourceInFeed.sampled);

        rep.sourceS += (src_in_feed + src_direct) * 1e-9;
        rep.feedS += feed_self * 1e-9;
        rep.feedPulls += s.feedPulls;
        rep.feedDelivered += s.feedDelivered;
        rep.clockS += 2.0 * clock *
                      (pulls + static_cast<double>(s.sourceInFeed.sampled +
                                                   s.sourceDirect.sampled)) *
                      1e-9;
        const double self_s = self * 1e-9;
        if (is(s, "ctrl.drain") || is(s, "ctrl.run_until") ||
            is(s, "ctrl.bind"))
            rep.ctrlS += self_s;
        else if (is(s, "ctrl.construct"))
            rep.constructS += self_s;
        else if (is(s, "ctrl.teardown"))
            rep.teardownS += self_s;
        else if (is(s, "stats") || is(s, "rate_point"))
            rep.statsS += self_s;
        else if (is(s, "source.open"))
            rep.sourceS += self_s;
        else
            rep.unattributedS += self_s;
    }

    rep.runs.resize(static_cast<std::size_t>(runs));
    for (int p = 0; p < runs; ++p) {
        std::vector<double> drains;
        std::int64_t first = INT64_MAX;
        std::int64_t last = INT64_MIN;
        for (const Span& s : spans) {
            if (s.run != p ||
                !(is(s, "ctrl.drain") || is(s, "ctrl.run_until")))
                continue;
            drains.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
            first = std::min(first, s.startNs);
            last = std::max(last, s.endNs);
        }
        if (drains.empty())
            continue;
        EngineShare& e = rep.runs[static_cast<std::size_t>(p)];
        for (const double d : drains)
            e.busyS += d;
        e.idleS =
            threads * static_cast<double>(last - first) * 1e-9 - e.busyS;
        std::sort(drains.begin(), drains.end());
        const double median = drains[drains.size() / 2];
        e.straggler = median > 0.0 ? drains.back() / median : 0.0;
    }
    return rep;
}

} // namespace servebench
