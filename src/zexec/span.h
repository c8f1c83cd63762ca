/**
 * @file
 * Frame spans: end-to-end latency tracking for pipeline frames.
 *
 * The paper's real-time claim is a latency claim — per-packet deadlines
 * on the order of SIFS — but per-node counters (zexec/trace.h) only say
 * how much work happened, not how long a frame took source→sink.  A
 * SpanTracker closes that gap: the input side stamps every K-th consumed
 * element as the start of a "frame" span, the output side completes the
 * span once the frame's expected output has been emitted, and the
 * elapsed wall time feeds a latency histogram with p50/p90/p99/p999
 * extraction plus an optional SLO budget counter
 * (`latency.budget.{met,missed}`).
 *
 * The input→output mapping assumes the stream is count-preserving up to
 * a fixed ratio (`outPerIn`, default 1): frame k (elements [k·K,
 * (k+1)·K)) completes when ceil((k+1)·K·outPerIn) total outputs have
 * been emitted.  That is the same convention zclient and bench_serve use
 * for round-trip latency, and it holds for every rate-1 pipeline; for
 * expanding/contracting pipelines pass the expected ratio.
 *
 * Thread safety: one input thread and one output thread (SPSC, matching
 * every driver: the single-threaded Pipeline calls both from one thread,
 * ThreadedPipeline from the first/last stage threads, a zserve session
 * from the I/O thread and its worker).  The per-element hot path is one
 * relaxed atomic increment plus one relaxed load; the mutex is only
 * taken at frame boundaries (every K elements) and completions.
 * `onRestart` may race with onInput/onOutput and resynchronizes the
 * mapping by re-basing both counters.
 *
 * Like TracedNode, the layer is zero-cost when off: no tracker is
 * allocated, and the drivers' hooks are a single predictable null check
 * (guarded by scripts/check_overhead.sh).
 */
#ifndef ZIRIA_ZEXEC_SPAN_H
#define ZIRIA_ZEXEC_SPAN_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "support/metrics.h"

namespace ziria {

/** Configuration for a SpanTracker. */
struct SpanConfig
{
    uint64_t frameElems = 256;  ///< input elements per tracked frame
    double outPerIn = 1.0;      ///< expected output/input element ratio
    uint64_t budgetNs = 0;      ///< SLO per frame; 0 = no budget
    std::string name = "pipeline";  ///< label for timeline events
};

/** Frame-span latency tracker (one input thread, one output thread). */
class SpanTracker
{
  public:
    explicit SpanTracker(SpanConfig cfg);

    /** Input side: @p n consumed elements (as n single calls). */
    void
    onInput(uint64_t n = 1)
    {
        if (n == 0)
            return;
        uint64_t i = in_.fetch_add(n, std::memory_order_relaxed) + n - 1;
        if (i >= nextOpenAt_.load(std::memory_order_relaxed))
            openSpans(i);
    }

    /** Output side: @p n emitted elements (as n single calls). */
    void
    onOutput(uint64_t n = 1)
    {
        uint64_t o = out_.fetch_add(n, std::memory_order_relaxed) + n;
        if (o >= nextCloseAt_.load(std::memory_order_relaxed))
            closeSpans(o);
    }

    /**
     * A supervised restart discarded in-flight data: abort every open
     * span and re-base the input→output mapping on the current counters
     * (a restart costs at most the frames that were in flight).
     */
    void onRestart();

    /** Close any spans already satisfied by the emitted count (end of
     *  run; open spans of a truncated tail frame stay open). */
    void flush();

    /** Consistent copy of the tracker's state. */
    struct Snapshot
    {
        uint64_t completed = 0;  ///< spans closed into the histogram
        uint64_t aborted = 0;    ///< spans discarded by restarts
        uint64_t open = 0;       ///< spans still in flight
        uint64_t budgetMet = 0;
        uint64_t budgetMissed = 0;
        metrics::Histogram latencyNs;
    };

    Snapshot snapshot() const;

    const SpanConfig& config() const { return cfg_; }

    /**
     * Merge this tracker's results into registry metrics: histogram
     * `<prefix>.e2e_ns`, counters `<prefix>.frames`,
     * `<prefix>.frames_aborted` and — when a budget is configured —
     * `<prefix>.budget.met` / `<prefix>.budget.missed`.  Call from one
     * thread once the run (or session) is done.
     */
    void mergeInto(metrics::Registry& reg,
                   const std::string& prefix) const;

    /** Serialize a snapshot into an open JSON object scope. */
    void writeJson(metrics::JsonWriter& w, const std::string& key) const;

  private:
    struct OpenSpan
    {
        uint64_t frame = 0;    ///< global frame ordinal (timeline label)
        uint64_t startNs = 0;
        uint64_t closeAt = 0;  ///< total-output threshold that closes it
    };

    void openSpans(uint64_t i);
    void closeSpans(uint64_t o);
    void closeReadyLocked(uint64_t o, uint64_t now);

    SpanConfig cfg_;
    std::atomic<uint64_t> in_{0};
    std::atomic<uint64_t> out_{0};
    std::atomic<uint64_t> nextOpenAt_{0};
    std::atomic<uint64_t> nextCloseAt_{~uint64_t{0}};

    mutable std::mutex mu_;
    std::deque<OpenSpan> open_;
    metrics::Histogram hist_;
    uint64_t inBase_ = 0;       ///< in_ at the last restart (epoch start)
    uint64_t outBase_ = 0;      ///< out_ at the last restart
    uint64_t epochFrames_ = 0;  ///< spans opened this epoch
    uint64_t totalFrames_ = 0;  ///< spans opened ever (timeline ordinal)
    uint64_t completed_ = 0;
    uint64_t aborted_ = 0;
    uint64_t budgetMet_ = 0;
    uint64_t budgetMissed_ = 0;
    uint32_t track_ = 0;        ///< timeline track id
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_SPAN_H
