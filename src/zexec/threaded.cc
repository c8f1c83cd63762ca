#include "zexec/threaded.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "support/metrics.h"
#include "support/panic.h"
#include "support/spsc_queue.h"
#include "support/timeline.h"
#include "support/timing.h"
#include "zexec/span.h"

namespace ziria {

namespace {

/** Queue-wait slice for supervised runs: long enough that the periodic
 *  wake-up is noise, short enough that an abort is noticed promptly. */
constexpr long kSupervisedSliceMs = 20;

/** Elements moved per interthread-queue transfer: enough that the lock
 *  and the wake-up are noise next to the stages' compute, few enough
 *  that a batch stays in cache. */
constexpr size_t kBatchElems = 256;

/** Element width of the queue behind @p producer (at least a byte). */
size_t
queueWidth(const ExecNode& producer)
{
    return std::max<size_t>(producer.outWidth(), 1);
}

/** Extract a human-readable message from a stored exception. */
std::string
errorMessage(const std::exception_ptr& ep)
{
    try {
        std::rethrow_exception(ep);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

/** One stage's attempt: what the watchdog samples and the telemetry. */
struct ThreadedPipeline::StageResult
{
    /** Elements moved (consumed + emitted); what the watchdog samples.
     *  Relaxed: only freshness matters, not ordering. */
    std::atomic<uint64_t> progress{0};
    std::atomic<bool> finished{false};

    bool aborted = false;  ///< exited on cancel/abort, not end-of-stream
    std::exception_ptr error;
    double sec = 0;  ///< wall time of the stage's drive loop
    uint64_t pushWaitNs = 0;  ///< blocked pushing (latency runs only)
    uint64_t popWaitNs = 0;   ///< blocked popping (latency runs only)
};

/**
 * Drive stage @p index with its SupervisedStepper: pull input from
 * @p inq (or @p src for stage 0), push output to @p outq (or @p sink
 * for the last stage).
 * Elements cross a queue in batches of up to kBatchElems: a consumer
 * pops a batch into a stage-local buffer and feeds the node from it; a
 * producer collects its outputs and pushes them as one span when the
 * batch is full, before it fetches new input (a src->next() call or an
 * input-batch refill, either of which may block), and before it closes
 * its queue.  So no stage waits for input while it holds outputs.
 * With a span tracker the first stage stamps the frames it consumes, the
 * last completes the frames it emits, and every stage times its queue
 * waits, once per batch.
 *
 * @p abort is the run-wide teardown flag (set by the watchdog or at the
 * end of a run); the stage moves one element per pull or push, and
 * both poll it, as does every batch transfer.  @p wait_slice_ms bounds
 * each queue wait so the flag is polled even while blocked (-1 = plain
 * blocking waits, used when the run is unsupervised).
 *
 * A stage resumed after a failed attempt continues where its stepper
 * stands (live, or healed by rearmStage): it first re-pushes its
 * unpushed outputs `c.pendingOut`, then feeds its popped, unconsumed
 * input `c.pendingIn` before it pops again (a healed stage replays its
 * journal ahead of both).  On exit both carry fields are refilled with
 * whatever a teardown left over.
 */
void
ThreadedPipeline::runStage(size_t index, SpscQueue* inq, InputSource* src,
                           SpscQueue* outq, OutputSink* sink,
                           StageCarry& c, StageResult& res,
                           const std::atomic<bool>& abort,
                           long wait_slice_ms)
{
    SupervisedStepper& st = steppers_[index];
    SpanTracker* spans = spans_.get();
    Stopwatch sw;
    const uint64_t startNs = nowNs();
    auto aborting = [&abort] {
        return abort.load(std::memory_order_relaxed);
    };
    auto progress = [&res] {
        res.progress.fetch_add(1, std::memory_order_relaxed);
    };

    // Input batch popped from inq; elements [inPos, inLen) are unconsumed.
    const size_t inW = inq ? inq->elemWidth() : 0;
    std::vector<uint8_t> inBatch = std::move(c.pendingIn);
    size_t inPos = 0;
    size_t inLen = inW ? inBatch.size() / inW : 0;
    ZIRIA_ASSERT(inLen <= kBatchElems);
    inBatch.resize(kBatchElems * inW);
    c.pendingIn.clear();

    // Outputs not yet handed on, oldest first.  The last stage delivers
    // straight to the sink and only ever keeps the one a teardown
    // interrupted.
    const size_t outW =
        outq ? outq->elemWidth() : stages_[index]->outWidth();
    std::vector<uint8_t> outBatch = std::move(c.pendingOut);
    c.pendingOut.clear();
    auto deliver = [&](const uint8_t* e) {
        sink->put(e);
        if (spans)
            spans->onOutput();
        progress();
    };
    // Hand the whole output batch on.  On teardown (queue cancelled or
    // run aborted) the rest stays in outBatch and false is returned.
    auto flush = [&] {
        size_t off = 0;
        if (!outq) {
            // One at a time, so a throwing sink leaves its element and
            // the rest to be delivered first on resume.
            while (!outBatch.empty() && !aborting()) {
                deliver(outBatch.data());
                outBatch.erase(outBatch.begin(), outBatch.begin() +
                                   static_cast<std::ptrdiff_t>(outW));
            }
        } else if (!outBatch.empty()) {
            const uint64_t t0 = spans ? nowNs() : 0;
            while (off < outBatch.size() && !aborting()) {
                size_t done = 0;
                QueueWait w = outq->pushSpan(outBatch.data() + off,
                                             (outBatch.size() - off) / outW,
                                             wait_slice_ms, &done);
                if (w == QueueWait::Cancelled)
                    break;  // downstream stopped (or run torn down)
                off += done * outW;
            }
            if (spans)
                res.pushWaitNs += nowNs() - t0;
        }
        outBatch.erase(outBatch.begin(),
                       outBatch.begin() + static_cast<std::ptrdiff_t>(off));
        if (!outBatch.empty()) {
            res.aborted = true;
            return false;
        }
        return true;
    };
    auto pull = [&](const uint8_t** p) {
        if (aborting()) {
            res.aborted = true;
            return Feed::End;
        }
        if (inq) {
            if (inPos == inLen) {
                if (!flush())
                    return Feed::End;
                uint64_t t0 = spans ? nowNs() : 0;
                QueueWait w;
                size_t got = 0;
                while ((w = inq->popSpan(inBatch.data(), kBatchElems,
                                         wait_slice_ms, &got)) ==
                           QueueWait::Timeout &&
                       !aborting()) {
                }
                if (spans)
                    res.popWaitNs += nowNs() - t0;
                if (w != QueueWait::Ready) {
                    // Closed = upstream finished (normal EOS);
                    // Cancelled/abort = torn down.
                    res.aborted = w != QueueWait::Closed;
                    return Feed::End;
                }
                inPos = 0;
                inLen = got;
            }
            *p = inBatch.data() + inPos++ * inW;
        } else {
            if (!flush())
                return Feed::End;
            if (!(*p = src->next())) {
                res.aborted = aborting();  // a cancelled read is no EOS
                return Feed::End;
            }
            if (spans)
                spans->onInput();
        }
        progress();
        return Feed::Ready;
    };
    auto push = [&](const uint8_t* e) {
        if (!outq && !aborting()) {
            deliver(e);
            return true;
        }
        // Kept even when the run is torn down: the next attempt
        // re-pushes it instead of losing it.
        outBatch.insert(outBatch.end(), e, e + outW);
        if (aborting()) {
            res.aborted = true;
            return false;
        }
        progress();
        return outBatch.size() < kBatchElems * outW || flush();
    };
    try {
        auto io = elementIo(pull, push);
        if (flush() && st.drive(io) == StepOutcome::Halted)
            c.halted = true;
    } catch (...) {
        res.error = std::current_exception();
    }
    flush();  // hand on what is still batched before the queue closes
    c.pendingOut = std::move(outBatch);
    c.pendingIn.assign(
        inBatch.begin() + static_cast<std::ptrdiff_t>(inPos * inW),
        inBatch.begin() + static_cast<std::ptrdiff_t>(inLen * inW));
    res.sec = sw.elapsedSec();
    if (timeline::Recorder* r = timeline::active()) {
        uint32_t track = timeline::currentTrack();
        r->nameTrack(track, "stage" + std::to_string(index));
        r->complete("stage", "stage" + std::to_string(index),
                    startNs, nowNs() - startNs, track);
    }
    if (outq)
        outq->close();
    // A halted (or failed) stage stops upstream producers.
    if ((c.halted || res.error) && inq)
        inq->cancel();
    res.finished.store(true, std::memory_order_release);
}

ThreadedPipeline::ThreadedPipeline(std::vector<NodePtr> stages,
                                   std::vector<FrameRange> stage_frames,
                                   size_t frame_size, size_t in_width,
                                   size_t out_width, size_t queue_cap)
    : stages_(std::move(stages)), frame_(frame_size), inWidth_(in_width),
      outWidth_(out_width), queueCap_(queue_cap)
{
    ZIRIA_ASSERT(!stages_.empty());
    ZIRIA_ASSERT(stage_frames.size() == stages_.size());
    steppers_.reserve(stages_.size());
    for (size_t i = 0; i < stages_.size(); ++i)
        steppers_.emplace_back(*stages_[i], frame_, stage_frames[i],
                               i ? queueWidth(*stages_[i - 1]) : in_width);
}

RunStats
ThreadedPipeline::run(InputSource& src, OutputSink& sink)
{
    std::vector<std::unique_ptr<SpscQueue>> queues;
    for (size_t i = 0; i + 1 < stages_.size(); ++i)
        queues.push_back(
            std::make_unique<SpscQueue>(queueWidth(*stages_[i]), queueCap_));

    // A cadence only with a restart policy, as Pipeline::run.
    for (SupervisedStepper& s : steppers_) {
        s.setInterval(restart_.enabled() ? ckpt_.interval : 0);
        s.begin();
    }
    std::vector<StageCarry> carry(stages_.size());
    RunStats st = RestartSupervisor(restart_).run(
        [&] { return runAttempt(queues, src, sink, carry); },
        [&](const StageFailure&) {
            // The backoff is slept and every stage thread was joined
            // before runAttempt threw, so re-arming is single-threaded.
            // Clearing the endpoints' cancel latches lets the live source
            // keep feeding the next attempt.
            rearmStage(queues, carry);
            src.rearm();
            sink.rearm();
            if (spans_)
                spans_->onRestart();
        });
    if (spans_)
        spans_->flush();
    return st;
}

/**
 * Ready the next attempt: every failed stage heals as a solo run does
 * (SupervisedStepper::heal: restore-and-replay, else reset) and keeps
 * its carried batches; healthy stages keep their live state.  No queue
 * is dropped: each has its teardown latches cleared, and the queue of a
 * finished producer is closed again so its consumer still sees
 * end-of-stream.
 */
void
ThreadedPipeline::rearmStage(
    std::vector<std::unique_ptr<SpscQueue>>& queues,
    std::vector<StageCarry>& carry)
{
    auto& reg = metrics::Registry::global();
    for (size_t i = 0; i < carry.size(); ++i) {
        if (!carry[i].failed)
            continue;
        reg.counter("restart.stage.attempts").inc();
        if (steppers_[i].heal())
            reg.counter("restart.stage.restored").inc();
    }
    for (size_t qi = 0; qi < queues.size(); ++qi) {
        // Queue qi sits between stage qi (producer) and qi+1 (consumer).
        queues[qi]->uncancel();
        if (carry[qi].doneClean)
            queues[qi]->close();
    }
}

RunStats
ThreadedPipeline::runAttempt(std::vector<std::unique_ptr<SpscQueue>>& queues,
                             InputSource& src, OutputSink& sink,
                             std::vector<StageCarry>& carry)
{
    using clock = std::chrono::steady_clock;
    const size_t n = stages_.size();
    const bool supervised = deadlineMs_ > 0;
    const long slice = supervised ? kSupervisedSliceMs : -1;

    std::vector<StageResult> results(n);
    // A stage that already finished (halted or hit end-of-stream) in an
    // earlier attempt is not re-run — replay its exit effects so its
    // neighbours still see EOS / upstream-stop, and the watchdog skips it.
    for (size_t i = 0; i < n; ++i) {
        if (!carry[i].doneClean)
            continue;
        results[i].finished.store(true, std::memory_order_release);
        if (i + 1 < n)
            queues[i]->close();
        if (carry[i].halted && i > 0)
            queues[i - 1]->cancel();
    }
    std::atomic<bool> abort{false};
    std::atomic<bool> watchdogStop{false};
    std::atomic<long> stalledStage{-1};

    // Deterministic teardown: cancel every queue (waking all waiters on
    // both sides) and ask the endpoints to abandon any blocking I/O.
    auto teardown = [&] {
        abort.store(true, std::memory_order_relaxed);
        for (auto& q : queues)
            q->cancel();
        src.cancel();
        sink.cancel();
    };

    std::thread watchdog;
    if (supervised) {
        watchdog = std::thread([&] {
            const auto deadline = std::chrono::duration<double, std::milli>(
                deadlineMs_);
            std::vector<uint64_t> last(n, 0);
            std::vector<clock::time_point> changed(n, clock::now());
            while (!watchdogStop.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
                auto now = clock::now();
                bool anyLive = false;
                bool anyFresh = false;
                for (size_t i = 0; i < n; ++i) {
                    uint64_t p = results[i].progress.load(
                        std::memory_order_relaxed);
                    if (p != last[i]) {
                        last[i] = p;
                        changed[i] = now;
                    }
                    if (!results[i].finished.load(
                            std::memory_order_acquire)) {
                        anyLive = true;
                        if (now - changed[i] < deadline)
                            anyFresh = true;
                    }
                }
                if (!anyLive)
                    return;  // all stages done; nothing to supervise
                if (anyFresh)
                    continue;  // something is still moving (or fresh)
                // Global quiescence: no unfinished stage has made
                // progress for the whole deadline.  Blame the stage
                // that has been silent the longest.
                size_t worst = 0;
                bool found = false;
                for (size_t i = 0; i < n; ++i) {
                    if (results[i].finished.load(
                            std::memory_order_acquire))
                        continue;
                    if (!found || changed[i] < changed[worst]) {
                        worst = i;
                        found = true;
                    }
                }
                stalledStage.store(static_cast<long>(worst),
                                   std::memory_order_relaxed);
                metrics::Registry::global()
                    .counter("ziria.stall_timeouts")
                    .inc();
                teardown();
                return;
            }
        });
    }

    // Stage i reads the source (i == 0) or queue i-1 and writes queue i,
    // or the sink when it is the last stage, which runs on the calling
    // thread.
    auto stage = [&](size_t i) {
        const bool last = i + 1 == n;
        runStage(i, i ? queues[i - 1].get() : nullptr, i ? nullptr : &src,
                 last ? nullptr : queues[i].get(), last ? &sink : nullptr,
                 carry[i], results[i], abort, slice);
    };
    std::vector<std::thread> threads;
    for (size_t i = 0; i + 1 < n; ++i)
        if (!carry[i].doneClean)
            threads.emplace_back(stage, i);
    if (!carry[n - 1].doneClean)
        stage(n - 1);

    // If the final stage stopped early, make sure producers unblock.
    for (auto& q : queues)
        q->cancel();
    for (auto& t : threads)
        t.join();
    watchdogStop.store(true, std::memory_order_release);
    if (watchdog.joinable())
        watchdog.join();

    const long stalled = stalledStage.load(std::memory_order_relaxed);

    // Decide which stages the next attempt heals and which it resumes
    // (before any throw; runStage already left the holdovers in the
    // carry).  The stages that threw heal; the stalled one only when
    // none threw, as in the error propagation below.
    // A stage that exits cleanly on end-of-stream only *genuinely*
    // finished if every stage upstream of it did too: a failed stage
    // closes its output queue on the way out, so its consumer drains
    // and sees a spurious EOS — that consumer must be resumed, not
    // retired, or the restarted producer would feed a dead queue.
    // Halting is different: a halt is the stage's own decision and
    // retires it regardless of what happened upstream.
    bool anyError = false;
    for (const StageResult& r : results)
        anyError = anyError || r.error;
    bool upstreamDone = true;  // stage 0's source EOS is genuine
    for (size_t i = 0; i < n; ++i) {
        StageCarry& c = carry[i];
        const bool stalledHere = stalled == static_cast<long>(i);
        c.failed = results[i].error || (stalledHere && !anyError);
        if (!c.doneClean)
            c.doneClean = !results[i].error && !results[i].aborted &&
                          !stalledHere && (c.halted || upstreamDone);
        upstreamDone = c.doneClean;
    }

    // Collect stage/queue telemetry before error propagation so partial
    // runs still leave a readable record.
    if (metrics_) {
        metrics_->stages.clear();
        metrics_->stages.resize(n);
        for (size_t i = 0; i < n; ++i) {
            StageMetrics& sm = metrics_->stages[i];
            sm.consumed = steppers_[i].stepper().consumed();
            sm.emitted = steppers_[i].stepper().emitted();
            sm.halted = carry[i].halted;
            sm.sec = results[i].sec;
            sm.pushWaitNs = results[i].pushWaitNs;
            sm.popWaitNs = results[i].popWaitNs;
            if (results[i].error)
                sm.failure = failureCauseName(FailureCause::Exception);
            else if (stalled == static_cast<long>(i))
                sm.failure = failureCauseName(FailureCause::Stall);
            else if (results[i].aborted)
                sm.failure = failureCauseName(FailureCause::Cancel);
            if (i + 1 < n) {
                SpscQueue::Stats qs = queues[i]->stats();
                sm.hasQueue = true;
                sm.queueCapacity = queueCap_;
                sm.queueHighWater = qs.highWater;
                sm.producerStalls = qs.pushStalls;
                sm.consumerStalls = qs.popStalls;
            }
        }
    }
    metrics::Registry::global().counter("ziria.threaded_runs").inc();

    // Error propagation: a throwing stage wins over a stall verdict
    // (the stall is usually collateral of the failed stage).
    for (size_t i = 0; i < n; ++i) {
        if (!results[i].error)
            continue;
        StageFailure f;
        f.stage = i;
        f.path = "stage" + std::to_string(i);
        f.cause = FailureCause::Exception;
        f.message = errorMessage(results[i].error);
        f.inner = results[i].error;
        metrics::Registry::global()
            .counter("ziria.stage_failures")
            .inc();
        throw StageFailureError(std::move(f));
    }
    if (stalled >= 0) {
        StageFailure f;
        f.stage = static_cast<size_t>(stalled);
        f.path = "stage" + std::to_string(stalled);
        f.cause = FailureCause::Stall;
        std::ostringstream os;
        os << "no progress for " << deadlineMs_ << " ms";
        f.message = os.str();
        throw StageFailureError(std::move(f));
    }

    // The steppers count across every attempt of this run.
    RunStats st;
    st.consumed = steppers_.front().stepper().consumed();
    st.emitted = steppers_.back().stepper().emitted();
    for (size_t i = 0; i < n; ++i) {
        if (carry[i].halted) {
            st.halted = true;
            st.ctrl = steppers_[i].stepper().ctrl();
            break;
        }
    }
    st.metrics = metrics_.get();
    return st;
}

} // namespace ziria
