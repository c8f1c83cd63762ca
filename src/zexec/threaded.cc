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
#include "zexec/queue_io.h"
#include "zexec/span.h"

namespace ziria {

namespace {

/** Queue-wait slice for supervised runs: long enough that the periodic
 *  wake-up is noise, short enough that an abort is noticed promptly. */
constexpr long kSupervisedSliceMs = 20;

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
 * Drive stage @p index through RunIo, as every driver does: from its
 * QueueSource (or @p src for stage 0) to its QueueSink (or @p sink for
 * the last stage), in windows and runs of at most kBatchElems.  The run
 * a window made is pushed before the next pull, so no stage waits for
 * input while it holds outputs.  With a span tracker, stage 0 stamps
 * the frames it commits, the last stage those it pushes, and the queue
 * endpoints time their waits.  RunIo checks the teardown flag at every
 * pull and push, the endpoints between wait slices.  A resumed stage
 * continues where its stepper stands (live, or healed by rearmStage):
 * its QueueSink pushes what a teardown left it first (all a halted
 * stage still does), and its QueueSource hands out its popped rest
 * (after a healed stage's journal) before it pops again.
 */
void
ThreadedPipeline::runStage(size_t index, RunState& rs, InputSource& src,
                           OutputSink& sink, StageResult& res)
{
    StageCarry& c = rs.carry[index];
    SupervisedStepper& st = steppers_[index];
    SpanTracker* spans = spans_.get();
    const bool last = index + 1 == stages_.size();
    Stopwatch sw;
    const uint64_t startNs = nowNs();
    RunIo io{c.in ? *c.in : src, c.out ? *c.out : sink, st.stepper(),
             stages_[index]->outWidth()};
    io.cap = kBatchElems;
    io.inSpans = index ? nullptr : spans;
    io.outSpans = last ? spans : nullptr;
    io.abort = &rs.abort;
    io.progress = &res.progress;
    if (c.in)
        c.in->poll.waitNs = spans ? &res.popWaitNs : nullptr;
    if (c.out)
        c.out->poll.waitNs = spans ? &res.pushWaitNs : nullptr;
    StepOutcome oc = StepOutcome::SinkFull;
    try {
        if ((!c.out || c.out->flush()) && !c.halted)
            oc = st.drive(io);
    } catch (...) {
        res.error = std::current_exception();
    }
    c.halted = c.halted || oc == StepOutcome::Halted;
    // Held outputs, a cancelled read, a torn-down queue or an abort are
    // no end of stream: the stage resumes in the next attempt.
    res.aborted = (c.out && c.out->full()) ||
                  (!c.halted && (io.aborted() || (c.in && c.in->tornDown())));
    res.sec = sw.elapsedSec();
    if (timeline::Recorder* r = timeline::active()) {
        uint32_t track = timeline::currentTrack();
        r->nameTrack(track, "stage" + std::to_string(index));
        r->complete("stage", "stage" + std::to_string(index),
                    startNs, nowNs() - startNs, track);
    }
    if (!last)
        rs.queues[index]->close();
    // A halted (or failed) stage stops upstream producers.
    if ((c.halted || res.error) && index)
        rs.queues[index - 1]->cancel();
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
    RunState rs;
    rs.carry.resize(stages_.size());
    const QueuePoll poll{deadlineMs_ > 0 ? kSupervisedSliceMs : -1,
                         &rs.abort};
    for (size_t i = 0; i + 1 < stages_.size(); ++i) {
        rs.queues.push_back(
            std::make_unique<SpscQueue>(queueWidth(*stages_[i]), queueCap_));
        rs.carry[i].out = std::make_unique<QueueSink>(*rs.queues[i], poll);
        rs.carry[i + 1].in =
            std::make_unique<QueueSource>(*rs.queues[i], poll);
    }

    // A cadence only with a restart policy, as Pipeline::run.
    for (SupervisedStepper& s : steppers_) {
        s.setInterval(restart_.enabled() ? ckpt_.interval : 0);
        s.begin();
    }
    RunStats st = RestartSupervisor(restart_).run(
        [&] { return runAttempt(rs, src, sink); },
        [&](const StageFailure&) {
            // The backoff is slept and every stage thread was joined
            // before runAttempt threw, so re-arming is single-threaded.
            // Clearing the endpoints' cancel latches lets the live source
            // keep feeding the next attempt.
            rearmStage(rs);
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
 * what its queue endpoints hold; healthy stages keep their live state.
 * No queue is dropped: each has its teardown latches cleared, and the
 * queue of a finished producer is closed again so its consumer still
 * sees end-of-stream.
 */
void
ThreadedPipeline::rearmStage(RunState& rs)
{
    auto& carry = rs.carry;
    auto& reg = metrics::Registry::global();
    for (size_t i = 0; i < carry.size(); ++i) {
        if (!carry[i].failed)
            continue;
        reg.counter("restart.stage.attempts").inc();
        if (steppers_[i].heal())
            reg.counter("restart.stage.restored").inc();
        carry[i].halted = false;  // it runs again from where it healed
    }
    for (size_t qi = 0; qi < rs.queues.size(); ++qi) {
        // Queue qi sits between stage qi (producer) and qi+1 (consumer).
        rs.queues[qi]->uncancel();
        if (carry[qi].doneClean)
            rs.queues[qi]->close();
    }
}

RunStats
ThreadedPipeline::runAttempt(RunState& rs, InputSource& src,
                             OutputSink& sink)
{
    using clock = std::chrono::steady_clock;
    const size_t n = stages_.size();
    const bool supervised = deadlineMs_ > 0;
    auto& queues = rs.queues;
    auto& carry = rs.carry;

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
    std::atomic<bool>& abort = rs.abort;
    abort.store(false, std::memory_order_relaxed);
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
    auto stage = [&](size_t i) { runStage(i, rs, src, sink, results[i]); };
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
    // (before any throw; the queue endpoints already hold what the
    // stages left).  The stages that threw heal; the stalled one only when
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
