/**
 * @file
 * Multi-core pipeline execution: the `|>>>|` combinator (paper §2.6,
 * "Pipeline parallelization").
 *
 * A program whose top level is `c1 |>>>| c2 |>>>| ... |>>>| cn` is split
 * into stages connected by bounded SPSC queues; every stage runs its own
 * intrathread tick/proc machine.  Elements cross a queue in batches (one
 * locked transfer moves up to a few hundred), so the queue's lock and
 * wake-up are paid per batch, not per element.  As in the paper, pipeline-parallelizing
 * arbitrary interior uses of `>>>` is out of scope: only top-level
 * partitions are executed on separate threads (the compiler driver treats
 * interior `|>>>|` as plain `>>>`).
 *
 * The stages share one Frame; the §2.3 race rule (checked by zcheck)
 * guarantees no mutable variable is written on one side and accessed on
 * the other.
 *
 * Fault tolerance (docs/ROBUSTNESS.md): a run can be supervised by a
 * watchdog (setStallDeadline) that detects global quiescence — no stage
 * making progress for the deadline — and tears the pipeline down
 * deterministically: every SPSC queue is cancelled (waking all waiters),
 * the source and sink are asked to cancel, and run() raises a structured
 * StageFailure naming the stalled stage.  A stage that throws likewise
 * surfaces a StageFailure (cause Exception) after its peers were
 * unblocked via close/cancel propagation; peers never deadlock on a dead
 * neighbour.
 *
 * Self-healing (docs/ROBUSTNESS.md, "Threaded restart"): every stage is
 * its own SupervisedStepper (zexec/stepper.h) over its node tree and its
 * frame cells — the loop Pipeline and Session drive.  With a
 * RestartPolicy of OnFailure, an Exception or Stall failure does not end
 * the run.  After every stage thread has been joined, each failed stage
 * heals as a solo run does: with a CheckpointPolicy it restores its last
 * cadence snapshot, replays its journal and swallows the outputs its
 * consumer already holds; without one it resets to a frame boundary.
 * Healthy stages keep their live state, no queue is dropped, and every
 * stage's queue endpoints keep what they hold: its QueueSource the rest
 * of the batch it popped but has not consumed, its QueueSink the outputs
 * it has not pushed yet, which go first when the stage resumes.
 * The run then sleeps out an exponential backoff and resumes from the
 * live source.  With a cadence the healed output is byte-identical to an
 * uninterrupted run.  Only when the retry budget is spent does run()
 * throw, with the full restart history attached.
 */
#ifndef ZIRIA_ZEXEC_THREADED_H
#define ZIRIA_ZEXEC_THREADED_H

#include <atomic>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "support/panic.h"
#include "zexec/pipeline.h"
#include "zexec/queue_io.h"
#include "zexec/supervisor.h"

namespace ziria {

/** A pipeline whose stages run on separate threads. */
class ThreadedPipeline
{
  public:
    /**
     * @param stages       per-stage node trees, upstream first
     * @param stage_frames each stage's frame cells, same order: what its
     *                     snapshots carry next to its node state
     * @param frame_size   shared frame size
     * @param queue_cap    elements per interthread queue
     */
    ThreadedPipeline(std::vector<NodePtr> stages,
                     std::vector<FrameRange> stage_frames,
                     size_t frame_size, size_t in_width, size_t out_width,
                     size_t queue_cap = 4096);

    // steppers_ refer into *this
    ThreadedPipeline(const ThreadedPipeline&) = delete;
    ThreadedPipeline& operator=(const ThreadedPipeline&) = delete;

    size_t inWidth() const { return inWidth_; }
    size_t outWidth() const { return outWidth_; }
    Frame& frame() { return frame_; }

    /**
     * Run to completion.  Stage 0 reads @p src on its own thread; the
     * last stage runs on the calling thread and writes @p sink.
     *
     * With a RestartPolicy of OnFailure, Exception/Stall failures are
     * retried in place (bounded, backed off) before anything is thrown;
     * RunStats then counts the whole run, and the `restart.*` counters
     * record the recovery history.
     *
     * @throws StageFailureError if a stage throws, or — with a stall
     *         deadline set — if the watchdog detects a stalled run, in
     *         both cases only once the restart budget (if any) is spent.
     */
    RunStats run(InputSource& src, OutputSink& sink);

    size_t stageCount() const { return stages_.size(); }

    /**
     * Arm the watchdog: fail the run with a Stall StageFailure when no
     * stage makes progress for @p ms milliseconds.  0 (the default)
     * disables supervision entirely — no watchdog thread is spawned and
     * the drive loops use plain blocking waits, so the unsupervised path
     * costs exactly what it did before supervision existed.
     *
     * A stage reports progress as each window of up to kBatchElems
     * elements settles, so the deadline must exceed the longest compute
     * of one window in any stage: the watchdog cannot tell a stage stuck
     * in a kernel from one crunching a window of huge elements.
     */
    void setStallDeadline(double ms) { deadlineMs_ = ms; }
    double stallDeadline() const { return deadlineMs_; }

    /** Configure self-healing restarts (default: fail fast). */
    void setRestartPolicy(RestartPolicy p) { restart_ = p; }
    const RestartPolicy& restartPolicy() const { return restart_; }

    /** Per-stage checkpoint cadence, as Pipeline::setCheckpoint: only
     *  takes effect together with a restart policy. */
    void setCheckpoint(CheckpointPolicy p) { ckpt_ = p; }
    const CheckpointPolicy& checkpointPolicy() const { return ckpt_; }

    /** Attach the instrumentation sink; per-stage/queue telemetry is
     *  recorded into it on every run (replacing the previous run's). */
    void setMetrics(std::shared_ptr<PipelineMetrics> m)
    {
        metrics_ = std::move(m);
    }

    const PipelineMetrics* metrics() const { return metrics_.get(); }

    /**
     * Attach a frame-span latency tracker (null = off; zexec/span.h).
     * Frames are stamped by the first stage as it consumes the source
     * and completed by the last stage as it emits to the sink, so the
     * span covers every interthread queue in between; per-stage queue
     * waits are additionally timed into StageMetrics.
     */
    void setSpans(std::shared_ptr<SpanTracker> s)
    {
        spans_ = std::move(s);
    }

    SpanTracker* spans() const { return spans_.get(); }

  private:
    /** What a stage carries across the attempts of one run (its node
     *  state and counters live in its SupervisedStepper). */
    struct StageCarry
    {
        bool doneClean = false;  ///< halted / hit EOS; do not re-run
        bool halted = false;     ///< the stage's computer returned
        bool failed = false;     ///< threw or stalled; heal before retry
        std::unique_ptr<QueueSource> in;  ///< null for stage 0
        std::unique_ptr<QueueSink> out;   ///< null for the last stage
    };
    /** One run(): its queues (queue i feeds stage i+1), the stages'
     *  carries and the teardown flag every endpoint polls. */
    struct RunState
    {
        std::vector<std::unique_ptr<SpscQueue>> queues;
        std::vector<StageCarry> carry;
        std::atomic<bool> abort{false};
    };
    struct StageResult;  ///< one attempt's watchdog view and telemetry

    void runStage(size_t index, RunState& rs, InputSource& src,
                  OutputSink& sink, StageResult& res);
    RunStats runAttempt(RunState& rs, InputSource& src, OutputSink& sink);
    void rearmStage(RunState& rs);

    std::vector<NodePtr> stages_;
    Frame frame_;
    std::vector<SupervisedStepper> steppers_;  ///< per stage
    size_t inWidth_;
    size_t outWidth_;
    size_t queueCap_;
    double deadlineMs_ = 0;
    RestartPolicy restart_;
    CheckpointPolicy ckpt_;
    std::shared_ptr<PipelineMetrics> metrics_;
    std::shared_ptr<SpanTracker> spans_;
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_THREADED_H
