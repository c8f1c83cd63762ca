/**
 * @file
 * Cooperative tick/proc stepping: the one inner loop of every pipeline
 * driver, and the checkpoint carry that supervises it.
 *
 * The paper's execution model (§2.6) makes each compiled computation a
 * re-enterable state machine, so *driving* one is a small pure loop:
 * advance(), route a yielded element to the sink, feed a needed element
 * from the source, stop on halt.  Stepper is that loop.  Pipeline::run
 * drives it to completion against a blocking source (never Empty);
 * zserve::Session::step drives it in bursts against a queue source that
 * reports Empty when the session should park and free its worker; each
 * ThreadedPipeline stage drives one against its SPSC queues.
 * SupervisedStepper adds the checkpoint carry and restore-else-reset
 * healing, shared by all three, so a served session or a `|>>>|` stage
 * heals exactly as a solo run does.
 */
#ifndef ZIRIA_ZEXEC_STEPPER_H
#define ZIRIA_ZEXEC_STEPPER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "zexec/node.h"
#include "zexec/snapshot.h"
#include "zexec/span.h"
#include "zexpr/frame.h"

namespace ziria {

/** Tri-state result of a non-blocking input pull. */
enum class Feed : uint8_t {
    Ready,  ///< one element produced
    Empty,  ///< nothing available *now* (caller should park and retry)
    End,    ///< end of stream (no element will ever come)
};

/** Why a stepping burst returned control to the caller. */
enum class StepOutcome : uint8_t {
    NeedInput,   ///< pull reported Empty while the node needs input
    EndOfInput,  ///< pull reported End while the node needs input
    SinkFull,    ///< push returned false (element was delivered first)
    Halted,      ///< the computation returned; ctrl value is available
    Budget,      ///< maxSteps advances consumed; more work may be ready
};

/**
 * Drives one execution-node tree against pull/push callbacks, keeping
 * the consumed/emitted accounting every driver reports.
 */
class Stepper
{
  public:
    explicit Stepper(ExecNode& root) : root_(root) {}

    void
    start(Frame& f)
    {
        root_.start(f);
        resume(0, 0);
    }

    /**
     * Continue a tree someone else positioned — restored from a
     * checkpoint, reset after a failure, or carrying live node state
     * across a per-stage restart.  Counters pick up from the given
     * values instead of zero; no start() is issued.
     */
    void
    resume(uint64_t consumed, uint64_t emitted)
    {
        consumed_ = consumed;
        emitted_ = emitted;
    }

    /**
     * Attach a frame-span latency tracker (null = off).  When off the
     * drive loop pays exactly one predictable-false branch per element
     * — the same zero-cost-when-off contract as TracedNode.
     */
    void setSpans(SpanTracker* s) { spans_ = s; }

    /**
     * Advance until the node blocks, halts, or the budget runs out.
     *
     * @param pull `Feed pull(const uint8_t** elem)` — produce one input
     *             element of the node's inWidth (pointer stays valid
     *             until the next advance, per the ExecNode contract).
     * @param push `bool push(const uint8_t* elem)` — consume one output
     *             element; return false to suspend stepping (the element
     *             HAS been counted as emitted).
     * @param maxSteps advance() budget for this burst (0 = unlimited).
     */
    template <typename PullFn, typename PushFn>
    StepOutcome
    drive(Frame& f, PullFn&& pull, PushFn&& push, uint64_t maxSteps = 0)
    {
        for (uint64_t steps = 0;; ++steps) {
            if (maxSteps && steps >= maxSteps)
                return StepOutcome::Budget;
            Status s = root_.advance(f);
            if (s == Status::Yield) {
                ++emitted_;
                if (spans_)
                    spans_->onOutput();
                if (!push(root_.out()))
                    return StepOutcome::SinkFull;
            } else if (s == Status::NeedInput) {
                const uint8_t* p = nullptr;
                switch (pull(&p)) {
                  case Feed::Ready:
                    root_.supply(f, p);
                    ++consumed_;
                    if (spans_)
                        spans_->onInput();
                    break;
                  case Feed::Empty:
                    return StepOutcome::NeedInput;
                  case Feed::End:
                    return StepOutcome::EndOfInput;
                }
            } else {  // Status::Done
                return StepOutcome::Halted;
            }
        }
    }

    uint64_t consumed() const { return consumed_; }
    uint64_t emitted() const { return emitted_; }

    /** Control value bytes after Halted (empty when none). */
    std::vector<uint8_t>
    ctrl() const
    {
        const uint8_t* p = root_.ctrl();
        return p ? std::vector<uint8_t>(p, p + root_.ctrlWidth())
                 : std::vector<uint8_t>{};
    }

  private:
    ExecNode& root_;
    SpanTracker* spans_ = nullptr;
    uint64_t consumed_ = 0;
    uint64_t emitted_ = 0;
};

/**
 * A Stepper plus the checkpoint carry (docs/ROBUSTNESS.md,
 * "Checkpointing & migration").  With a cadence of N, the tree is
 * snapshotted at start and at the first quiescent point after every N
 * consumed elements, and the input since the last snapshot is
 * journaled.  After a failed drive(), heal() restores the snapshot,
 * replays the journal ahead of the live source and swallows the outputs
 * the sink already holds, so the output stream is byte-identical to an
 * uninterrupted run; with no snapshot it resets the tree instead.
 * seed() enters an external checkpoint through the same replay path.
 * Cadence 0 keeps no journal and takes no snapshot.
 */
class SupervisedStepper
{
  public:
    /** @p cells: the bytes of @p frame that @p root owns and its
     *  snapshots carry (the whole frame, or one `|>>>|` stage's). */
    SupervisedStepper(ExecNode& root, Frame& frame, FrameRange cells,
                      size_t in_width)
        : root_(root), frame_(frame), cells_(cells), inWidth_(in_width),
          stepper_(root)
    {
    }

    /** Snapshot cadence in consumed input elements (0 = off). */
    void setInterval(uint64_t elems) { interval_ = elems; }

    /** Frame-span tracker (null = off), re-based by heal(); @p stamp
     *  also stamps every consumed and emitted element. */
    void
    setSpans(SpanTracker* s, bool stamp = true)
    {
        spans_ = s;
        stepper_.setSpans(stamp ? s : nullptr);
    }

    /** Called with every cadence snapshot (the durable-save hook). */
    void
    setOnSnapshot(std::function<void(const std::vector<uint8_t>&)> fn)
    {
        onSnapshot_ = std::move(fn);
    }

    /** Start a fresh run (with the baseline snapshot), unless seed()
     *  positioned the tree since the last begin(). */
    void begin();

    /**
     * Position the tree at a checkpoint: restore @p snap (empty = start
     * fresh), queue @p replay input ahead of the live source, and
     * swallow the next @p suppress outputs, which the downstream already
     * holds.  Throws StateFormatError (the caller then resets the tree).
     */
    SnapshotInfo seed(const std::vector<uint8_t>& snap,
                      std::vector<uint8_t> replay, uint64_t suppress);

    /** Re-arm after a failed drive(): restore-else-reset, as above.
     *  Returns whether a snapshot was restored. */
    bool heal();

    bool started() const { return started_; }

    /** Queued replay input not yet re-fed, oldest first. */
    std::vector<uint8_t>
    unreplayed() const
    {
        return {replay_.begin() + static_cast<std::ptrdiff_t>(replayPos_),
                replay_.end()};
    }

    /** Counters and control value of the underlying loop. */
    const Stepper& stepper() const { return stepper_; }

    /** Outputs the downstream holds: those emitted plus those still to
     *  be swallowed.  Valid between drives, on either drive path. */
    uint64_t delivered() const { return stepper_.emitted() + suppress_; }

    /** Stepper::drive with the carry applied; same contract. */
    template <typename PullFn, typename PushFn>
    StepOutcome
    drive(PullFn&& pull, PushFn&& push, uint64_t maxSteps = 0)
    {
        if (!interval_ && replayPos_ >= replay_.size() && suppress_ == 0)
            return stepper_.drive(frame_, pull, push, maxSteps);
        auto carriedPull = [&](const uint8_t** p) {
            if (replayPos_ < replay_.size()) {
                // Journaled again: a second failure replays it too.
                *p = replay_.data() + replayPos_;
                replayPos_ += inWidth_;
                journal(*p);
                return Feed::Ready;
            }
            // Quiescent point: snapshot once the interval has elapsed,
            // outside replay and suppression (where the sink's position
            // matches the stepper's).
            if (interval_ && suppress_ == 0 &&
                stepper_.consumed() - snapConsumed_ >= interval_)
                cadence();
            Feed fd = pull(p);
            if (fd == Feed::Ready)
                journal(*p);
            return fd;
        };
        auto carriedPush = [&](const uint8_t* e) {
            if (suppress_ > 0) {  // the downstream already holds it
                --suppress_;
                return true;
            }
            bool more = push(e);
            delivered_ = stepper_.emitted();
            return more;
        };
        return stepper_.drive(frame_, carriedPull, carriedPush, maxSteps);
    }

  private:
    void
    journal(const uint8_t* e)
    {
        if (interval_)
            journal_.insert(journal_.end(), e, e + inWidth_);
    }

    void cadence();

    ExecNode& root_;
    Frame& frame_;
    FrameRange cells_;
    size_t inWidth_;
    Stepper stepper_;
    uint64_t interval_ = 0;
    SpanTracker* spans_ = nullptr;
    std::function<void(const std::vector<uint8_t>&)> onSnapshot_;
    bool started_ = false;
    bool seeded_ = false;             ///< next begin() keeps the position
    std::vector<uint8_t> snap_;       ///< last snapshot (empty = none)
    uint64_t snapConsumed_ = 0;       ///< counters at that snapshot
    uint64_t snapEmitted_ = 0;
    std::vector<uint8_t> journal_;    ///< input consumed since snap_
    std::vector<uint8_t> replay_;     ///< input re-fed ahead of the source
    size_t replayPos_ = 0;            ///< byte cursor into replay_
    uint64_t suppress_ = 0;           ///< outputs still to swallow
    uint64_t delivered_ = 0;          ///< outputs the downstream holds
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_STEPPER_H
