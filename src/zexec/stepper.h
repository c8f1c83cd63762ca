/**
 * @file
 * Cooperative tick/proc stepping: the one run loop of every pipeline
 * driver, and the checkpoint carry that supervises it.
 *
 * The paper's execution model (§2.6) makes each compiled computation a
 * re-enterable state machine, so *driving* one is a small pure loop:
 * hand the node a window of input and room for output
 * (ExecNode::run), account what it took and made, refill, stop on
 * halt.  Stepper is that loop, and every driver feeds it through RunIo
 * (zexec/pipeline.h): Pipeline::run to completion from a blocking
 * source; zserve::Session::step in bursts from a QueueSource that
 * reports Empty when the session should park; each ThreadedPipeline
 * stage from and to its SPSC queues (zexec/queue_io.h).  Every source
 * hands out windows and every sink takes runs; only an input-side span
 * tracker narrows the windows to one element (RunIo says why).
 * SupervisedStepper adds the checkpoint carry and
 * restore-else-reset healing, shared by all three, so a served session
 * or a `|>>>|` stage heals exactly as a solo run does.
 */
#ifndef ZIRIA_ZEXEC_STEPPER_H
#define ZIRIA_ZEXEC_STEPPER_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "zexec/node.h"
#include "zexec/snapshot.h"
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
 * Drives one execution-node tree against a driver's endpoints, keeping
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
     * Run the node until it blocks, halts, or the budget runs out.
     * @p io is what the drive reads and writes; it provides
     *
     *  - `Feed pull(const uint8_t** p, size_t* n)`: a run of `*n >= 1`
     *    input elements at `*p`, valid until the next pull;
     *  - `void commit(size_t n)`: the node took the first n of them;
     *  - `size_t outRoom() const`: how many outputs it takes as one run
     *    now (0 = each element as it is produced);
     *  - `bool push(const uint8_t* p, size_t n)`: deliver n outputs;
     *    false suspends stepping (they HAVE been counted as emitted).
     *
     * The output run is staged in at most kOutRunBytes.  A run the node
     * was in the middle of when it threw is accounted before the
     * exception leaves: what it took is committed and what it made is
     * pushed.
     *
     * @param maxSteps budget for this burst in elements moved, at least
     *                 one per run call, about the advance() calls an
     *                 element-wise drive makes (0 = unlimited).
     */
    template <typename Io>
    StepOutcome
    drive(Frame& f, Io& io, uint64_t maxSteps = 0)
    {
        const size_t ow = root_.outWidth();
        const size_t runCap = ow ? kOutRunBytes / ow : 0;
        RunWindow w;  // the input window lives across run() calls
        uint64_t steps = 0;
        for (;;) {
            const size_t room = std::min(io.outRoom(), runCap);
            if (room && !outRun_)
                outRun_.reset(new uint8_t[kOutRunBytes]);
            w.out = room ? outRun_.get() : nullptr;
            w.outEnd = room ? w.out + room * ow : nullptr;
            const uint8_t* in0 = w.in;
            const uint64_t moved = consumed_ + emitted_;
            Status s;
            try {
                s = root_.run(f, w);
            } catch (...) {
                settle(io, in0, w);
                throw;
            }
            bool more = settle(io, in0, w);
            w.parked = s == Status::NeedInput;
            if (s == Status::Done)
                return StepOutcome::Halted;
            if (s == Status::Yield) {
                ++emitted_;
                // Delivered even when the run already asked to stop:
                // the node cannot take a yield back.
                more = io.push(root_.out(), 1) && more;
            }
            steps += std::max<uint64_t>(consumed_ + emitted_ - moved, 1);
            if (!more)
                return StepOutcome::SinkFull;
            if (w.in != w.inEnd)
                continue;  // the rest of the window comes first
            if (maxSteps && steps >= maxSteps)
                return StepOutcome::Budget;
            if (s == Status::Yield)
                continue;
            size_t n = 0;
            const uint8_t* p = nullptr;
            switch (io.pull(&p, &n)) {
              case Feed::Ready:
                break;
              case Feed::Empty:
                return StepOutcome::NeedInput;
              case Feed::End:
                return StepOutcome::EndOfInput;
            }
            if (maxSteps)
                n = std::min<uint64_t>(n, std::max<uint64_t>(
                                              maxSteps - steps, 1));
            w.in = p;
            w.inEnd = p + n * root_.inWidth();
        }
    }

    /** Bytes of output one run may stage before it reaches the sink. */
    static constexpr size_t kOutRunBytes = 16384;

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
    /**
     * Account one run() call: commit the input it took since @p in0 and
     * push the outputs it staged.  Returns push's verdict (true when
     * nothing was staged).
     */
    template <typename Io>
    bool
    settle(Io& io, const uint8_t* in0, const RunWindow& w)
    {
        const size_t took = elems(in0, w.in, root_.inWidth());
        if (took) {
            io.commit(took);
            consumed_ += took;
        }
        const size_t made =
            w.out ? elems(outRun_.get(), w.out, root_.outWidth()) : 0;
        if (!made)
            return true;
        emitted_ += made;
        return io.push(outRun_.get(), made);
    }

    /** Whole elements of @p width between two cursors; the run of one
     *  that per-element drivers move costs no division. */
    static size_t
    elems(const uint8_t* from, const uint8_t* to, size_t width)
    {
        const size_t bytes = static_cast<size_t>(to - from);
        if (bytes == 0 || bytes == width)
            return bytes ? 1 : 0;
        return bytes / width;
    }

    ExecNode& root_;
    uint64_t consumed_ = 0;
    uint64_t emitted_ = 0;
    std::unique_ptr<uint8_t[]> outRun_;  ///< staged output run
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
    template <typename Io>
    StepOutcome
    drive(Io& io, uint64_t maxSteps = 0)
    {
        if (!interval_ && replayPos_ >= replay_.size() && suppress_ == 0)
            return stepper_.drive(frame_, io, maxSteps);
        Carried<Io> carried{*this, io};
        return stepper_.drive(frame_, carried, maxSteps);
    }

  private:
    /**
     * The carry around a driver's endpoints: the replay queue leads
     * the live source, the input window is capped at the next snapshot
     * boundary, every element taken is journaled, and outputs the
     * downstream already holds are dropped from the front of each run.
     */
    template <typename Io>
    struct Carried
    {
        SupervisedStepper& s;
        Io& io;
        const uint8_t* win = nullptr;  ///< the window being taken from
        bool replaying = false;

        Feed
        pull(const uint8_t** p, size_t* n)
        {
            replaying = s.replayPos_ < s.replay_.size();
            if (replaying) {
                // Journaled again: a second failure replays it too.
                *p = win = s.replay_.data() + s.replayPos_;
                *n = (s.replay_.size() - s.replayPos_) / s.inWidth_;
                return Feed::Ready;
            }
            // Quiescent point: snapshot once the interval has elapsed,
            // outside replay and suppression (where the sink's position
            // matches the stepper's).
            const uint64_t since =
                s.stepper_.consumed() - s.snapConsumed_;
            if (s.interval_ && s.suppress_ == 0 && since >= s.interval_)
                s.cadence();
            Feed fd = io.pull(p, n);
            win = *p;
            if (fd == Feed::Ready && s.interval_) {
                // End the window where a per-element drive would take
                // the next snapshot; while outputs are being swallowed
                // that point is not known ahead, so go element-wise.
                uint64_t left = s.suppress_
                    ? 1
                    : s.interval_ -
                          (s.stepper_.consumed() - s.snapConsumed_);
                *n = static_cast<size_t>(std::min<uint64_t>(*n, left));
            }
            return fd;
        }

        void
        commit(size_t n)
        {
            const size_t bytes = n * s.inWidth_;
            if (s.interval_)
                s.journal_.insert(s.journal_.end(), win, win + bytes);
            win += bytes;
            if (replaying)
                s.replayPos_ += bytes;
            else
                io.commit(n);
        }

        size_t outRoom() const { return io.outRoom(); }

        bool
        push(const uint8_t* e, size_t n)
        {
            // The downstream already holds the first suppress_ outputs.
            const size_t drop =
                static_cast<size_t>(std::min<uint64_t>(s.suppress_, n));
            s.suppress_ -= drop;
            if (drop == n)
                return true;
            bool more = io.push(e + drop * s.root_.outWidth(), n - drop);
            s.delivered_ = s.stepper_.emitted();
            return more;
        }
    };

    void cadence();

    ExecNode& root_;
    Frame& frame_;
    FrameRange cells_;
    size_t inWidth_;
    Stepper stepper_;
    uint64_t interval_ = 0;
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
