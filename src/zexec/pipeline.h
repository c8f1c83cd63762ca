/**
 * @file
 * Pipeline driver: builds execution nodes from a checked computation AST
 * and runs them against input sources and output sinks.
 */
#ifndef ZIRIA_ZEXEC_PIPELINE_H
#define ZIRIA_ZEXEC_PIPELINE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/panic.h"
#include "zast/comp.h"
#include "zexec/node.h"
#include "zexec/span.h"
#include "zexec/stepper.h"
#include "zexec/supervisor.h"
#include "zexec/trace.h"
#include "zexpr/compile_expr.h"
#include "zexpr/lut.h"

namespace ziria {

class CkptStore;

/**
 * Pull-style input, a window at a time: elements of a fixed byte width.
 * window() hands out the elements available now and commit() marks how
 * many of them the drive took; a window stays valid until the next
 * window() call.
 */
class InputSource
{
  public:
    virtual ~InputSource() = default;

    /**
     * The elements available now, as a run: sets @p n (>= 1) and
     * returns the first, or null (see state()).  commit(k) then marks
     * the first k of them consumed; the rest stay in the source and
     * lead the next window.
     */
    virtual const uint8_t* window(size_t* n) = 0;

    /** Consume the first @p n elements of the last window(). */
    virtual void commit(size_t n) = 0;

    /** Why the last window() returned null: End (the default) or
     *  Empty (nothing now; more may come, so park). */
    virtual Feed state() const { return Feed::End; }

    /**
     * Ask a blocked window() to give up and return null as soon as it
     * can.  Called by the ThreadedPipeline supervisor from another
     * thread when a run is aborted; sources that can block (radios,
     * sockets, fault injectors) should honor it.  Default: no-op
     * (memory sources never block).
     */
    virtual void cancel() {}

    /**
     * Clear a sticky cancel() so a restarted run can keep reading from
     * the live stream.  Called single-threadedly by the restart
     * supervisor between attempts; default: no-op (sources without a
     * cancel latch need nothing).
     */
    virtual void rearm() {}
};

/** Reads elements out of a flat byte buffer (not owned). */
class MemSource : public InputSource
{
  public:
    MemSource(const uint8_t* data, size_t bytes, size_t elem_width)
        : data_(data), bytes_(bytes), width_(elem_width)
    {
    }

    explicit MemSource(const std::vector<uint8_t>& buf, size_t elem_width)
        : MemSource(buf.data(), buf.size(), elem_width)
    {
    }

    /** Everything not yet consumed. */
    const uint8_t*
    window(size_t* n) override
    {
        *n = width_ ? (bytes_ - pos_) / width_ : 0;
        return *n ? data_ + pos_ : nullptr;
    }

    void commit(size_t n) override { pos_ += n * width_; }

  private:
    const uint8_t* data_;
    size_t bytes_;
    size_t width_;
    size_t pos_ = 0;
};

/** Cycles through a buffer a given number of times (benchmark feeding). */
class CyclicSource : public InputSource
{
  public:
    CyclicSource(const std::vector<uint8_t>& buf, size_t elem_width,
                 uint64_t total_elems)
        : buf_(buf), width_(elem_width), remaining_(total_elems)
    {
        // The wrap check in window() resets pos_ but still hands out
        // width_ bytes, so a buffer shorter than one element would read
        // past its end.  Reject it up front.
        if (elem_width > 0 && buf.size() < elem_width)
            fatalf("CyclicSource: buffer of ", buf.size(),
                   " byte(s) is smaller than one ", elem_width,
                   "-byte element");
    }

    /** Up to the end of the buffer or of the total, whichever is first. */
    const uint8_t*
    window(size_t* n) override
    {
        if (remaining_ == 0 || width_ == 0) {
            *n = 0;
            return nullptr;
        }
        if (pos_ + width_ > buf_.size())
            pos_ = 0;
        *n = static_cast<size_t>(std::min<uint64_t>(
            remaining_, (buf_.size() - pos_) / width_));
        return buf_.data() + pos_;
    }

    void
    commit(size_t n) override
    {
        remaining_ -= n;
        pos_ += n * width_;
    }

  private:
    const std::vector<uint8_t>& buf_;
    size_t width_;
    uint64_t remaining_;
    size_t pos_ = 0;
};

/** Push-style output, a run at a time. */
class OutputSink
{
  public:
    virtual ~OutputSink() = default;

    /**
     * Consume @p n elements of @p width bytes each.  A sink takes all
     * of a run or throws having taken none: the drive counts a run as
     * delivered once putRun() returns.
     */
    virtual void putRun(const uint8_t* elems, size_t n, size_t width) = 0;

    /** Whether the driver should return after this push, as it does
     *  at max_out: a session over its high water, a torn-down queue. */
    virtual bool full() const { return false; }

    /** Ask a blocked putRun() to give up (see InputSource::cancel()). */
    virtual void cancel() {}

    /** Clear a sticky cancel() (see InputSource::rearm()). */
    virtual void rearm() {}
};

/** Appends output elements to a byte vector. */
class VecSink : public OutputSink
{
  public:
    explicit VecSink(size_t elem_width) : width_(elem_width) {}

    void
    putRun(const uint8_t* elems, size_t n, size_t width) override
    {
        data_.insert(data_.end(), elems, elems + n * width);
    }

    const std::vector<uint8_t>& data() const { return data_; }
    size_t elems() const { return width_ ? data_.size() / width_ : 0; }

  private:
    size_t width_;
    std::vector<uint8_t> data_;
};

/** Discards output (benchmarking; matches the paper's methodology). */
class NullSink : public OutputSink
{
  public:
    void putRun(const uint8_t*, size_t n, size_t) override { count_ += n; }

    uint64_t count() const { return count_; }

  private:
    uint64_t count_ = 0;
};

/**
 * The one adapter between a driver's endpoints and Stepper::drive, for
 * Pipeline::run, every ThreadedPipeline stage and every served session.
 * A null window ends the drive as src.state() says (Empty parks, End
 * finishes); the drive returns after a push that reaches maxOut, fills
 * the sink or meets the abort flag.  Spans are stamped here: input on
 * commit, output on push.  An input-side tracker gets windows of one
 * element: a span opens when its element is committed, and a window
 * commits only after run() returns, so a wider window would open its
 * spans after the work they time.  Output runs close spans at push,
 * when the sink has them, and stay whole.
 */
struct RunIo
{
    InputSource& src;
    OutputSink& sink;
    const Stepper& st;
    size_t width;                ///< output element bytes
    uint64_t maxOut = 0;         ///< stop after this many outputs (0 = no)
    size_t cap = SIZE_MAX;       ///< most elements per window and run
    SpanTracker* inSpans = nullptr;   ///< opens frames on commit
    SpanTracker* outSpans = nullptr;  ///< closes frames on push
    const std::atomic<bool>* abort = nullptr;   ///< a stage's teardown
    std::atomic<uint64_t>* progress = nullptr;  ///< elements moved

    Feed
    pull(const uint8_t** p, size_t* n)
    {
        if (aborted())
            return Feed::End;
        if (!(*p = src.window(n)))
            return src.state();
        *n = std::min(*n, inSpans ? size_t{1} : cap);
        return Feed::Ready;
    }

    void
    commit(size_t n)
    {
        src.commit(n);
        if (inSpans)
            inSpans->onInput(n);
        if (progress)
            progress->fetch_add(n, std::memory_order_relaxed);
    }

    size_t
    outRoom() const
    {
        if (!maxOut)
            return cap;
        // Leave one for the element a full window yields.
        const uint64_t e = st.emitted();
        return maxOut > e + 1
            ? static_cast<size_t>(std::min<uint64_t>(cap, maxOut - e - 1))
            : 0;
    }

    bool
    push(const uint8_t* elems, size_t n)
    {
        sink.putRun(elems, n, width);
        if (outSpans)
            outSpans->onOutput(n);
        if (progress)
            progress->fetch_add(n, std::memory_order_relaxed);
        return !sink.full() && !(maxOut && st.emitted() >= maxOut) &&
               !aborted();
    }

    bool
    aborted() const
    {
        return abort && abort->load(std::memory_order_relaxed);
    }
};

/** Outcome of one pipeline run. */
struct RunStats
{
    uint64_t consumed = 0;       ///< input elements taken
    uint64_t emitted = 0;        ///< output elements produced
    bool halted = false;         ///< a computer returned
    std::vector<uint8_t> ctrl;   ///< its control value bytes
    /** Collected instrumentation, when the pipeline was compiled with
     *  `CompilerOptions::instrument`; null otherwise.  Owned by the
     *  pipeline and cumulative across its runs. */
    const PipelineMetrics* metrics = nullptr;
};

// ---------------------------------------------------------------------
// Node construction
// ---------------------------------------------------------------------

/** Options controlling node-level optimizations and instrumentation. */
struct BuildOptions
{
    bool autoLut = false;   ///< replace eligible map kernels with LUTs
    LutLimits lutLimits;
    bool instrument = false;      ///< wrap nodes in TracedNode shims
    uint32_t sampleShift = 6;     ///< time 1 in 2^N advances per node
    PipelineMetrics* metrics = nullptr;  ///< sink for NodeMetrics entries
};

/** Statistics collected while building (reported by the compiler). */
struct BuildStats
{
    int nodes = 0;
    int mapNodes = 0;
    int lutsBuilt = 0;
    size_t lutBytes = 0;
};

/**
 * Build the execution-node tree for a checked computation.  The comp must
 * be elaborated (no CallComp) and type-checked (ctype() resolved).
 * @p path is the stable node-path prefix used to key NodeMetrics when
 * `opt.instrument` is set (children extend it: "/l", "/r", "/s0", ...).
 */
NodePtr buildNode(const CompPtr& c, ExprCompiler& ec,
                  const BuildOptions& opt, BuildStats* stats,
                  const std::string& path = "root");

// ---------------------------------------------------------------------
// Single-threaded driver
// ---------------------------------------------------------------------

/** A runnable single-threaded pipeline instance. */
class Pipeline
{
  public:
    Pipeline(NodePtr root, size_t frame_size, size_t in_width,
             size_t out_width)
        : root_(std::move(root)), frame_(frame_size), inWidth_(in_width),
          outWidth_(out_width),
          stepper_(*root_, frame_, FrameRange::whole(frame_), in_width)
    {
        stepper_.setOnSnapshot(
            [this](const std::vector<uint8_t>& snap) { durableSave(snap); });
    }

    Pipeline(const Pipeline&) = delete;  // stepper_ refers into *this
    Pipeline& operator=(const Pipeline&) = delete;

    size_t inWidth() const { return inWidth_; }
    size_t outWidth() const { return outWidth_; }
    Frame& frame() { return frame_; }
    ExecNode& root() { return *root_; }

    /** The supervised stepping loop over root() and frame(); run() drives
     *  it to completion, a zserve Session in bursts. */
    SupervisedStepper& stepper() { return stepper_; }

    /**
     * Point stepper() at this pipeline's policies (run() does so itself):
     * a cadence only with a restart policy or a durable store, which
     * engages it even without one.  Returns whether snapshots persist.
     */
    bool configureStepper();

    /**
     * Run until the computation halts or the source is exhausted.
     *
     * With a RestartPolicy of OnFailure (setRestartPolicy), a throwing
     * run is retried in place: SupervisedStepper::heal() restores the
     * last checkpoint or resets the tree to a frame boundary, the
     * endpoints are re-armed, an exponential backoff slept, and the loop
     * resumes from the live source.  Output already pushed to @p sink
     * is kept; RunStats counts the whole run.  Once the retry budget is
     * spent the last failure is rethrown as a StageFailureError with
     * `restartsExhausted` set and the attempt history attached.  With
     * the default (Never) policy the exception propagates unchanged.
     *
     * @param max_out stop after this many outputs (0 = unlimited).
     */
    RunStats run(InputSource& src, OutputSink& sink, uint64_t max_out = 0);

    /** Convenience: feed a byte buffer, collect output bytes. */
    std::vector<uint8_t> runBytes(const std::vector<uint8_t>& input,
                                  RunStats* stats = nullptr);

    /** Attach the instrumentation collected while building the nodes. */
    void setMetrics(std::shared_ptr<PipelineMetrics> m)
    {
        metrics_ = std::move(m);
    }

    /** Per-node counters (null unless compiled with instrumentation). */
    const PipelineMetrics* metrics() const { return metrics_.get(); }

    /** Configure self-healing restarts (default: fail fast). */
    void setRestartPolicy(RestartPolicy p) { restart_ = p; }
    const RestartPolicy& restartPolicy() const { return restart_; }

    /**
     * Configure frame-boundary checkpointing (default: off).  Only takes
     * effect together with a restart policy: every `interval` consumed
     * elements the driver snapshots the full pipeline state and journals
     * the input consumed since, and a restart restores the snapshot and
     * replays the journal (suppressing already-delivered outputs) so the
     * sink's byte stream is identical to an uninterrupted run.  With the
     * default (off) policy the drive loop is unchanged — no snapshot, no
     * journal, no per-element cost.
     */
    void setCheckpoint(CheckpointPolicy p) { ckpt_ = p; }
    const CheckpointPolicy& checkpointPolicy() const { return ckpt_; }

    /** Attach a frame-span latency tracker (null = off; zexec/span.h).
     *  Runs stamp every frame source→sink into its histogram. */
    void setSpans(std::shared_ptr<SpanTracker> s)
    {
        spans_ = std::move(s);
    }

    SpanTracker* spans() const { return spans_.get(); }

    /**
     * Attach a durable checkpoint store (default: none — the cadence
     * loop is byte-for-byte the in-memory path).  With a store and an
     * enabled CheckpointPolicy, every cadence snapshot is also persisted
     * under @p key, so a killed process can resume via restoreDurable().
     * @p prepare (optional) runs before each save — zirrun flushes the
     * output file there so on-disk output always covers the persisted
     * emitted count; returning false skips that save.  A clean run()
     * completion removes the key (no stale resume).
     */
    void setDurable(CkptStore* store, std::string key,
                    std::function<bool(std::string*)> prepare = nullptr)
    {
        durableStore_ = store;
        durableKey_ = std::move(key);
        durablePrepare_ = std::move(prepare);
    }

    /**
     * Restore the pipeline from the newest valid durable generation of
     * the configured key, if any.  On success fills the snapshot's
     * counters and the next run() resumes from that state (the caller
     * skips @p consumed input elements and truncates its output to
     * @p emitted elements).  Corrupt generations quarantine and fall
     * back; returns false on a fresh start.
     */
    bool restoreDurable(uint64_t& consumed, uint64_t& emitted);

  private:
    void durableSave(const std::vector<uint8_t>& snap);

    NodePtr root_;
    Frame frame_;
    size_t inWidth_;
    size_t outWidth_;
    RestartPolicy restart_;
    CheckpointPolicy ckpt_;
    std::shared_ptr<PipelineMetrics> metrics_;
    std::shared_ptr<SpanTracker> spans_;
    CkptStore* durableStore_ = nullptr;
    std::string durableKey_;
    std::function<bool(std::string*)> durablePrepare_;
    SupervisedStepper stepper_;
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_PIPELINE_H
