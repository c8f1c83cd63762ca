/**
 * @file
 * The execution-node interface: the paper's tick/proc model (§2.6).
 *
 * Every compiled computation becomes a re-entrant state machine.  The
 * paper's `tick` ("do you have output / do you need input / did you halt")
 * maps to `advance()` returning Yield / NeedInput / Done, and `proc`
 * (consume a pushed value) maps to `supply()`.  A pipe advances its right
 * child first — pipelines are drained from the right, so no variable-sized
 * queues are needed between `>>>` components and values are pushed as soon
 * as they become available (low latency), exactly as in the paper.
 *
 * Contract:
 *  - `start()` is called before any other method and again on re-init
 *    (that is how `repeat` re-initializes its body);
 *  - `advance()` in the need-input state is idempotent until `supply()`
 *    provides one element (the pointer must stay valid until the next
 *    `advance()` returns);
 *  - after Done, `advance()` is not called again until `start()`;
 *  - `run()` moves whole windows of elements through the same state
 *    machine; with both windows empty it is one `advance()`.
 */
#ifndef ZIRIA_ZEXEC_NODE_H
#define ZIRIA_ZEXEC_NODE_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "support/state_io.h"
#include "zexpr/frame.h"

namespace ziria {

/** Result of one scheduling step. */
enum class Status : uint8_t {
    Yield,      ///< one output element available via out()
    NeedInput,  ///< must supply() one input element to make progress
    Done,       ///< (computers only) halted; control value via ctrl()
};

/**
 * The driver-owned I/O windows of one ExecNode::run() call: a run of
 * input elements to take from and a run of output slots to fill, both
 * as [cursor, end) byte ranges of whole elements.  run() advances the
 * cursors past what it took and wrote, also when it throws, so the
 * driver can account exactly that much.  An empty window (null
 * cursors) is the per-element protocol.
 */
struct RunWindow
{
    const uint8_t* in = nullptr;     ///< next input element to take
    const uint8_t* inEnd = nullptr;
    uint8_t* out = nullptr;          ///< next free output slot
    uint8_t* outEnd = nullptr;
    /** The node returned NeedInput from the last run() and nothing has
     *  touched it since, so its first step is to take input. */
    bool parked = false;
};

/** Base class for execution nodes. */
class ExecNode
{
  public:
    virtual ~ExecNode() = default;

    /** (Re)initialize node state. */
    virtual void start(Frame& f) = 0;

    /** Make progress. */
    virtual Status advance(Frame& f) = 0;

    /** Provide one input element of inWidth() bytes. */
    virtual void supply(Frame& f, const uint8_t* in) = 0;

    /**
     * Make progress through @p w: take input from its input window and
     * write output into its output window without returning, until the
     * node needs input with the input window used up (NeedInput), yields
     * with the output window full (Yield: the element is at out(), after
     * the window's elements), or halts (Done).  A node parked on
     * NeedInput takes the window's first element before anything else.
     *
     * The default adapts advance()/supply()/out() element by element;
     * the fused region overrides it so compiled code copies whole
     * windows in place.
     */
    virtual Status
    run(Frame& f, RunWindow& w)
    {
        // A parked node takes first: no second, idempotent advance().
        Status s = w.parked && w.in != w.inEnd ? Status::NeedInput
                                               : advance(f);
        for (;; s = advance(f)) {
            if (s == Status::NeedInput) {
                if (w.in == w.inEnd)
                    return s;
                // Taken before supply(): a throwing supply() has used
                // the element up, as a per-element driver's pull has.
                const uint8_t* e = w.in;
                w.in += inWidth_;
                supply(f, e);
            } else if (s == Status::Yield && w.out != w.outEnd) {
                std::memcpy(w.out, out(), outWidth_);
                w.out += outWidth_;
            } else {
                return s;
            }
        }
    }

    /** Pointer to the last yielded output element (outWidth() bytes). */
    virtual const uint8_t* out() const = 0;

    /** Pointer to the control value after Done (ctrlWidth() bytes). */
    virtual const uint8_t* ctrl() const { return nullptr; }

    /**
     * Discard ALL state — buffered partial elements, loop counters,
     * chosen branches — and return to the state of a freshly constructed
     * node after start().  Unlike start(), which combinators only apply
     * to the currently active child, reset() must reach every child
     * recursively, including inactive Seq items, untaken If branches and
     * un-started While bodies.  Used by the restart supervisor to re-arm
     * a pipeline at a frame boundary (docs/ROBUSTNESS.md, "Recovery").
     *
     * Contract: `reset(f)` ≡ fresh-construction + `start(f)`.  The
     * default suffices for leaf nodes whose start() already
     * re-initializes everything.
     */
    virtual void reset(Frame& f) { start(f); }

    /**
     * Serialize ALL live state — buffered partial elements, loop
     * counters, chosen branches, and the frame cells this node owns
     * (LetVar storage, seq binders, induction variables, kernel
     * parameter slots) — into @p w.  Like reset(), the walk must reach
     * every child recursively so the stream is total over the tree.
     *
     * Contract: at any quiescent point (no advance()/supply() call in
     * flight), `reset(f)` followed by `restore(f, r)` over the stream
     * written by `snapshot(f, w)` must reproduce a node whose future
     * output is bit-identical to the snapshotted node's
     * (docs/ROBUSTNESS.md, "Checkpointing & migration").
     *
     * The default suffices for stateless leaves; stateful nodes
     * override both methods, and restore() may assume reset(f) ran
     * first (it only patches state back in, it never re-links
     * children).
     */
    virtual void snapshot(const Frame& f, StateWriter& w) const
    {
        (void)f;
        (void)w;
    }

    /** Restore the state written by snapshot(); see its contract. */
    virtual void restore(Frame& f, StateReader& r)
    {
        (void)f;
        (void)r;
    }

    size_t inWidth() const { return inWidth_; }
    size_t outWidth() const { return outWidth_; }
    size_t ctrlWidth() const { return ctrlWidth_; }

    void setInWidth(size_t w) { inWidth_ = w; }
    void setOutWidth(size_t w) { outWidth_ = w; }
    void setCtrlWidth(size_t w) { ctrlWidth_ = w; }

  protected:
    size_t inWidth_ = 0;
    size_t outWidth_ = 0;
    size_t ctrlWidth_ = 0;
};

using NodePtr = std::unique_ptr<ExecNode>;

} // namespace ziria

#endif // ZIRIA_ZEXEC_NODE_H
