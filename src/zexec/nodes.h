/**
 * @file
 * Concrete execution nodes for every computation form.
 *
 * Primitive nodes (take/emit/return/map/filter/native) are in
 * nodes_prim.cc; combinators (seq/pipe/if/repeat/times/while/letvar) are
 * in nodes_comb.cc.
 */
#ifndef ZIRIA_ZEXEC_NODES_H
#define ZIRIA_ZEXEC_NODES_H

#include <functional>
#include <optional>

#include "zast/comp.h"
#include "zexec/node.h"
#include "zexpr/compile_expr.h"
#include "zexpr/lut.h"

namespace ziria {

/** `take` — waits for one element and returns it as the control value. */
class TakeNode : public ExecNode
{
  public:
    explicit TakeNode(size_t width);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return nullptr; }
    const uint8_t* ctrl() const override { return ctrlBuf_.data(); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    std::vector<uint8_t> ctrlBuf_;
    bool pending_ = false;
};

/** `takes n` — collects n elements into an array control value. */
class TakeManyNode : public ExecNode
{
  public:
    TakeManyNode(size_t elem_width, size_t n);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return nullptr; }
    const uint8_t* ctrl() const override { return ctrlBuf_.data(); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    std::vector<uint8_t> ctrlBuf_;
    size_t n_;
    size_t have_ = 0;
};

/** `emit e` — yields one element, then halts with unit control. */
class EmitNode : public ExecNode
{
  public:
    EmitNode(EvalInto expr, size_t width);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return outBuf_.data(); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    EvalInto expr_;
    std::vector<uint8_t> outBuf_;
    bool emitted_ = false;
};

/** `emits e` — yields the elements of an array, then halts. */
class EmitsNode : public ExecNode
{
  public:
    EmitsNode(EvalInto arr_expr, size_t elem_width, size_t len);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override
    {
        return arrBuf_.data() + (next_ - 1) * outWidth_;
    }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    EvalInto arrExpr_;
    std::vector<uint8_t> arrBuf_;
    size_t len_;
    size_t next_ = 0;
    bool evaluated_ = false;
};

/** `do { ... } / return e` — runs imperative code, halts immediately. */
class ReturnNode : public ExecNode
{
  public:
    ReturnNode(Action body, EvalInto ret, size_t ctrl_width);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return nullptr; }
    const uint8_t* ctrl() const override { return ctrlBuf_.data(); }

  private:
    Action body_;
    EvalInto ret_;
    std::vector<uint8_t> ctrlBuf_;
};

/** One compiled map stage (kernel or its LUT replacement). */
struct MapStage
{
    CompiledKernel kernel;
    std::shared_ptr<CompiledLut> lut;  ///< null = run the kernel body
    size_t inW = 0;
    size_t outW = 0;
};

/**
 * `map f` — one output per input.  The kernel body may be replaced by a
 * lookup table (the auto-LUT optimization); `lut` is null otherwise.
 */
class MapNode : public ExecNode
{
  public:
    MapNode(CompiledKernel kernel, std::shared_ptr<CompiledLut> lut,
            size_t in_width, size_t out_width);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return outBuf_.data(); }

    bool usesLut() const { return stage_.lut != nullptr; }

    /** Hand the stage over for map-chain coalescing. */
    MapStage takeStage() { return std::move(stage_); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    MapStage stage_;
    std::vector<uint8_t> outBuf_;
    bool pending_ = false;
};

/**
 * A coalesced chain of map stages: `map f >>> map g >>> ...` executed
 * back to back per element with no interior pipe traffic — the
 * execution-level form of the paper's static scheduling of map
 * compositions (§4, auto-mapping).
 */
class MapChainNode : public ExecNode
{
  public:
    explicit MapChainNode(std::vector<MapStage> stages);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return outBuf_.data(); }

    /** Hand the stages over for further coalescing. */
    std::vector<MapStage> takeStages() { return std::move(stages_); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    std::vector<MapStage> stages_;
    std::vector<uint8_t> outBuf_;
    bool pending_ = false;
};

/** `filter p` — forwards elements satisfying the predicate. */
class FilterNode : public ExecNode
{
  public:
    FilterNode(CompiledKernel pred, size_t width);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return outBuf_.data(); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    CompiledKernel pred_;
    std::vector<uint8_t> outBuf_;
    bool pending_ = false;
};

/** Appends every emitted element to a byte ring (a kernel's output). */
class RingEmitter : public Emitter
{
  public:
    RingEmitter() = default;
    RingEmitter(std::vector<uint8_t>& ring, size_t width)
        : ring_(&ring), width_(width)
    {
    }

    void
    emit(const uint8_t* elem) override
    {
        ring_->insert(ring_->end(), elem, elem + width_);
    }

    /** The whole run in one insert. */
    void
    emitRun(const uint8_t* elems, size_t n, size_t width) override
    {
        ring_->insert(ring_->end(), elems, elems + n * width);
    }

  private:
    std::vector<uint8_t>* ring_ = nullptr;
    size_t width_ = 0;
};

/** Adapter running a NativeKernel (FFT, Viterbi, ...) as a node. */
class NativeNode : public ExecNode
{
  public:
    /** Factory is invoked at start() so arguments can read seq binders. */
    using Factory = std::function<std::unique_ptr<NativeKernel>(Frame&)>;

    NativeNode(Factory factory, size_t in_width, size_t out_width,
               size_t ctrl_width, bool is_computer);

    void start(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return outBuf_.data(); }
    const uint8_t* ctrl() const override { return kernel_->ctrl().data(); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    Factory factory_;
    std::unique_ptr<NativeKernel> kernel_;
    std::vector<uint8_t> ring_;   ///< buffered output elements
    size_t ringHead_ = 0;         ///< bytes already consumed from ring_
    std::vector<uint8_t> outBuf_;
    bool isComputer_;
    bool finished_ = false;
};

// ---------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------

/** `seq { x <- c1; ... }` — the switchtable of §2.6. */
class SeqNode : public ExecNode
{
  public:
    struct Item
    {
        NodePtr node;
        long bindOff = -1;  ///< frame offset of the binder, -1 if none
        size_t bindWidth = 0;
    };

    explicit SeqNode(std::vector<Item> items);

    void start(Frame& f) override;
    void reset(Frame& f) override;  ///< resets EVERY item, not just [0]
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override;
    const uint8_t* ctrl() const override;

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    std::vector<Item> items_;
    size_t idx_ = 0;
    bool done_ = false;
};

/** `c1 >>> c2` — right-drained data-path composition. */
class PipeNode : public ExecNode
{
  public:
    PipeNode(NodePtr left, NodePtr right);

    void start(Frame& f) override;
    void reset(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return right_->out(); }
    const uint8_t* ctrl() const override { return ctrlSrc_; }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    NodePtr left_;
    NodePtr right_;
    const uint8_t* ctrlSrc_ = nullptr;
    uint8_t ctrlFrom_ = 0;  ///< 0 = none, 1 = left, 2 = right
};

/** `if e then c1 else c2` — the guard is evaluated at initialization. */
class IfNode : public ExecNode
{
  public:
    IfNode(EvalInt cond, NodePtr then_n, NodePtr else_n);

    void start(Frame& f) override;
    void reset(Frame& f) override;  ///< resets BOTH branches
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return chosen_->out(); }
    const uint8_t* ctrl() const override { return chosen_->ctrl(); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    EvalInt cond_;
    NodePtr then_;
    NodePtr else_;
    ExecNode* chosen_ = nullptr;
};

/** `repeat c` — restarts the body each time it halts. */
class RepeatNode : public ExecNode
{
  public:
    explicit RepeatNode(NodePtr body);

    void start(Frame& f) override;
    void reset(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return body_->out(); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    NodePtr body_;
    uint64_t spins_ = 0;  ///< guard against non-consuming bodies
};

/** `times e { c }`. */
class TimesNode : public ExecNode
{
  public:
    TimesNode(EvalInt count, long iv_off, TypeKind iv_kind, NodePtr body);

    void start(Frame& f) override;
    void reset(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return body_->out(); }
    const uint8_t* ctrl() const override { return nullptr; }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    EvalInt count_;
    long ivOff_;
    TypeKind ivKind_;
    NodePtr body_;
    int64_t n_ = 0;
    int64_t i_ = 0;
};

/** `while e { c }` — the guard is re-evaluated before each iteration. */
class WhileNode : public ExecNode
{
  public:
    WhileNode(EvalInt cond, NodePtr body);

    void start(Frame& f) override;
    void reset(Frame& f) override;  ///< resets the (possibly un-started) body
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return body_->out(); }
    const uint8_t* ctrl() const override { return nullptr; }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    EvalInt cond_;
    NodePtr body_;
    bool running_ = false;
    bool finished_ = false;
};

/** `var x := e in c`. */
class LetVarNode : public ExecNode
{
  public:
    LetVarNode(size_t off, size_t width, EvalInto init, NodePtr body);

    void start(Frame& f) override;
    void reset(Frame& f) override;
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return body_->out(); }
    const uint8_t* ctrl() const override { return body_->ctrl(); }

    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

  private:
    size_t off_;
    size_t width_;
    EvalInto init_;  ///< may be null (zero-fill)
    NodePtr body_;
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_NODES_H
