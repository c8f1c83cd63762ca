/**
 * @file
 * The Ziria computation language AST (Figure 1 of the paper).
 *
 * Computations are stream transformers or stream computers, composed on the
 * control path (`seq`) and the data path (`>>>` / `|>>>|`).  Primitives are
 * take/takes, emit/emits, do/return, repeat, times, while, map, plus native
 * stream blocks (the FFT/IFFT/Viterbi kernels the paper also treats as
 * library blocks).
 *
 * Comp nodes are uniquely owned within one program tree: every factory
 * builds fresh nodes, so the checker and vectorizer may annotate nodes in
 * place.  The checker verifies tree-ness.
 */
#ifndef ZIRIA_ZAST_COMP_H
#define ZIRIA_ZAST_COMP_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/state_io.h"
#include "zast/expr.h"
#include "ztype/type.h"

namespace ziria {

class Comp;
using CompPtr = std::shared_ptr<Comp>;

enum class CompKind {
    Take,      ///< take one value from the input stream (computer)
    TakeMany,  ///< take n values as an array (computer)
    Emit,      ///< emit one value (computer, unit control)
    Emits,     ///< emit the elements of an array one by one
    Return,    ///< do/return: lift imperative code (computer)
    Seq,       ///< control-path composition with binders
    Pipe,      ///< data-path composition >>> or |>>>|
    If,        ///< conditional computation
    Repeat,    ///< repeat a computer indefinitely (transformer)
    Times,     ///< repeat a computer e times (computer)
    While,     ///< repeat a computer while a condition holds (computer)
    Map,       ///< map an expression function over the stream (transformer)
    Filter,    ///< keep elements satisfying a predicate (transformer)
    LetVar,    ///< mutable variable scoped over a computation
    Native,    ///< opaque native stream block (FFT, Viterbi, ...)
    CallComp,  ///< call of a named computation function (parser only)
};

/** Vectorization annotation on `repeat` (the paper's `repeat <= [i,o]`). */
struct VectHint
{
    int in = 0;   ///< force input array width (0 = unconstrained)
    int out = 0;  ///< force output array width (0 = unconstrained)
};

/** Cardinality of a computer: values taken and emitted before returning. */
struct Card
{
    long takes = 0;
    long emits = 0;

    bool operator==(const Card&) const = default;
};

/** Base class for computation AST nodes. */
class Comp
{
  public:
    virtual ~Comp() = default;

    CompKind kind() const { return kind_; }

    /** Stream signature; valid after type checking. */
    const CompType& ctype() const { return ctype_; }
    CompType& ctypeMut() { return ctype_; }

    bool isComputer() const { return ctype_.isComputer; }

  protected:
    explicit Comp(CompKind kind) : kind_(kind) {}

  private:
    CompKind kind_;
    CompType ctype_;
};

/** `take` — ctrl type is the taken value's type. */
class TakeComp : public Comp
{
  public:
    explicit TakeComp(TypePtr val_type)
        : Comp(CompKind::Take), valType_(std::move(val_type))
    {
    }

    const TypePtr& valType() const { return valType_; }

  private:
    TypePtr valType_;
};

/** `takes n` — takes n values, ctrl type arr[n]. */
class TakeManyComp : public Comp
{
  public:
    TakeManyComp(TypePtr elem_type, int n)
        : Comp(CompKind::TakeMany), elemType_(std::move(elem_type)), n_(n)
    {
    }

    const TypePtr& elemType() const { return elemType_; }
    int count() const { return n_; }

  private:
    TypePtr elemType_;
    int n_;
};

/** `emit e`. */
class EmitComp : public Comp
{
  public:
    explicit EmitComp(ExprPtr e) : Comp(CompKind::Emit),
                                   expr_(std::move(e)) {}

    const ExprPtr& expr() const { return expr_; }

  private:
    ExprPtr expr_;
};

/** `emits e` — emit the elements of an array-typed expression. */
class EmitsComp : public Comp
{
  public:
    explicit EmitsComp(ExprPtr e) : Comp(CompKind::Emits),
                                    expr_(std::move(e)) {}

    const ExprPtr& expr() const { return expr_; }

  private:
    ExprPtr expr_;
};

/**
 * `do { stmts }` / `return e` — lift imperative code into a computer.
 * Executes the statements, then the optional return expression becomes the
 * control value (unit if absent).
 */
class ReturnComp : public Comp
{
  public:
    ReturnComp(StmtList stmts, ExprPtr ret)
        : Comp(CompKind::Return), stmts_(std::move(stmts)),
          ret_(std::move(ret))
    {
    }

    const StmtList& stmts() const { return stmts_; }
    const ExprPtr& ret() const { return ret_; }  // may be null (unit)

  private:
    StmtList stmts_;
    ExprPtr ret_;
};

/**
 * `seq { x1 <- c1; ...; cn }` — runs each computer in turn; each binder
 * receives the control value of its computation.  The last item may be a
 * transformer, making the whole seq a transformer.
 */
class SeqComp : public Comp
{
  public:
    struct Item
    {
        VarRef bind;  ///< may be null (no binder)
        CompPtr comp;
    };

    explicit SeqComp(std::vector<Item> items)
        : Comp(CompKind::Seq), items_(std::move(items))
    {
    }

    const std::vector<Item>& items() const { return items_; }
    std::vector<Item>& itemsMut() { return items_; }

  private:
    std::vector<Item> items_;
};

/** `c1 >>> c2` (or `c1 |>>>| c2` when threaded). */
class PipeComp : public Comp
{
  public:
    PipeComp(CompPtr left, CompPtr right, bool threaded)
        : Comp(CompKind::Pipe), left_(std::move(left)),
          right_(std::move(right)), threaded_(threaded)
    {
    }

    const CompPtr& left() const { return left_; }
    const CompPtr& right() const { return right_; }
    CompPtr& leftMut() { return left_; }
    CompPtr& rightMut() { return right_; }
    bool threaded() const { return threaded_; }

  private:
    CompPtr left_;
    CompPtr right_;
    bool threaded_;
};

/** `if e then c1 else c2`. */
class IfComp : public Comp
{
  public:
    IfComp(ExprPtr cond, CompPtr then_c, CompPtr else_c)
        : Comp(CompKind::If), cond_(std::move(cond)),
          then_(std::move(then_c)), else_(std::move(else_c))
    {
    }

    const ExprPtr& cond() const { return cond_; }
    const CompPtr& thenC() const { return then_; }
    const CompPtr& elseC() const { return else_; }
    CompPtr& thenCMut() { return then_; }
    CompPtr& elseCMut() { return else_; }

  private:
    ExprPtr cond_;
    CompPtr then_;
    CompPtr else_;
};

/** `repeat c` — transformer that re-initializes c each time it finishes. */
class RepeatComp : public Comp
{
  public:
    RepeatComp(CompPtr body, std::optional<VectHint> hint)
        : Comp(CompKind::Repeat), body_(std::move(body)), hint_(hint)
    {
    }

    const CompPtr& body() const { return body_; }
    CompPtr& bodyMut() { return body_; }
    const std::optional<VectHint>& hint() const { return hint_; }

  private:
    CompPtr body_;
    std::optional<VectHint> hint_;
};

/** `times e { c }` — runs c e times; optional induction variable. */
class TimesComp : public Comp
{
  public:
    TimesComp(ExprPtr count, VarRef iv, CompPtr body)
        : Comp(CompKind::Times), count_(std::move(count)),
          iv_(std::move(iv)), body_(std::move(body))
    {
    }

    const ExprPtr& count() const { return count_; }
    const VarRef& inductionVar() const { return iv_; }  // may be null
    const CompPtr& body() const { return body_; }
    CompPtr& bodyMut() { return body_; }

  private:
    ExprPtr count_;
    VarRef iv_;
    CompPtr body_;
};

/** `while e { c }` — runs c while e holds (dynamic cardinality). */
class WhileComp : public Comp
{
  public:
    WhileComp(ExprPtr cond, CompPtr body)
        : Comp(CompKind::While), cond_(std::move(cond)),
          body_(std::move(body))
    {
    }

    const ExprPtr& cond() const { return cond_; }
    const CompPtr& body() const { return body_; }
    CompPtr& bodyMut() { return body_; }

  private:
    ExprPtr cond_;
    CompPtr body_;
};

/** `map f` — apply an expression function to every stream element. */
class MapComp : public Comp
{
  public:
    explicit MapComp(FunRef fun) : Comp(CompKind::Map), fun_(std::move(fun))
    {
    }

    const FunRef& fun() const { return fun_; }

  private:
    FunRef fun_;
};

/** `filter p` — forward elements for which the predicate holds. */
class FilterComp : public Comp
{
  public:
    explicit FilterComp(FunRef pred)
        : Comp(CompKind::Filter), pred_(std::move(pred))
    {
    }

    const FunRef& pred() const { return pred_; }

  private:
    FunRef pred_;
};

/** `var x : t := e in c` — a mutable variable scoped over a computation. */
class LetVarComp : public Comp
{
  public:
    LetVarComp(VarRef var, ExprPtr init, CompPtr body)
        : Comp(CompKind::LetVar), var_(std::move(var)),
          init_(std::move(init)), body_(std::move(body))
    {
    }

    const VarRef& var() const { return var_; }
    const ExprPtr& init() const { return init_; }  // may be null
    const CompPtr& body() const { return body_; }
    CompPtr& bodyMut() { return body_; }

  private:
    VarRef var_;
    ExprPtr init_;
    CompPtr body_;
};

// ---------------------------------------------------------------------
// Native stream blocks
// ---------------------------------------------------------------------

/** Sink used by native kernels to emit output elements. */
class Emitter
{
  public:
    virtual ~Emitter() = default;

    /** Emit one output element (outType-width bytes). */
    virtual void emit(const uint8_t* elem) = 0;

    /** Emit @p n elements of @p width bytes each, in order (default:
     *  one emit() per element). */
    virtual void
    emitRun(const uint8_t* elems, size_t n, size_t width)
    {
        for (size_t i = 0; i < n; ++i)
            emit(elems + i * width);
    }
};

/**
 * Runtime instance of a native stream block.  Driven by input: `consume`
 * is called once per input element and may emit any number of outputs.
 * A native computer returns true from consume when it halts; its control
 * value is then available from ctrl().
 */
class NativeKernel
{
  public:
    virtual ~NativeKernel() = default;

    /** Reset internal state (called at (re)initialization). */
    virtual void reset() {}

    /**
     * Feed one input element.
     * @return true iff this kernel (a computer) has halted.
     */
    virtual bool consume(const uint8_t* in, Emitter& em) = 0;

    /**
     * Flush at end-of-stream; may emit pending outputs.  Only meaningful
     * for transformers.
     */
    virtual void flush(Emitter& em) { (void)em; }

    /** Control value bytes (computers only, after consume returned true). */
    virtual const std::vector<uint8_t>& ctrl() const;

    /**
     * Serialize ALL mutable state into @p w so a later restore() on a
     * freshly constructed (same-arguments) kernel reproduces bit-
     * identical future output.  Stateless kernels inherit the empty
     * default; stateful ones override both methods symmetrically
     * (docs/ROBUSTNESS.md, "Checkpointing & migration").
     */
    virtual void snapshot(StateWriter& w) const { (void)w; }

    /** Restore the state written by snapshot(); reset() ran first. */
    virtual void restore(StateReader& r) { (void)r; }
};

/** Static description + factory for a native stream block. */
struct NativeBlockSpec
{
    std::string name;
    CompType ctype;  ///< declared signature (in/out/ctrl types)
    /** Factory; receives the evaluated argument values. */
    std::function<std::unique_ptr<NativeKernel>(const std::vector<Value>&)>
        make;
};

/** A use of a native block with (expression) arguments. */
class NativeComp : public Comp
{
  public:
    NativeComp(std::shared_ptr<const NativeBlockSpec> spec,
               std::vector<ExprPtr> args)
        : Comp(CompKind::Native), spec_(std::move(spec)),
          args_(std::move(args))
    {
    }

    const std::shared_ptr<const NativeBlockSpec>& spec() const
    {
        return spec_;
    }
    const std::vector<ExprPtr>& args() const { return args_; }

  private:
    std::shared_ptr<const NativeBlockSpec> spec_;
    std::vector<ExprPtr> args_;
};

// ---------------------------------------------------------------------
// Computation functions (parser-level; inlined by elaboration)
// ---------------------------------------------------------------------

/** A named computation function `let comp f(x : t) = c`. */
struct CompFunDef
{
    std::string name;
    std::vector<VarRef> params;
    CompPtr body;
};

using CompFunRef = std::shared_ptr<const CompFunDef>;

/** Call of a computation function (eliminated by zopt/elaborate). */
class CallCompComp : public Comp
{
  public:
    CallCompComp(CompFunRef fun, std::vector<ExprPtr> args)
        : Comp(CompKind::CallComp), fun_(std::move(fun)),
          args_(std::move(args))
    {
    }

    const CompFunRef& fun() const { return fun_; }
    const std::vector<ExprPtr>& args() const { return args_; }

  private:
    CompFunRef fun_;
    std::vector<ExprPtr> args_;
};

/** Short lowercase name of a computation kind ("take", "pipe", ...). */
const char* compKindName(CompKind k);

/**
 * Number of computation AST nodes in the tree (expressions excluded).
 * Used by pass tracing to report tree growth/shrinkage per pass.
 */
int countComp(const CompPtr& c);

/**
 * Deep-copy a computation, freshening every variable bound inside it and
 * applying @p subst to free variable occurrences (used by elaboration and
 * the vectorizer).  Passing an empty substitution clones the tree.
 */
CompPtr cloneComp(const CompPtr& c,
                  std::vector<std::pair<VarRef, ExprPtr>> subst = {});

/** A function body prepared for inlining at one call site. */
struct InlinedFun
{
    std::vector<VarRef> params;  ///< fresh slots (null where substituted)
    StmtList body;
    ExprPtr ret;                 ///< null for unit functions
};

/**
 * Clone a function body for inlining: locals and parameters are
 * freshened.  If `substArgs[i]` is non-null, parameter i is replaced by
 * that expression instead of getting a fresh slot (used for by-ref
 * parameters).  Pass an empty vector to freshen all parameters.
 */
InlinedFun inlineFun(const FunRef& f,
                     const std::vector<ExprPtr>& substArgs = {});

} // namespace ziria

#endif // ZIRIA_ZAST_COMP_H
