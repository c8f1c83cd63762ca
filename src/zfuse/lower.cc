/**
 * @file
 * AST-to-bytecode lowering for the fused backend.
 *
 * Each computation form lowers to a short instruction sequence whose
 * *order of frame side effects and stream transfers* is exactly the
 * order the VM node for that form produces under the right-drain
 * scheduling of §2.6 — that is the whole equivalence argument, checked
 * end to end by the differential oracle.  Per form:
 *
 *   take        TAKE into the binder slot (or scratch), then the halt
 *               continuation.  External takes park the interpreter in
 *               NeedInput; channel takes jump to the producer.
 *   emit        evaluate into the channel buffer / staging, signal.
 *   seq         straight-line concatenation; item i's halt continuation
 *               is item i+1's entry (the "switchtable" of §2.6).
 *   c1 >>> c2   PIPE_INIT (producer pc := left entry), then the right
 *               side's code (consumer-first), then the left side's.
 *               A `|>>>|` inside a partition lowers the same way.
 *   repeat      body halt continuation = SPIN guard + jump to body
 *               entry (re-running the entry code *is* body->start()).
 *   if/times/while  guards and counters evaluated at exactly the VM's
 *               evaluation points (block entry / loop step).
 *   native      NativeNode's state machine, inline: the arguments are
 *               staged and the kernel made at block entry (KSTART);
 *               KNEXT hands on buffered output first, then completes a
 *               halted computer, else the element taken next is fed
 *               to the kernel (KFEED) and the ring is drained again.
 *
 * Expression evaluation reuses the closures the expression VM compiles
 * (zexpr/compile_expr.h) — fusion removes the *machinery* cost (virtual
 * dispatch, per-node buffering), which is what dominates per-`>>>`
 * overhead in bench_fig4_overheads.
 */
#include "zfuse/fuse.h"

#include <sstream>

#include "support/metrics.h"
#include "support/panic.h"
#include "zopt/autolut.h"

namespace ziria {

using namespace zfuse;

// ---------------------------------------------------------------------
// Lowerer
// ---------------------------------------------------------------------

namespace {

constexpr uint32_t kNoLoc = 0x7FFFFFFFu;

size_t
widthOf(const TypePtr& t)
{
    return t ? t->byteWidth() : 0;
}

class Lowerer
{
  public:
    Lowerer(ExprCompiler& ec, const BuildOptions& opt, BuildStats* stats,
            FuseStats* fstats)
        : ec_(ec), opt_(opt), stats_(stats), fstats_(fstats)
    {
        prog_ = std::make_shared<FuseProgram>();
    }

    std::shared_ptr<const FuseProgram>
    run(const CompPtr& c)
    {
        Ctx ctx;
        ctx.nodeDone = true;
        ctx.halt = newLabel();
        lower(c, ctx);
        bind(ctx.halt);
        emit({Op::Halt});
        patch();
        const CompType& ct = c->ctype();
        prog_->inWidth = widthOf(ct.in);
        prog_->outWidth = widthOf(ct.out);
        prog_->ctrlWidth = ct.isComputer ? widthOf(ct.ctrl) : 0;
        prog_->nRegs = nRegs_;
        prog_->stateBytes = stateBytes_;
        if (fstats_) {
            fstats_->fusedOps += static_cast<int>(prog_->instrs.size());
            fstats_->channels +=
                static_cast<int>(prog_->channels.size());
        }
        return prog_;
    }

  private:
    /** Lowering context threaded through the computation tree. */
    struct Ctx
    {
        int inCh = -1;            ///< -1 = the node's external input
        int outCh = -1;           ///< -1 = the node's external output
        uint32_t ctrlDst = kNoLoc; ///< where the control value lands
        bool nodeDone = false;    ///< completion completes the node
        int halt = -1;            ///< label: continuation after Done
    };

    // ----- assembler --------------------------------------------------

    uint32_t
    emit(Instr i)
    {
        prog_->instrs.push_back(i);
        return static_cast<uint32_t>(prog_->instrs.size() - 1);
    }

    int
    newLabel()
    {
        labels_.push_back(kNoTarget);
        return static_cast<int>(labels_.size() - 1);
    }

    void
    bind(int label)
    {
        ZIRIA_ASSERT(labels_[label] == kNoTarget, "label bound twice");
        labels_[label] = static_cast<uint32_t>(prog_->instrs.size());
    }

    /** Emit with one label-valued operand (field 0=a .. 4=e). */
    void
    emitRef(Instr i, int field, int label)
    {
        fixups_.push_back({emit(i), field, label});
    }

    void
    patch()
    {
        for (const auto& fx : fixups_) {
            uint32_t pc = labels_[fx.label];
            ZIRIA_ASSERT(pc != kNoTarget, "unbound label");
            Instr& i = prog_->instrs[fx.instr];
            switch (fx.field) {
              case 0: i.a = pc; break;
              case 1: i.b = pc; break;
              case 2: i.c = pc; break;
              case 3: i.d = pc; break;
              default: i.e = pc; break;
            }
        }
        fixups_.clear();
    }

    uint32_t newReg() { return nRegs_++; }

    uint32_t
    newStage(size_t bytes)
    {
        uint32_t off = stateBytes_;
        stateBytes_ += static_cast<uint32_t>(bytes);
        return stateLoc(off);
    }

    int
    newChannel(size_t width)
    {
        FuseChannel ch;
        ch.bufOff = newStage(width);
        ch.width = static_cast<uint32_t>(width);
        prog_->channels.push_back(ch);
        return static_cast<int>(prog_->channels.size() - 1);
    }

    // Each closure-table append also records the source AST it was
    // compiled from (index-parallel vectors) so the native backend can
    // re-emit the same computation as C++ instead of calling the
    // opaque std::function (docs/CODEGEN.md).

    int32_t
    addInto(EvalInto fn, ExprPtr src)
    {
        prog_->intoFns.push_back(std::move(fn));
        prog_->intoSrc.push_back(std::move(src));
        return static_cast<int32_t>(prog_->intoFns.size() - 1);
    }

    int32_t
    addInt(EvalInt fn, ExprPtr src)
    {
        prog_->intFns.push_back(std::move(fn));
        prog_->intSrc.push_back(std::move(src));
        return static_cast<int32_t>(prog_->intFns.size() - 1);
    }

    int32_t
    addAction(Action fn, StmtList src)
    {
        prog_->actions.push_back(std::move(fn));
        prog_->actionSrc.push_back(std::move(src));
        return static_cast<int32_t>(prog_->actions.size() - 1);
    }

    int32_t
    addLut(std::shared_ptr<CompiledLut> lut)
    {
        prog_->luts.push_back(std::move(lut));
        return static_cast<int32_t>(prog_->luts.size() - 1);
    }

    // ----- shared fragments -------------------------------------------

    /** One `take` worth of input into @p dst. */
    void
    takeInto(const Ctx& ctx, uint32_t dst, size_t width)
    {
        if (ctx.inCh < 0) {
            Instr i{Op::TakeExt};
            i.a = dst;
            i.b = static_cast<uint32_t>(width);
            i.c = newReg();
            emit(i);
        } else {
            Instr i{Op::TakeCh};
            i.a = dst;
            i.b = static_cast<uint32_t>(width);
            i.c = static_cast<uint32_t>(ctx.inCh);
            emit(i);
        }
    }

    /** Where should a single produced element be written? */
    uint32_t
    outDst(const Ctx& ctx, size_t width)
    {
        if (ctx.outCh >= 0)
            return stateLoc(prog_->channels[ctx.outCh].bufOff);
        return newStage(width);
    }

    /** The element at @p src (== outDst result) is ready: hand it on. */
    void
    sendOut(const Ctx& ctx, uint32_t src)
    {
        if (ctx.outCh >= 0) {
            Instr i{Op::EmitChSig};
            i.a = static_cast<uint32_t>(ctx.outCh);
            emit(i);
        } else {
            Instr i{Op::EmitExt};
            i.a = src;
            emit(i);
        }
    }

    /**
     * Evaluate @p e into @p dst.  A bare variable reference that already
     * has a frame slot becomes a COPY — the closure would do the same
     * memcpy behind a std::function call (hot on emit-per-element
     * paths).
     */
    void
    evalInto(const ExprPtr& e, uint32_t dst)
    {
        size_t w = e->type()->byteWidth();
        if (e->kind() == ExprKind::Var) {
            const VarRef& v = static_cast<const VarExpr&>(*e).var();
            if (ec_.layout().has(v.get())) {
                Instr i{Op::Copy};
                i.a = dst;
                i.b = frameLoc(ec_.layout().offsetOf(v.get()));
                i.c = static_cast<uint32_t>(w);
                emit(i);
                return;
            }
        }
        Instr i{Op::EvalInto};
        i.fn = addInto(ec_.compileInto(e), e);
        i.a = dst;
        emit(i);
    }

    /**
     * A computer completed: expose its control value (when this
     * completion completes the whole FusedNode) and jump to the halt
     * continuation.  @p ctrlSrc already holds the bytes (kNoLoc for
     * unit control).
     */
    void
    tail(const Ctx& ctx, uint32_t ctrlSrc, size_t width)
    {
        if (ctx.nodeDone) {
            Instr i{Op::Ctrl};
            i.a = ctrlSrc == kNoLoc ? 0 : ctrlSrc;
            i.b = static_cast<uint32_t>(width);
            emit(i);
        }
        emitRef({Op::Jmp}, 0, ctx.halt);
    }

    // ----- per-form lowering ------------------------------------------

    void
    lower(const CompPtr& c, const Ctx& ctx)
    {
        switch (c->kind()) {
          case CompKind::Take: {
            const auto& t = static_cast<const TakeComp&>(*c);
            size_t w = t.valType()->byteWidth();
            uint32_t dst =
                ctx.ctrlDst != kNoLoc ? ctx.ctrlDst : newStage(w);
            takeInto(ctx, dst, w);
            tail(ctx, dst, w);
            break;
          }
          case CompKind::TakeMany: {
            const auto& t = static_cast<const TakeManyComp&>(*c);
            size_t ew = t.elemType()->byteWidth();
            size_t n = static_cast<size_t>(t.count());
            uint32_t dst = ctx.ctrlDst != kNoLoc ? ctx.ctrlDst
                                                 : newStage(ew * n);
            uint32_t have = newReg();
            Instr s{Op::SetReg};
            s.a = have;
            s.b = 0;
            emit(s);
            Instr i{ctx.inCh < 0 ? Op::TakeManyExt : Op::TakeManyCh};
            i.a = dst;
            i.b = static_cast<uint32_t>(ew);
            if (ctx.inCh < 0) {
                i.c = have;
                i.d = static_cast<uint32_t>(n);
            } else {
                i.c = static_cast<uint32_t>(ctx.inCh);
                i.d = static_cast<uint32_t>(n);
                i.e = have;
            }
            emit(i);
            tail(ctx, dst, ew * n);
            break;
          }
          case CompKind::Emit: {
            const auto& e = static_cast<const EmitComp&>(*c);
            size_t w = e.expr()->type()->byteWidth();
            uint32_t dst = outDst(ctx, w);
            evalInto(e.expr(), dst);
            sendOut(ctx, dst);
            tail(ctx, kNoLoc, 0);
            break;
          }
          case CompKind::Emits: {
            const auto& e = static_cast<const EmitsComp&>(*c);
            const TypePtr& at = e.expr()->type();
            size_t ew = at->elem()->byteWidth();
            size_t len = static_cast<size_t>(at->len());
            uint32_t stage = newStage(ew * len);
            evalInto(e.expr(), stage);
            uint32_t idx = newReg();
            Instr s{Op::SetReg};
            s.a = idx;
            s.b = 0;
            emit(s);
            int done = newLabel();
            Instr i{ctx.outCh >= 0 ? Op::EmitsCh : Op::EmitsExt};
            i.a = stage;
            i.b = static_cast<uint32_t>(ew);
            i.c = idx;
            i.d = static_cast<uint32_t>(len);
            if (ctx.outCh >= 0)
                i.fn = ctx.outCh;
            emitRef(i, 4, done);
            bind(done);
            tail(ctx, kNoLoc, 0);
            break;
          }
          case CompKind::Return: {
            const auto& r = static_cast<const ReturnComp&>(*c);
            if (!r.stmts().empty()) {
                Instr i{Op::Action};
                i.fn = addAction(ec_.compileStmts(r.stmts()), r.stmts());
                emit(i);
            }
            if (r.ret()) {
                size_t w = r.ret()->type()->byteWidth();
                uint32_t own = newStage(w);
                evalInto(r.ret(), own);
                uint32_t src = own;
                if (ctx.ctrlDst != kNoLoc) {
                    Instr cp{Op::Copy};
                    cp.a = ctx.ctrlDst;
                    cp.b = own;
                    cp.c = static_cast<uint32_t>(w);
                    emit(cp);
                    src = ctx.ctrlDst;
                }
                tail(ctx, src, w);
            } else {
                tail(ctx, kNoLoc, 0);
            }
            break;
          }
          case CompKind::Seq: {
            const auto& s = static_cast<const SeqComp&>(*c);
            const auto& items = s.items();
            for (size_t i = 0; i < items.size(); ++i) {
                const auto& it = items[i];
                bool last = i + 1 == items.size();
                Ctx ic = ctx;
                ic.nodeDone = last && ctx.nodeDone;
                uint32_t bindDst = kNoLoc;
                size_t bindW = 0;
                if (it.bind) {
                    bindDst = frameLoc(ec_.layout().add(it.bind));
                    bindW = it.bind->type->byteWidth();
                }
                ic.ctrlDst = it.bind
                    ? bindDst
                    : (last ? ctx.ctrlDst : kNoLoc);
                int shim = -1;
                if (!last) {
                    ic.halt = newLabel();
                } else if (it.bind && ctx.ctrlDst != kNoLoc &&
                           ctx.ctrlDst != bindDst) {
                    // Rare: a bound last item whose ctrl must also
                    // propagate to the enclosing computer.
                    shim = newLabel();
                    ic.halt = shim;
                } else {
                    ic.halt = ctx.halt;
                }
                lower(it.comp, ic);
                if (!last) {
                    bind(ic.halt);
                } else if (shim >= 0) {
                    bind(shim);
                    Instr cp{Op::Copy};
                    cp.a = ctx.ctrlDst;
                    cp.b = bindDst;
                    cp.c = static_cast<uint32_t>(bindW);
                    emit(cp);
                    emitRef({Op::Jmp}, 0, ctx.halt);
                }
            }
            break;
          }
          case CompKind::Pipe: {
            // A `|>>>|` lowers as a plain `>>>`: thread partitions are
            // split off before the build, as the VM does.
            const auto& p = static_cast<const PipeComp&>(*c);
            int ch = newChannel(widthOf(p.left()->ctype().out));
            int leftEntry = newLabel();
            Instr pi{Op::PipeInit};
            pi.a = static_cast<uint32_t>(ch);
            emitRef(pi, 1, leftEntry);
            // Consumer first (right-drain): the right side's code
            // follows the PIPE_INIT directly.
            Ctx rc = ctx;
            rc.inCh = ch;
            lower(p.right(), rc);
            bind(leftEntry);
            Ctx lc = ctx;
            lc.outCh = ch;
            lower(p.left(), lc);
            break;
          }
          case CompKind::If: {
            const auto& ic = static_cast<const IfComp&>(*c);
            uint32_t r = newReg();
            Instr ev{Op::EvalInt};
            ev.fn = addInt(ec_.compileInt(ic.cond()), ic.cond());
            ev.a = r;
            emit(ev);
            int elseL = newLabel();
            Instr jz{Op::Jz};
            jz.a = r;
            emitRef(jz, 1, elseL);
            lower(ic.thenC(), ctx);
            bind(elseL);
            if (ic.elseC())
                lower(ic.elseC(), ctx);
            else
                tail(ctx, kNoLoc, 0);  // no-else false: unit Done
            break;
          }
          case CompKind::Repeat: {
            const auto& r = static_cast<const RepeatComp&>(*c);
            int bodyL = newLabel();
            int loopL = newLabel();
            bind(bodyL);
            Ctx bc = ctx;
            bc.ctrlDst = kNoLoc;
            bc.nodeDone = false;
            bc.halt = loopL;
            lower(r.body(), bc);
            bind(loopL);
            emit({Op::Spin});
            emitRef({Op::Jmp}, 0, bodyL);
            break;
          }
          case CompKind::Times: {
            const auto& t = static_cast<const TimesComp&>(*c);
            uint32_t rN = newReg();
            uint32_t rI = newReg();
            Instr ev{Op::EvalInt};
            ev.fn = addInt(ec_.compileInt(t.count()), t.count());
            ev.a = rN;
            emit(ev);
            Instr s{Op::SetReg};
            s.a = rI;
            s.b = 0;
            emit(s);
            uint32_t ivOff = kNoTarget;
            uint32_t ivKind = 0;
            if (t.inductionVar()) {
                ivOff = static_cast<uint32_t>(
                    ec_.layout().add(t.inductionVar()));
                ivKind = static_cast<uint32_t>(
                    t.inductionVar()->type->kind());
                Instr iv{Op::IvWrite};
                iv.a = ivOff;
                iv.b = ivKind;
                iv.c = rI;
                emit(iv);
            }
            int doneL = newLabel();
            int bodyL = newLabel();
            int stepL = newLabel();
            Instr jge{Op::JgeRR};
            jge.a = rI;
            jge.b = rN;
            emitRef(jge, 2, doneL);
            bind(bodyL);
            Ctx bc = ctx;
            bc.ctrlDst = kNoLoc;
            bc.nodeDone = false;
            bc.halt = stepL;
            lower(t.body(), bc);
            bind(stepL);
            Instr st{Op::TimesStep};
            st.a = rI;
            st.b = rN;
            st.d = ivOff;
            st.e = ivKind;
            emitRef(st, 2, bodyL);  // falls through to doneL when done
            bind(doneL);
            tail(ctx, kNoLoc, 0);
            break;
          }
          case CompKind::While: {
            const auto& w = static_cast<const WhileComp&>(*c);
            int condL = newLabel();
            int doneL = newLabel();
            bind(condL);
            uint32_t r = newReg();
            Instr ev{Op::EvalInt};
            ev.fn = addInt(ec_.compileInt(w.cond()), w.cond());
            ev.a = r;
            emit(ev);
            Instr jz{Op::Jz};
            jz.a = r;
            emitRef(jz, 1, doneL);
            Ctx bc = ctx;
            bc.ctrlDst = kNoLoc;
            bc.nodeDone = false;
            bc.halt = condL;
            lower(w.body(), bc);
            bind(doneL);
            tail(ctx, kNoLoc, 0);
            break;
          }
          case CompKind::Map: {
            const auto& m = static_cast<const MapComp&>(*c);
            CompiledKernel k = ec_.compileKernel(m.fun());
            std::shared_ptr<CompiledLut> lut;
            if (opt_.autoLut)
                lut = tryBuildMapLut(m.fun(), k, ec_, opt_.lutLimits);
            if (stats_) {
                ++stats_->mapNodes;
                if (lut) {
                    ++stats_->lutsBuilt;
                    stats_->lutBytes += lut->tableBytes();
                    metrics::Registry::global()
                        .counter("ziria.luts_built")
                        .inc();
                }
            }
            size_t inW = m.fun()->params[0]->type->byteWidth();
            size_t outW = m.fun()->retType->byteWidth();
            uint32_t param = frameLoc(k.paramOffsets[0]);
            uint32_t dst = outDst(ctx, outW);
            int loopL = newLabel();
            bind(loopL);
            takeInto(ctx, param, inW);
            if (lut) {
                Instr li{Op::Lut};
                li.fn = addLut(std::move(lut));
                li.a = dst;
                emit(li);
            } else {
                if (k.body) {
                    Instr a{Op::Action};
                    a.fn = addAction(k.body, k.bodySrc);
                    emit(a);
                }
                if (k.retInto) {
                    Instr ei{Op::EvalInto};
                    ei.fn = addInto(k.retInto, k.retSrc);
                    ei.a = dst;
                    emit(ei);
                }
            }
            sendOut(ctx, dst);
            emitRef({Op::Jmp}, 0, loopL);
            break;
          }
          case CompKind::Filter: {
            const auto& fc = static_cast<const FilterComp&>(*c);
            CompiledKernel k = ec_.compileKernel(fc.pred());
            size_t w = fc.pred()->params[0]->type->byteWidth();
            uint32_t param = frameLoc(k.paramOffsets[0]);
            uint32_t keep = newStage(1);
            uint32_t r = newReg();
            int loopL = newLabel();
            bind(loopL);
            takeInto(ctx, param, w);
            if (k.body) {
                Instr a{Op::Action};
                a.fn = addAction(k.body, k.bodySrc);
                emit(a);
            }
            Instr ei{Op::EvalInto};
            ei.fn = addInto(k.retInto, k.retSrc);
            ei.a = keep;
            emit(ei);
            Instr lb{Op::LoadByte};
            lb.a = r;
            lb.b = keep;
            emit(lb);
            Instr jz{Op::Jz};
            jz.a = r;
            emitRef(jz, 1, loopL);
            if (ctx.outCh >= 0) {
                Instr ec{Op::EmitCh};
                ec.a = param;
                ec.b = static_cast<uint32_t>(w);
                ec.c = static_cast<uint32_t>(ctx.outCh);
                emit(ec);
            } else {
                Instr ee{Op::EmitExt};
                ee.a = param;
                emit(ee);
            }
            emitRef({Op::Jmp}, 0, loopL);
            break;
          }
          case CompKind::LetVar: {
            const auto& l = static_cast<const LetVarComp&>(*c);
            size_t off = ec_.layout().add(l.var());
            size_t w = l.var()->type->byteWidth();
            if (l.init()) {
                evalInto(l.init(), frameLoc(off));
            } else {
                Instr z{Op::Zero};
                z.a = frameLoc(off);
                z.b = static_cast<uint32_t>(w);
                emit(z);
            }
            lower(l.body(), ctx);
            break;
          }
          case CompKind::Native:
            lowerNative(static_cast<const NativeComp&>(*c), ctx);
            break;
          case CompKind::CallComp:
            panic("unelaborated computation call reached the fused "
                  "lowerer");
        }
    }

    void
    lowerNative(const NativeComp& n, const Ctx& ctx)
    {
        const CompType& ct = n.spec()->ctype;
        FuseKernel k;
        k.spec = n.spec();
        k.inWidth = widthOf(ct.in);
        k.outWidth = widthOf(ct.out);
        k.isComputer = ct.isComputer;
        k.ctrlWidth = ct.isComputer ? widthOf(ct.ctrl) : 0;
        for (const auto& a : n.args()) {
            uint32_t off = newStage(a->type()->byteWidth());
            evalInto(a, off);
            k.argTypes.push_back(a->type());
            k.argOffs.push_back(off);
        }
        k.ctrlOff = newStage(k.ctrlWidth);
        const int32_t idx = static_cast<int32_t>(prog_->kernels.size());
        prog_->kernels.push_back(std::move(k));
        // Nothing below adds a kernel, so the reference stays valid.
        const FuseKernel& fk = prog_->kernels.back();

        Instr ks{Op::KStart};
        ks.fn = idx;
        emit(ks);
        uint32_t in = newStage(fk.inWidth);
        uint32_t dst = outDst(ctx, fk.outWidth);
        int nextL = newLabel();
        int needL = newLabel();
        int doneL = newLabel();
        bind(nextL);
        Instr kn{Op::KNext};
        kn.fn = idx;
        kn.a = dst;
        kn.b = static_cast<uint32_t>(fk.outWidth);
        uint32_t at = emit(kn);
        fixups_.push_back({at, 2, needL});
        fixups_.push_back({at, 3, doneL});
        sendOut(ctx, dst);
        emitRef({Op::Jmp}, 0, nextL);
        bind(needL);
        takeInto(ctx, in, fk.inWidth);
        Instr kf{Op::KFeed};
        kf.fn = idx;
        kf.a = in;
        emit(kf);
        emitRef({Op::Jmp}, 0, nextL);
        bind(doneL);
        // A halted computer's ctrl() was copied to its state slot.
        uint32_t src = fk.ctrlWidth ? fk.ctrlOff : kNoLoc;
        if (fk.ctrlWidth && ctx.ctrlDst != kNoLoc) {
            Instr cp{Op::Copy};
            cp.a = ctx.ctrlDst;
            cp.b = fk.ctrlOff;
            cp.c = static_cast<uint32_t>(fk.ctrlWidth);
            emit(cp);
            src = ctx.ctrlDst;
        }
        tail(ctx, src, fk.ctrlWidth);
    }

    ExprCompiler& ec_;
    const BuildOptions& opt_;
    BuildStats* stats_;
    FuseStats* fstats_;
    std::shared_ptr<FuseProgram> prog_;

    struct Fixup
    {
        uint32_t instr;
        int field;
        int label;
    };
    std::vector<uint32_t> labels_;
    std::vector<Fixup> fixups_;
    uint32_t nRegs_ = 0;
    uint32_t stateBytes_ = 0;
};

} // namespace

// ---------------------------------------------------------------------
// Fused tree construction (the buildNode counterpart)
// ---------------------------------------------------------------------

std::unique_ptr<FusedNode>
buildRegion(const CompPtr& c, ExprCompiler& ec, const BuildOptions& opt,
            BuildStats* stats, FuseStats* fstats, const std::string& path)
{
    if (stats)
        ++stats->nodes;
    auto node = std::make_unique<FusedNode>(
        Lowerer(ec, opt, stats, fstats).run(c));
    if (opt.instrument && opt.metrics) {
        // One row per embedded kernel, so profiles still show the FFT
        // or the Viterbi by name once it sits inside a region.
        const auto& ks = node->program().kernels;
        for (size_t i = 0; i < ks.size(); ++i) {
            NodeMetrics& nm = opt.metrics->addNode(
                path + "/k" + std::to_string(i), "native");
            nm.inWidth = ks[i].inWidth;
            nm.outWidth = ks[i].outWidth;
            node->setKernelMetrics(i, &nm);
        }
    }
    if (fstats)
        ++fstats->nodesFused;
    metrics::Registry::global().counter("ziria.fuse.nodes_fused").inc();
    return node;
}

NodePtr
finishRegion(std::unique_ptr<FusedNode> region, const CompPtr& c,
             const BuildOptions& opt, const std::string& path,
             const char* kind)
{
    NodePtr node = std::move(region);
    const CompType& ct = c->ctype();
    node->setInWidth(widthOf(ct.in));
    node->setOutWidth(widthOf(ct.out));
    if (ct.isComputer)
        node->setCtrlWidth(widthOf(ct.ctrl));
    if (opt.instrument && opt.metrics) {
        NodeMetrics& nm = opt.metrics->addNode(path, kind);
        nm.inWidth = node->inWidth();
        nm.outWidth = node->outWidth();
        node = std::make_unique<TracedNode>(std::move(node), &nm,
                                            opt.sampleShift);
    }
    return node;
}

NodePtr
buildNodeFused(const CompPtr& c, ExprCompiler& ec, const BuildOptions& opt,
               BuildStats* stats, FuseStats* fstats, const std::string& path)
{
    return finishRegion(buildRegion(c, ec, opt, stats, fstats, path), c,
                        opt, path, "fused");
}

// ---------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------

namespace zfuse {

const char*
opName(Op op)
{
    switch (op) {
      case Op::TakeExt: return "take.ext";
      case Op::TakeManyExt: return "taken.ext";
      case Op::TakeCh: return "take.ch";
      case Op::TakeManyCh: return "taken.ch";
      case Op::EmitExt: return "emit.ext";
      case Op::EmitChSig: return "emit.sig";
      case Op::EmitCh: return "emit.ch";
      case Op::EmitsExt: return "emits.ext";
      case Op::EmitsCh: return "emits.ch";
      case Op::EvalInto: return "eval.into";
      case Op::EvalInt: return "eval.int";
      case Op::Action: return "action";
      case Op::Lut: return "lut";
      case Op::KStart: return "k.start";
      case Op::KNext: return "k.next";
      case Op::KFeed: return "k.feed";
      case Op::Copy: return "copy";
      case Op::Zero: return "zero";
      case Op::LoadByte: return "loadb";
      case Op::SetReg: return "setreg";
      case Op::IvWrite: return "ivwrite";
      case Op::Jmp: return "jmp";
      case Op::Jz: return "jz";
      case Op::JgeRR: return "jge";
      case Op::TimesStep: return "times.step";
      case Op::PipeInit: return "pipe.init";
      case Op::Spin: return "spin";
      case Op::Ctrl: return "ctrl";
      case Op::Halt: return "halt";
    }
    return "?";
}

namespace {

std::string
locStr(uint32_t enc)
{
    std::ostringstream os;
    if (enc & kFrameBit)
        os << "f[" << (enc & ~kFrameBit) << "]";
    else
        os << "s[" << enc << "]";
    return os.str();
}

} // namespace

std::string
FuseProgram::disassemble() const
{
    std::ostringstream os;
    os << "fused program: " << instrs.size() << " ops, "
       << channels.size() << " channel(s), " << nRegs << " reg(s), "
       << stateBytes << " state byte(s)\n";
    for (size_t i = 0; i < instrs.size(); ++i) {
        const Instr& in = instrs[i];
        os << "  " << i << ": " << opName(in.op);
        switch (in.op) {
          case Op::TakeExt:
            os << " " << locStr(in.a) << " w" << in.b;
            break;
          case Op::TakeManyExt:
            os << " " << locStr(in.a) << " w" << in.b << " n" << in.d;
            break;
          case Op::TakeCh:
            os << " " << locStr(in.a) << " w" << in.b << " ch" << in.c;
            break;
          case Op::TakeManyCh:
            os << " " << locStr(in.a) << " w" << in.b << " ch" << in.c
               << " n" << in.d;
            break;
          case Op::EmitExt:
            os << " " << locStr(in.a);
            break;
          case Op::EmitChSig:
            os << " ch" << in.a;
            break;
          case Op::EmitCh:
            os << " " << locStr(in.a) << " w" << in.b << " ch" << in.c;
            break;
          case Op::EmitsExt:
            os << " " << locStr(in.a) << " w" << in.b << " n" << in.d
               << " done@" << in.e;
            break;
          case Op::EmitsCh:
            os << " " << locStr(in.a) << " w" << in.b << " n" << in.d
               << " ch" << in.fn << " done@" << in.e;
            break;
          case Op::EvalInto:
            os << " fn" << in.fn << " -> " << locStr(in.a);
            break;
          case Op::EvalInt:
            os << " fn" << in.fn << " -> r" << in.a;
            break;
          case Op::Action:
            os << " fn" << in.fn;
            break;
          case Op::Lut:
            os << " lut" << in.fn << " -> " << locStr(in.a);
            break;
          case Op::KStart:
            os << " k" << in.fn << " "
               << kernels[static_cast<size_t>(in.fn)].spec->name;
            break;
          case Op::KNext:
            os << " k" << in.fn << " -> " << locStr(in.a) << " w" << in.b
               << " need@" << in.c << " done@" << in.d;
            break;
          case Op::KFeed:
            os << " k" << in.fn << " <- " << locStr(in.a);
            break;
          case Op::Copy:
            os << " " << locStr(in.a) << " <- " << locStr(in.b) << " w"
               << in.c;
            break;
          case Op::Zero:
            os << " " << locStr(in.a) << " w" << in.b;
            break;
          case Op::LoadByte:
            os << " r" << in.a << " <- " << locStr(in.b);
            break;
          case Op::SetReg:
            os << " r" << in.a << " = " << in.b;
            break;
          case Op::IvWrite:
            os << " f[" << in.a << "] <- r" << in.c;
            break;
          case Op::Jmp:
            os << " @" << in.a;
            break;
          case Op::Jz:
            os << " r" << in.a << " @" << in.b;
            break;
          case Op::JgeRR:
            os << " r" << in.a << ">=r" << in.b << " @" << in.c;
            break;
          case Op::TimesStep:
            os << " r" << in.a << "/r" << in.b << " body@" << in.c;
            break;
          case Op::PipeInit:
            os << " ch" << in.a << " prod@" << in.b;
            break;
          case Op::Ctrl:
            os << " " << locStr(in.a) << " w" << in.b;
            break;
          case Op::Spin:
          case Op::Halt:
            break;
        }
        os << "\n";
    }
    return os.str();
}

size_t
FuseProgram::countOp(Op op) const
{
    size_t n = 0;
    for (const Instr& i : instrs)
        if (i.op == op)
            ++n;
    return n;
}

} // namespace zfuse

} // namespace ziria
