/**
 * @file
 * The fused bytecode interpreter.
 *
 * One FusedNode::advance() call executes straight-line bytecode until it
 * must touch the outside world: an external take parks the pc on the
 * take instruction and returns NeedInput (supply() then writes directly
 * into the take's destination and re-arms it), an external emit returns
 * Yield with out() pointing into the state block, and Halt returns Done
 * with ctrl() set by the preceding Ctrl instruction.  Under run() the
 * driver's windows sit in the ZrCtx: takes copy from the input window
 * and emits append to the output window without returning, so only an
 * empty input window, a full output window or Halt leave the loop.
 * Internal `>>>` boundaries never leave the loop: they are two saved
 * program counters and a one-element buffer (see zfuse/bytecode.h for
 * the protocol).
 *
 * Dispatch is computed-goto under GCC/Clang (one indirect branch per
 * instruction, the classic direct-threaded interpreter) with a switch
 * fallback elsewhere.  The jump-table order must match `enum class Op`.
 *
 * A region bound to compiled code (bindNative, src/zcgen/) skips the
 * interpreter: advance() is one branch plus the indirect call into the
 * generated function, which runs the same protocol over the same
 * state through the node's ZrCtx.  When no compiled entry is bound —
 * no compiler on the host, a failed compile, a missing symbol — the
 * node simply interprets, so the fallback ladder (native -> fused)
 * changes speed, never observable behaviour.
 */
#include "zfuse/fuse.h"

#include <algorithm>
#include <cstring>

#include "support/panic.h"
#include "zexec/nodes.h"
#include "ztype/value.h"

namespace ziria {

using namespace zfuse;

namespace {

/// Same budget as RepeatNode (zexec/nodes_comb.cc): iterations a repeat
/// body may complete without any I/O before we flag a livelock.
constexpr uint64_t fuseSpinLimit = 1u << 20;

} // namespace

FusedNode::FusedNode(std::shared_ptr<const FuseProgram> prog)
    : prog_(std::move(prog))
{
    regs_.resize(prog_->nRegs, 0);
    state_.resize(prog_->stateBytes, 0);
    chProdPc_.resize(prog_->channels.size(), 0);
    chConsPc_.resize(prog_->channels.size(), 0);
    chFull_.resize(prog_->channels.size(), 0);
    kern_.resize(prog_->kernels.size());
    for (size_t k = 0; k < kern_.size(); ++k)
        kern_[k].em = RingEmitter(kern_[k].ring, prog_->kernels[k].outWidth);
    kview_.resize(prog_->kernels.size(), zcgen::ZrKernel{});
    for (const auto& lut : prog_->luts)
        lutTables_.push_back(lut->table());
    setInWidth(prog_->inWidth);
    setOutWidth(prog_->outWidth);
    setCtrlWidth(prog_->ctrlWidth);

    std::memset(&ctx_, 0, sizeof(ctx_));
    ctx_.st = state_.data();
    ctx_.regs = regs_.data();
    ctx_.chProdPc = chProdPc_.data();
    ctx_.chConsPc = chConsPc_.data();
    ctx_.chFull = chFull_.data();
    ctx_.ctrlWidth = prog_->ctrlWidth;
    ctx_.host = this;
    ctx_.hostInto = &FusedNode::cbInto;
    ctx_.hostInt = &FusedNode::cbInt;
    ctx_.hostAction = &FusedNode::cbAction;
    ctx_.hostLut = &FusedNode::cbLut;
    ctx_.trapMsg = &FusedNode::cbTrapMsg;
    ctx_.trapIndex = &FusedNode::cbTrapIndex;
    ctx_.trapSlice = &FusedNode::cbTrapSlice;
    ctx_.kern = kview_.data();
    ctx_.kStart = &FusedNode::cbKStart;
    ctx_.kFeed = &FusedNode::cbKFeed;
    ctx_.lut = lutTables_.data();
}

void
FusedNode::bindNative(std::shared_ptr<zcgen::Library> lib,
                      zcgen::ZrRegionFn fn)
{
    lib_ = std::move(lib);
    fn_ = fn;
}

void
FusedNode::start(Frame&)
{
    std::fill(regs_.begin(), regs_.end(), 0);
    std::fill(state_.begin(), state_.end(), 0);
    std::fill(chProdPc_.begin(), chProdPc_.end(), 0);
    std::fill(chConsPc_.begin(), chConsPc_.end(), 0);
    std::fill(chFull_.begin(), chFull_.end(), 0);
    for (KernelSlot& ks : kern_) {
        ks.kernel.reset();
        ks.ring.clear();
    }
    std::fill(kview_.begin(), kview_.end(), zcgen::ZrKernel{});
    ctx_.pc = 0;
    ctx_.spins = 0;
    ctx_.outPtr = nullptr;
    ctx_.ctrlPtr = nullptr;
}

// ---- native kernels ---------------------------------------------------
//
// NativeNode's state machine (zexec/nodes_prim.cc), split across the
// KStart/KNext/KFeed ops: start() == KStart, advance() == KNext (drain
// the ring, then Done once finished, else NeedInput), supply() ==
// KFeed.  Only the ring cursor lives in the ZrCtx-visible view, so
// compiled code pops elements without a call.

std::unique_ptr<NativeKernel>
FusedNode::makeKernel(int32_t k) const
{
    const FuseKernel& fk = prog_->kernels[k];
    std::vector<Value> args;
    args.reserve(fk.argTypes.size());
    for (size_t i = 0; i < fk.argTypes.size(); ++i) {
        Value v = Value::zeroOf(fk.argTypes[i]);
        std::memcpy(v.data(), state_.data() + fk.argOffs[i],
                    fk.argTypes[i]->byteWidth());
        args.push_back(std::move(v));
    }
    return fk.spec->make(args);
}

void
FusedNode::kernelStart(int32_t k)
{
    KernelSlot& ks = kern_[k];
    ks.kernel = makeKernel(k);
    ks.ring.clear();
    kview_[k] = zcgen::ZrKernel{};
}

void
FusedNode::kernelFeed(int32_t k, const uint8_t* in)
{
    KernelSlot& ks = kern_[k];
    zcgen::ZrKernel& v = kview_[k];
    // KNext feeds only a drained ring, so nothing buffered is lost; the
    // view is emptied first in case consume() throws.
    ks.ring.clear();
    v.head = v.size = 0;
    if (ks.kernel->consume(in, ks.em))
        kernelFinished(k);
    v.ring = ks.ring.data();
    v.size = ks.ring.size();
    if (ks.metrics)
        countFeed(k);
}

void
FusedNode::kernelFinished(int32_t k)
{
    const FuseKernel& fk = prog_->kernels[k];
    ZIRIA_ASSERT(fk.isComputer, "transformer kernel claimed completion");
    const std::vector<uint8_t>& c = kern_[k].kernel->ctrl();
    ZIRIA_ASSERT(c.size() == fk.ctrlWidth,
                 "native control value width mismatch");
    std::memcpy(state_.data() + fk.ctrlOff, c.data(), c.size());
    kview_[k].finished = 1;
}

void
FusedNode::countFeed(int32_t k)
{
    const size_t ow = prog_->kernels[k].outWidth;
    NodeMetrics& m = *kern_[k].metrics;
    ++m.supplies;
    if (ow)
        m.yields += kview_[k].size / ow;
}

void
FusedNode::cbKStart(void* host, int32_t k)
{
    static_cast<FusedNode*>(host)->kernelStart(k);
}

void
FusedNode::cbKFeed(void* host, int32_t k, const uint8_t* in)
{
    static_cast<FusedNode*>(host)->kernelFeed(k, in);
}

// ---- host callbacks from generated code ------------------------------

void
FusedNode::cbInto(void* host, int32_t idx, uint8_t* dst)
{
    auto* n = static_cast<FusedNode*>(host);
    n->prog_->intoFns[idx](*n->curFrame_, dst);
}

int64_t
FusedNode::cbInt(void* host, int32_t idx)
{
    auto* n = static_cast<FusedNode*>(host);
    return n->prog_->intFns[idx](*n->curFrame_);
}

void
FusedNode::cbAction(void* host, int32_t idx)
{
    auto* n = static_cast<FusedNode*>(host);
    n->prog_->actions[idx](*n->curFrame_);
}

void
FusedNode::cbLut(void* host, int32_t idx, uint8_t* dst)
{
    auto* n = static_cast<FusedNode*>(host);
    n->prog_->luts[idx]->apply(*n->curFrame_, dst);
}

// Traps throw host-side so diagnostics match the interpreter and the
// closures byte-for-byte.  The generated objects are compiled with
// exceptions enabled by the same toolchain, so FatalError unwinds
// cleanly through the .so frames.
void
FusedNode::cbTrapMsg(void*, const char* msg)
{
    fatal(msg);
}

void
FusedNode::cbTrapIndex(void*, int64_t k, int64_t n)
{
    fatalf("array index out of bounds: ", k, " not in [0, ", n, ")");
}

void
FusedNode::cbTrapSlice(void*, int64_t k, int64_t kEnd, int64_t n)
{
    fatalf("slice out of bounds: [", k, ", ", kEnd, ") not within [0, ",
           n, ")");
}

namespace {

// (space, offset) tag for a pointer into the state block or the frame:
// 0 = null, 1 = state block, 2 = frame.
void
writePtrTag(StateWriter& w, const uint8_t* p, const Frame& f,
            const std::vector<uint8_t>& state)
{
    if (!p) {
        w.u8(0);
        w.u64(0);
    } else if (p >= state.data() && p < state.data() + state.size()) {
        w.u8(1);
        w.u64(static_cast<uint64_t>(p - state.data()));
    } else {
        const uint8_t* base = f.at(0);
        ZIRIA_ASSERT(p >= base && p < base + f.size(),
                     "fused pointer outside state block and frame");
        w.u8(2);
        w.u64(static_cast<uint64_t>(p - base));
    }
}

// @p width is how many bytes the caller will read through the pointer:
// the stream is untrusted on the zserve migration path, so the whole
// window must land inside its space (Frame::at is unchecked).
const uint8_t*
readPtrTag(StateReader& r, const Frame& f,
           const std::vector<uint8_t>& state, size_t width)
{
    uint8_t space = r.u8();
    uint64_t off = r.u64();
    switch (space) {
      case 0:
        return nullptr;
      case 1:
        if (off > state.size() || state.size() - off < width)
            throw StateFormatError("fused pointer outside state block");
        return state.data() + off;
      case 2:
        if (off > f.size() || f.size() - off < width)
            throw StateFormatError("fused pointer outside frame");
        return f.at(static_cast<size_t>(off));
      default:
        throw StateFormatError("bad fused pointer tag");
    }
}

} // namespace

void
FusedNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u64(regs_.size() * sizeof(int64_t));
    w.bytes(regs_.data(), regs_.size() * sizeof(int64_t));
    w.blob(state_.data(), state_.size());
    w.u64(chProdPc_.size());
    for (size_t i = 0; i < chProdPc_.size(); ++i) {
        w.u32(chProdPc_[i]);
        w.u32(chConsPc_[i]);
        w.u8(chFull_[i]);
    }
    w.u32(ctx_.pc);
    w.u64(ctx_.spins);
    w.u64(ctrlWidth_);  // the Ctrl op mutates it at run time
    writePtrTag(w, ctx_.outPtr, f, state_);
    writePtrTag(w, ctx_.ctrlPtr, f, state_);
    for (size_t k = 0; k < kern_.size(); ++k) {
        const KernelSlot& ks = kern_[k];
        w.u8(ks.kernel ? 1 : 0);
        w.u8(kview_[k].finished ? 1 : 0);
        w.u64(kview_[k].head);
        w.blob(ks.ring.data(), ks.ring.size());
        if (ks.kernel)
            ks.kernel->snapshot(w);
    }
}

void
FusedNode::restore(Frame& f, StateReader& r)
{
    uint64_t regBytes = r.u64();
    if (regBytes != regs_.size() * sizeof(int64_t))
        throw StateFormatError("fused register space size mismatch");
    r.bytes(regs_.data(), regBytes);
    // Read in place: ctx_ (and compiled code through it) points into
    // these buffers, so they must never be replaced.
    if (r.u64() != state_.size())
        throw StateFormatError("fused state block size mismatch");
    r.bytes(state_.data(), state_.size());
    uint64_t nch = r.u64();
    if (nch != chProdPc_.size())
        throw StateFormatError("fused channel count mismatch");
    // Every pc in the stream is dispatched as an instruction index by
    // advance()/supply(); an out-of-range one from an untrusted stream
    // would fetch beyond the program.
    const uint32_t nInstr = static_cast<uint32_t>(prog_->instrs.size());
    for (size_t i = 0; i < chProdPc_.size(); ++i) {
        chProdPc_[i] = r.u32();
        chConsPc_[i] = r.u32();
        chFull_[i] = r.u8();
        if (chProdPc_[i] >= nInstr || chConsPc_[i] >= nInstr)
            throw StateFormatError("fused channel pc out of range");
    }
    uint32_t pc = r.u32();
    if (pc >= nInstr)
        throw StateFormatError("fused pc out of range");
    ctx_.pc = pc;
    ctx_.spins = r.u64();
    setCtrlWidth(static_cast<size_t>(r.u64()));
    ctx_.ctrlWidth = ctrlWidth_;
    ctx_.outPtr = readPtrTag(r, f, state_, outWidth());
    ctx_.ctrlPtr = readPtrTag(r, f, state_, ctrlWidth_);
    for (size_t k = 0; k < kern_.size(); ++k) {
        const FuseKernel& fk = prog_->kernels[k];
        KernelSlot& ks = kern_[k];
        bool live = r.u8() != 0;
        bool finished = r.u8() != 0;
        uint64_t head = r.u64();
        std::vector<uint8_t> ring = r.blob();
        // Untrusted on the zserve migration path: KNext copies outWidth
        // bytes at head, so the ring and cursor must stay element-
        // aligned and in bounds, as NativeNode::restore checks.
        const size_t ow = fk.outWidth;
        if (ow == 0 ? (head != 0 || !ring.empty())
                    : (ring.size() % ow != 0 || head % ow != 0 ||
                       head > ring.size()))
            throw StateFormatError("native output ring out of bounds");
        if (finished && (!live || !fk.isComputer))
            throw StateFormatError("finished native kernel out of place");
        if (!live && !ring.empty())
            throw StateFormatError("native output ring without kernel");
        ks.ring = std::move(ring);
        if (live) {
            // Re-made from its staged arguments (the state block above),
            // then the kernel's own state is patched in.
            ks.kernel = makeKernel(static_cast<int32_t>(k));
            ks.kernel->restore(r);
        } else {
            ks.kernel.reset();
        }
        kview_[k].ring = ks.ring.data();
        kview_[k].head = head;
        kview_[k].size = ks.ring.size();
        kview_[k].finished = finished ? 1 : 0;
    }
}

void
FusedNode::supply(Frame& f, const uint8_t* in)
{
    // advance() only returns NeedInput parked on an external take, so
    // the parked pc identifies exactly where the element goes — the
    // VM's supply-then-consume order collapses to one direct write.
    // Compiled code parks on the same bytecode pc.
    const Instr& i = prog_->instrs[ctx_.pc];
    switch (i.op) {
      case Op::TakeExt:
        std::memcpy(loc(f, i.a), in, i.b);
        regs_[i.c] = 1;
        break;
      case Op::TakeManyExt:
        std::memcpy(loc(f, i.a) + regs_[i.c] * i.b, in, i.b);
        ++regs_[i.c];
        break;
      default:
        panic("FusedNode::supply: not parked on an external take");
    }
}

Status
FusedNode::run(Frame& f, RunWindow& w)
{
    ctx_.inCur = w.in;
    ctx_.inEnd = w.inEnd;
    ctx_.outCur = w.out;
    ctx_.outEnd = w.outEnd;
    Status s;
    try {
        s = advance(f);
    } catch (...) {
        // Whatever the region took and wrote before the trap is the
        // driver's to account.
        readBack(w);
        throw;
    }
    readBack(w);
    return s;
}

void
FusedNode::readBack(RunWindow& w)
{
    w.in = ctx_.inCur;
    w.out = ctx_.outCur;
    ctx_.inCur = ctx_.inEnd = nullptr;
    ctx_.outCur = ctx_.outEnd = nullptr;
}

Status
FusedNode::advance(Frame& f)
{
    if (fn_) {
        ctx_.fr = f.at(0);
        curFrame_ = &f;
        int rc = fn_(&ctx_);
        setCtrlWidth(ctx_.ctrlWidth);
        return static_cast<Status>(rc);
    }

    const Instr* code = prog_->instrs.data();
    const FuseChannel* chans = prog_->channels.data();
    uint32_t pc = ctx_.pc;

#if defined(__GNUC__) || defined(__clang__)
    // Direct-threaded dispatch; table order MUST match enum class Op.
    static const void* kJump[] = {
        &&op_TakeExt,   &&op_TakeManyExt, &&op_TakeCh,  &&op_TakeManyCh,
        &&op_EmitExt,   &&op_EmitChSig,   &&op_EmitCh,  &&op_EmitsExt,
        &&op_EmitsCh,   &&op_EvalInto,    &&op_EvalInt, &&op_Action,
        &&op_Lut,       &&op_KStart,      &&op_KNext,   &&op_KFeed,
        &&op_Copy,      &&op_Zero,        &&op_LoadByte, &&op_SetReg,
        &&op_IvWrite,   &&op_Jmp,         &&op_Jz,      &&op_JgeRR,
        &&op_TimesStep, &&op_PipeInit,    &&op_Spin,    &&op_Ctrl,
        &&op_Halt,
    };
#define OP(name) op_##name:
#define NEXT() goto* kJump[static_cast<size_t>(code[pc].op)]
    NEXT();
#else
#define OP(name) case Op::name:
#define NEXT() continue
    for (;;) {
        switch (code[pc].op) {
#endif

    OP(TakeExt)
    {
        const Instr& i = code[pc];
        if (regs_[i.c]) {
            regs_[i.c] = 0;  // supplied while parked
        } else if (ctx_.inCur != ctx_.inEnd) {
            std::memcpy(loc(f, i.a), ctx_.inCur, i.b);
            ctx_.inCur += i.b;
        } else {
            ctx_.pc = pc;
            return Status::NeedInput;
        }
        ctx_.spins = 0;
        ++pc;
        NEXT();
    }
    OP(TakeManyExt)
    {
        const Instr& i = code[pc];
        if (regs_[i.c] < static_cast<int64_t>(i.d) &&
            ctx_.inCur != ctx_.inEnd) {
            // As many as the window holds, up to the count.
            size_t k = std::min<size_t>(
                static_cast<size_t>(ctx_.inEnd - ctx_.inCur) / i.b,
                static_cast<size_t>(i.d - regs_[i.c]));
            std::memcpy(loc(f, i.a) + regs_[i.c] * i.b, ctx_.inCur,
                        k * i.b);
            ctx_.inCur += k * i.b;
            regs_[i.c] += static_cast<int64_t>(k);
        }
        if (regs_[i.c] >= static_cast<int64_t>(i.d)) {
            ctx_.spins = 0;
            ++pc;
            NEXT();
        }
        ctx_.pc = pc;
        return Status::NeedInput;
    }
    OP(TakeCh)
    {
        const Instr& i = code[pc];
        if (chFull_[i.c]) {
            std::memcpy(loc(f, i.a), state_.data() + chans[i.c].bufOff,
                        i.b);
            chFull_[i.c] = 0;
            ctx_.spins = 0;
            ++pc;
        } else {
            chConsPc_[i.c] = pc;
            pc = chProdPc_[i.c];
            ctx_.spins = 0;
        }
        NEXT();
    }
    OP(TakeManyCh)
    {
        const Instr& i = code[pc];
        if (regs_[i.e] >= static_cast<int64_t>(i.d)) {
            ctx_.spins = 0;
            ++pc;
        } else if (chFull_[i.c]) {
            std::memcpy(loc(f, i.a) + regs_[i.e] * i.b,
                        state_.data() + chans[i.c].bufOff, i.b);
            ++regs_[i.e];
            chFull_[i.c] = 0;
            ctx_.spins = 0;
            // pc unchanged: re-run until all n elements are in.
        } else {
            chConsPc_[i.c] = pc;
            pc = chProdPc_[i.c];
        }
        NEXT();
    }
    OP(EmitExt)
    {
        ctx_.outPtr = loc(f, code[pc].a);
        ctx_.spins = 0;
        if (ctx_.outCur != ctx_.outEnd) {
            std::memcpy(ctx_.outCur, ctx_.outPtr, prog_->outWidth);
            ctx_.outCur += prog_->outWidth;
            ++pc;
            NEXT();
        }
        ctx_.pc = pc + 1;
        return Status::Yield;
    }
    OP(EmitChSig)
    {
        const Instr& i = code[pc];
        chFull_[i.a] = 1;
        chProdPc_[i.a] = pc + 1;
        pc = chConsPc_[i.a];
        ctx_.spins = 0;
        NEXT();
    }
    OP(EmitCh)
    {
        const Instr& i = code[pc];
        std::memcpy(state_.data() + chans[i.c].bufOff, loc(f, i.a), i.b);
        chFull_[i.c] = 1;
        chProdPc_[i.c] = pc + 1;
        pc = chConsPc_[i.c];
        ctx_.spins = 0;
        NEXT();
    }
    OP(EmitsExt)
    {
        const Instr& i = code[pc];
        if (regs_[i.c] >= static_cast<int64_t>(i.d)) {
            pc = i.e;
            NEXT();
        }
        ctx_.spins = 0;
        if (ctx_.outCur != ctx_.outEnd) {
            // As many as the window has room for; then re-run this
            // instruction, which ends the loop or yields the next one.
            size_t k = std::min<size_t>(
                static_cast<size_t>(ctx_.outEnd - ctx_.outCur) / i.b,
                static_cast<size_t>(i.d - regs_[i.c]));
            std::memcpy(ctx_.outCur, loc(f, i.a) + regs_[i.c] * i.b,
                        k * i.b);
            ctx_.outCur += k * i.b;
            regs_[i.c] += static_cast<int64_t>(k);
            ctx_.outPtr = loc(f, i.a) + (regs_[i.c] - 1) * i.b;
            NEXT();
        }
        ctx_.outPtr = loc(f, i.a) + regs_[i.c] * i.b;
        ++regs_[i.c];
        ctx_.pc = pc;  // self-loop: next advance re-runs this instruction
        return Status::Yield;
    }
    OP(EmitsCh)
    {
        const Instr& i = code[pc];
        if (regs_[i.c] >= static_cast<int64_t>(i.d)) {
            pc = i.e;
        } else {
            uint32_t ch = static_cast<uint32_t>(i.fn);
            std::memcpy(state_.data() + chans[ch].bufOff,
                        loc(f, i.a) + regs_[i.c] * i.b, i.b);
            ++regs_[i.c];
            chFull_[ch] = 1;
            chProdPc_[ch] = pc;  // self-loop for the next element
            pc = chConsPc_[ch];
            ctx_.spins = 0;
        }
        NEXT();
    }
    OP(EvalInto)
    {
        const Instr& i = code[pc];
        prog_->intoFns[i.fn](f, loc(f, i.a));
        ++pc;
        NEXT();
    }
    OP(EvalInt)
    {
        const Instr& i = code[pc];
        regs_[i.a] = prog_->intFns[i.fn](f);
        ++pc;
        NEXT();
    }
    OP(Action)
    {
        prog_->actions[code[pc].fn](f);
        ++pc;
        NEXT();
    }
    OP(Lut)
    {
        const Instr& i = code[pc];
        prog_->luts[i.fn]->apply(f, loc(f, i.a));
        ++pc;
        NEXT();
    }
    OP(KStart)
    {
        kernelStart(code[pc].fn);
        ++pc;
        NEXT();
    }
    OP(KNext)
    {
        const Instr& i = code[pc];
        zcgen::ZrKernel& v = kview_[i.fn];
        if (v.head < v.size) {
            std::memcpy(loc(f, i.a), v.ring + v.head, i.b);
            v.head += i.b;
            ++pc;
        } else {
            pc = v.finished ? i.d : i.c;
        }
        NEXT();
    }
    OP(KFeed)
    {
        const Instr& i = code[pc];
        kernelFeed(i.fn, loc(f, i.a));
        ++pc;
        NEXT();
    }
    OP(Copy)
    {
        const Instr& i = code[pc];
        std::memcpy(loc(f, i.a), loc(f, i.b), i.c);
        ++pc;
        NEXT();
    }
    OP(Zero)
    {
        const Instr& i = code[pc];
        std::memset(loc(f, i.a), 0, i.b);
        ++pc;
        NEXT();
    }
    OP(LoadByte)
    {
        const Instr& i = code[pc];
        regs_[i.a] = *loc(f, i.b);
        ++pc;
        NEXT();
    }
    OP(SetReg)
    {
        const Instr& i = code[pc];
        regs_[i.a] = i.b;
        ++pc;
        NEXT();
    }
    OP(IvWrite)
    {
        const Instr& i = code[pc];
        writeIntRaw(static_cast<TypeKind>(i.b), f.at(i.a), regs_[i.c]);
        ++pc;
        NEXT();
    }
    OP(Jmp)
    {
        pc = code[pc].a;
        NEXT();
    }
    OP(Jz)
    {
        const Instr& i = code[pc];
        pc = regs_[i.a] ? pc + 1 : i.b;
        NEXT();
    }
    OP(JgeRR)
    {
        const Instr& i = code[pc];
        pc = regs_[i.a] >= regs_[i.b] ? i.c : pc + 1;
        NEXT();
    }
    OP(TimesStep)
    {
        const Instr& i = code[pc];
        ++regs_[i.a];
        if (regs_[i.a] >= regs_[i.b]) {
            ++pc;  // falls through to the loop's done label
        } else {
            if (i.d != kNoTarget)
                writeIntRaw(static_cast<TypeKind>(i.e), f.at(i.d),
                            regs_[i.a]);
            pc = i.c;  // body entry: re-running it is body->start()
        }
        NEXT();
    }
    OP(PipeInit)
    {
        const Instr& i = code[pc];
        chProdPc_[i.a] = i.b;
        chConsPc_[i.a] = 0;
        chFull_[i.a] = 0;
        ++pc;
        NEXT();
    }
    OP(Spin)
    {
        if (++ctx_.spins > fuseSpinLimit)
            fatal("repeat: body completed 2^20 times without taking or "
                  "emitting (livelock)");
        ++pc;
        NEXT();
    }
    OP(Ctrl)
    {
        const Instr& i = code[pc];
        ctx_.ctrlPtr = i.b ? loc(f, i.a) : nullptr;
        setCtrlWidth(i.b);
        ++pc;
        NEXT();
    }
    OP(Halt)
    {
        ctx_.pc = pc;  // stay parked: a stray advance re-reports Done
        return Status::Done;
    }

#if defined(__GNUC__) || defined(__clang__)
#else
        }
    }
#endif
#undef OP
#undef NEXT
}

} // namespace ziria
