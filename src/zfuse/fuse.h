/**
 * @file
 * The fused execution backend: public entry points.
 *
 * `buildNodeFused` is the fused counterpart of `buildNode`
 * (zexec/pipeline.cc): it walks the optimized computation tree, lowers
 * every maximal *fusible* subtree into one FusedNode (a flat bytecode
 * program, zfuse/bytecode.h), and falls back to ordinary VM nodes only
 * above `|>>>|` boundaries, joining fused regions with the usual
 * combinator nodes.  Native stream blocks (FFT, Viterbi, ...) fuse:
 * the region runs their kernels inline.
 * The result sits behind the ExecNode interface, so tracing, frame
 * spans, fault injection, supervised restart and zserve sessions
 * compose unchanged, and `reset()` re-zeroes the fused state block
 * (the PR-4 re-arm contract holds by construction: start == reset ==
 * zero state + re-enter at the program entry).
 *
 * Selected via `CompilerOptions::backend` / `zirrun --backend=fused`.
 * Fusibility rules, the bytecode format and fallback semantics are
 * documented in docs/FUSION.md.
 */
#ifndef ZIRIA_ZFUSE_FUSE_H
#define ZIRIA_ZFUSE_FUSE_H

#include <memory>
#include <string>
#include <vector>

#include "zast/comp.h"
#include "zcgen/abi.h"
#include "zexec/pipeline.h"
#include "zfuse/bytecode.h"

namespace ziria {

namespace zcgen {
class Library;
}

/** Statistics from one fused build (CompileReport::fuse). */
struct FuseStats
{
    int nodesFused = 0;  ///< FusedNode instances created
    int fallbacks = 0;   ///< VM nodes built because fusion was refused
    int fusedOps = 0;    ///< total bytecode instructions emitted
    int channels = 0;    ///< internal `>>>` boundaries compiled away
};

/**
 * Can this whole subtree be lowered to fused bytecode?  False only for
 * `|>>>|`-marked pipes (a thread boundary must stay a real node so
 * ThreadedPipeline can split it) and unelaborated computation calls;
 * recursively true otherwise.
 */
bool fusibleComp(const CompPtr& c);

/**
 * Lower one fusible subtree to bytecode.  @p c must be elaborated and
 * checked; kernels/LUTs are compiled against @p ec exactly as the VM
 * build would.  Exposed separately for tests and disassembly.
 */
std::shared_ptr<const zfuse::FuseProgram>
lowerFused(const CompPtr& c, ExprCompiler& ec, const BuildOptions& opt,
           BuildStats* stats = nullptr, FuseStats* fstats = nullptr);

class FusedNode;

/**
 * Build the execution tree with the fused backend: maximal fusible
 * subtrees become FusedNodes, the rest VM nodes.  Drop-in replacement
 * for buildNode (same width normalization and instrumentation shims).
 * Every FusedNode made is appended to @p regions (if given) in build
 * order, and reported to tracing shims as @p regionKind — the native
 * backend (src/zcgen/) binds compiled code into them afterwards.
 */
NodePtr buildNodeFused(const CompPtr& c, ExprCompiler& ec,
                       const BuildOptions& opt, BuildStats* stats,
                       FuseStats* fstats = nullptr,
                       const std::string& path = "root",
                       std::vector<FusedNode*>* regions = nullptr,
                       const char* regionKind = "fused");

/**
 * One fused region (behind ExecNode; one per region): the bytecode
 * interpreter, with an optional compiled fast path.  Once bindNative()
 * has attached a `zr_region_<i>` entry (src/zcgen/), advance() calls
 * it instead of interpreting.  Both engines run the same state machine
 * over the same state: the registers, state block and channel
 * continuations below, plus the parked bytecode pc, spins and out/ctrl
 * pointers held in the ZrCtx the generated code reads and writes
 * (zcgen/abi.h).  Snapshots are therefore identical whichever engine
 * runs the region, and interchangeable between the two.  The node also
 * owns the running instances of the program's native kernels and their
 * output rings; both engines reach them through the same ZrCtx entries.
 */
class FusedNode : public ExecNode
{
  public:
    explicit FusedNode(std::shared_ptr<const zfuse::FuseProgram> prog);
    // ctx_ holds `this` and pointers into the node's own arrays.
    FusedNode(const FusedNode&) = delete;
    FusedNode& operator=(const FusedNode&) = delete;

    void start(Frame& f) override;
    /** Total by construction: zero state block + re-enter at entry. */
    void reset(Frame& f) override { start(f); }
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return ctx_.outPtr; }
    const uint8_t* ctrl() const override { return ctx_.ctrlPtr; }

    /**
     * Serialize the register / state-block / channel spaces plus the
     * parked pc.  The out/ctrl pointers are encoded as (space, offset)
     * tags so restore() can re-point them into the new instance.  Frame
     * cells written by compiled Action/EvalInto closures are NOT
     * enumerable from the instruction stream, so frame coverage comes
     * from the snapshot container's frame image (the whole frame, or a
     * `|>>>|` stage's FrameRange), not from this node
     * (docs/ROBUSTNESS.md, "Checkpointing & migration").  A region with
     * native kernels appends, per kernel, whether it is running, its
     * finished flag, its output ring and NativeKernel::snapshot; a
     * kernel-free region's image carries nothing more.
     */
    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

    /** Run this region as compiled code; @p lib keeps the .so alive. */
    void bindNative(std::shared_ptr<zcgen::Library> lib,
                    zcgen::ZrRegionFn fn);

    const zfuse::FuseProgram& program() const { return *prog_; }

    /** Count kernel @p k's consume calls and outputs into @p nm. */
    void setKernelMetrics(size_t k, NodeMetrics* nm)
    {
        kern_[k].metrics = nm;
    }

  private:
    /** The running instance of one of program().kernels. */
    struct KernelSlot
    {
        std::unique_ptr<NativeKernel> kernel;  ///< null until KStart
        std::vector<uint8_t> ring;             ///< ZrKernel::ring's bytes
        NodeMetrics* metrics = nullptr;
    };

    void kernelStart(int32_t k);
    void kernelFeed(int32_t k, const uint8_t* in);
    std::unique_ptr<NativeKernel> makeKernel(int32_t k) const;

    uint8_t* loc(Frame& f, uint32_t enc)
    {
        return (enc & zfuse::kFrameBit)
            ? f.at(enc & ~zfuse::kFrameBit)
            : state_.data() + enc;
    }

    // Host callbacks from generated code (ZrCtx::host is `this`).
    static void cbInto(void* host, int32_t idx, uint8_t* dst);
    static int64_t cbInt(void* host, int32_t idx);
    static void cbAction(void* host, int32_t idx);
    static void cbLut(void* host, int32_t idx, uint8_t* dst);
    static void cbTrapMsg(void* host, const char* msg);
    static void cbTrapIndex(void* host, int64_t k, int64_t n);
    static void cbTrapSlice(void* host, int64_t k, int64_t kEnd,
                            int64_t n);
    static void cbKStart(void* host, int32_t k);
    static void cbKFeed(void* host, int32_t k, const uint8_t* in);

    std::shared_ptr<const zfuse::FuseProgram> prog_;
    std::vector<int64_t> regs_;
    std::vector<uint8_t> state_;
    std::vector<uint32_t> chProdPc_;
    std::vector<uint32_t> chConsPc_;
    std::vector<uint8_t> chFull_;
    std::vector<KernelSlot> kern_;
    std::vector<zcgen::ZrKernel> kview_;  ///< per-kernel ring cursors
    /** Points at the arrays above, which therefore never reallocate. */
    zcgen::ZrCtx ctx_;
    Frame* curFrame_ = nullptr;  ///< frame of the running compiled call
    std::shared_ptr<zcgen::Library> lib_;
    zcgen::ZrRegionFn fn_ = nullptr;
};

} // namespace ziria

#endif // ZIRIA_ZFUSE_FUSE_H
