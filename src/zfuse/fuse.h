/**
 * @file
 * The fused execution backend: public entry points.
 *
 * `buildNodeFused` is the fused counterpart of `buildNode`
 * (zexec/pipeline.cc): it lowers the whole optimized computation tree
 * of one partition into ONE FusedNode (a flat bytecode program,
 * zfuse/bytecode.h).  Every form lowers: an interior `|>>>|` runs as a
 * plain `>>>` (thread partitions are split off before the build, as
 * the VM does), and native stream blocks (FFT, Viterbi, ...) run their
 * kernels inline.
 * The result sits behind the ExecNode interface, so tracing, frame
 * spans, fault injection, supervised restart and zserve sessions
 * compose unchanged, and `reset()` re-zeroes the fused state block
 * (the PR-4 re-arm contract holds by construction: start == reset ==
 * zero state + re-enter at the program entry).
 *
 * Selected via `CompilerOptions::backend` / `zirrun --backend=fused`.
 * The lowering rules and the bytecode format are documented in
 * docs/FUSION.md.
 */
#ifndef ZIRIA_ZFUSE_FUSE_H
#define ZIRIA_ZFUSE_FUSE_H

#include <memory>
#include <string>
#include <vector>

#include "zast/comp.h"
#include "zcgen/abi.h"
#include "zexec/nodes.h"
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
    int fallbacks = 0;   ///< always 0: every partition fuses (kept for
                         ///< readers of the report schema)
    int fusedOps = 0;    ///< total bytecode instructions emitted
    int channels = 0;    ///< internal `>>>` boundaries compiled away
};

class FusedNode;

/**
 * Lower @p c (elaborated and checked) into its one region; kernels and
 * LUTs are compiled against @p ec exactly as the VM build would.  When
 * instrumented, adds a `native` metrics row per embedded kernel at
 * `<path>/k<i>`.  The native backend (src/zcgen/) binds compiled code
 * into the region before finishRegion() hides it behind the shims.
 */
std::unique_ptr<FusedNode>
buildRegion(const CompPtr& c, ExprCompiler& ec, const BuildOptions& opt,
            BuildStats* stats, FuseStats* fstats, const std::string& path);

/** Width normalization + tracing shim (row kind @p kind), as buildNode. */
NodePtr finishRegion(std::unique_ptr<FusedNode> region, const CompPtr& c,
                     const BuildOptions& opt, const std::string& path,
                     const char* kind);

/**
 * Build the execution tree with the fused backend: one FusedNode for
 * the whole of @p c.  Drop-in replacement for buildNode (same width
 * normalization and instrumentation shims).
 */
NodePtr buildNodeFused(const CompPtr& c, ExprCompiler& ec,
                       const BuildOptions& opt, BuildStats* stats,
                       FuseStats* fstats = nullptr,
                       const std::string& path = "root");

/**
 * One fused region (behind ExecNode; one per partition): the bytecode
 * interpreter, with an optional compiled fast path.  Once bindNative()
 * has attached a `zr_region_0` entry (src/zcgen/), advance() calls
 * it instead of interpreting.  Both engines run the same state machine
 * over the same state: the registers, state block and channel
 * continuations below, plus the parked bytecode pc, spins and out/ctrl
 * pointers held in the ZrCtx the generated code reads and writes
 * (zcgen/abi.h).  Snapshots are therefore identical whichever engine
 * runs the region, and interchangeable between the two.  The node also
 * owns the running instances of the program's native kernels and their
 * output rings; both engines reach them through the same ZrCtx entries.
 * Compiled code indexes the program's lookup tables in place (the
 * `lut` entry); only generic-shape tables go through cbLut.
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
    /** advance() with the windows in the ZrCtx: both engines take and
     *  emit whole runs through them (docs/CODEGEN.md, "Run windows"). */
    Status run(Frame& f, RunWindow& w) override;
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
        RingEmitter em;                        ///< appends to `ring`
        NodeMetrics* metrics = nullptr;
    };

    /** Hand the cursors back to @p w and empty the ZrCtx windows. */
    void readBack(RunWindow& w);

    void kernelStart(int32_t k);
    void kernelFeed(int32_t k, const uint8_t* in);
    void kernelFinished(int32_t k);  ///< a computer kernel halted
    void countFeed(int32_t k);       ///< metrics, when attached
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
    std::vector<KernelSlot> kern_;  ///< sized once: `em` points into it
    std::vector<zcgen::ZrKernel> kview_;  ///< per-kernel ring cursors
    std::vector<const uint8_t*> lutTables_;  ///< luts[i]->table()
    /** Points at the arrays above, which therefore never reallocate. */
    zcgen::ZrCtx ctx_;
    Frame* curFrame_ = nullptr;  ///< frame of the running compiled call
    std::shared_ptr<zcgen::Library> lib_;
    zcgen::ZrRegionFn fn_ = nullptr;
};

} // namespace ziria

#endif // ZIRIA_ZFUSE_FUSE_H
