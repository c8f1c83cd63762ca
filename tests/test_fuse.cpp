/**
 * @file
 * Fused-backend tests (ctest labels `tier1;fuse;diff`):
 *
 *  - lowering: every partition is one region (native blocks and an
 *    interior `|>>>|` too); bytecode structure: channel counts, single
 *    Halt, disassembly;
 *  - the differential oracle over the fused axis ({O0..O3} x {vec} x
 *    {vm,fused} plus threaded-fused cells) on generated programs —
 *    the VM is the semantics, the fused backend must match bit-exactly;
 *  - reset() re-arm totality of FusedNode over the shared
 *    combinator-shape suite (reset == fresh construction + start);
 *  - composition: tracing decorators and the threaded driver run
 *    unchanged over fused regions.
 */
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/backends.h"
#include "support/diff_runner.h"
#include "support/drive.h"
#include "support/fault_injector.h"
#include "support/metrics.h"
#include "support/shapes.h"
#include "zast/builder.h"
#include "zexec/snapshot.h"
#include "zfuse/fuse.h"
#include "zgen/generator.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;
using difftest::DiffConfig;
using difftest::runDifferential;
using testsupport::backendName;
using testsupport::burstBlock;
using testsupport::incBlock;
using testsupport::intBytes;
using testsupport::nativeUnavailable;
using testsupport::resetShapes;
using testsupport::Shape;
using testsupport::takeOne;
using testsupport::throwAtBlock;
using zgen::GenConfig;
using zgen::GenDomain;
using zgen::GenProgram;

CompilerOptions
fusedOptions(OptLevel lvl = OptLevel::None)
{
    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = Backend::Fused;
    return opt;
}

// Native cells compile into one private cache directory (via
// $ZIRIA_CGEN_CACHE), not the user's ~/.cache/ziria/zcgen.
[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

// ------------------------------------------------- lowering structure

TEST(FusedLowering, WholeProgramBecomesOneFusedNode)
{
    CompileReport rep;
    auto p = compilePipeline(pipe(incBlock(1), incBlock(10)),
                             fusedOptions(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_EQ(rep.fuse.fallbacks, 0);
    EXPECT_EQ(rep.fuse.channels, 1);  // the interior >>> compiled away
    EXPECT_GT(rep.fuse.fusedOps, 0);

    auto* fn = dynamic_cast<FusedNode*>(&p->root());
    ASSERT_NE(fn, nullptr);
    const zfuse::FuseProgram& prog = fn->program();
    EXPECT_EQ(prog.countOp(zfuse::Op::Halt), 1u);
    EXPECT_EQ(prog.countOp(zfuse::Op::PipeInit), 1u);
    EXPECT_EQ(prog.channels.size(), 1u);
    EXPECT_EQ(prog.inWidth, 4u);
    EXPECT_EQ(prog.outWidth, 4u);
    EXPECT_NE(prog.disassemble().find("pipe.init"), std::string::npos);
}

TEST(FusedLowering, NativeBlockJoinsFusedRegion)
{
    // fused >>> native >>> fused: one region, the kernel run inline by
    // the k.* ops, no VM node left between the stages.
    auto make = [] {
        return pipe(incBlock(1), pipe(burstBlock(), incBlock(10)));
    };
    CompileReport rep;
    auto p = compilePipeline(make(), fusedOptions(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_EQ(rep.fuse.fallbacks, 0);
    EXPECT_EQ(rep.fuse.channels, 2);
    auto* fn = dynamic_cast<FusedNode*>(&p->root());
    ASSERT_NE(fn, nullptr);
    const zfuse::FuseProgram& prog = fn->program();
    ASSERT_EQ(prog.kernels.size(), 1u);
    EXPECT_EQ(prog.countOp(zfuse::Op::KStart), 1u);
    EXPECT_EQ(prog.countOp(zfuse::Op::KNext), 1u);
    EXPECT_EQ(prog.countOp(zfuse::Op::KFeed), 1u);
    EXPECT_NE(prog.disassemble().find("k.start k0 Burst"),
              std::string::npos);

    // It matches the VM bit for bit.
    std::vector<int32_t> in(64);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    auto vm = compilePipeline(make(),
                              CompilerOptions::forLevel(OptLevel::None));
    auto want = vm->runBytes(bytes);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(p->runBytes(bytes), want);
}

/**
 * Supply @p p at most @p maxElems elements of @p bytes from element
 * @p from, appending its yields to @p out.  Stops parked on NeedInput
 * (where snapshots are taken), at end of input, or at Done; returns
 * the elements supplied.
 */
size_t
driveSome(Pipeline& p, const std::vector<uint8_t>& bytes, size_t from,
          size_t maxElems, std::vector<uint8_t>& out)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    const size_t w = p.inWidth();
    size_t used = 0;
    for (;;) {
        Status s = root.advance(f);
        if (s == Status::Yield) {
            out.insert(out.end(), root.out(), root.out() + p.outWidth());
        } else if (s == Status::NeedInput) {
            const size_t pos = (from + used) * w;
            if (used >= maxElems || pos + w > bytes.size())
                break;
            root.supply(f, bytes.data() + pos);
            ++used;
        } else {
            break;  // Done
        }
    }
    return used;
}

TEST(FusedLowering, InteriorThreadedPipeIsOneRegion)
{
    // A `|>>>|` below the partition split runs as a plain `>>>`, as on
    // the VM: the whole program is one region, both boundaries become
    // channels, and the region's snapshots move between engines.
    auto make = [] {
        return pipe(incBlock(1), ppipe(incBlock(2), incBlock(3)));
    };
    std::vector<int32_t> in(96);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(5 * i - 40);
    auto bytes = intBytes(in);
    auto want = compilePipeline(make(),
                                CompilerOptions::forLevel(OptLevel::None))
                    ->runBytes(bytes);
    ASSERT_EQ(want.size(), bytes.size());

    auto compile = [&](Backend be) {
        CompilerOptions opt = fusedOptions();
        opt.backend = be;
        CompileReport rep;
        auto p = compilePipeline(make(), opt, &rep);
        EXPECT_EQ(rep.fuse.nodesFused, 1);
        EXPECT_EQ(rep.fuse.fallbacks, 0);
        EXPECT_EQ(rep.fuse.channels, 2);
        EXPECT_EQ(rep.cgen.fallbacks, 0);
        EXPECT_NE(dynamic_cast<FusedNode*>(&p->root()), nullptr);
        return p;
    };
    for (Backend be : {Backend::Fused, Backend::Native}) {
        if (nativeUnavailable(be))
            continue;
        SCOPED_TRACE(backendName(be));
        EXPECT_EQ(compile(be)->runBytes(bytes), want);
    }

    if (nativeUnavailable(Backend::Native))
        GTEST_SKIP() << "no C++ compiler on this host";
    for (Backend from : {Backend::Fused, Backend::Native}) {
        const Backend to =
            from == Backend::Fused ? Backend::Native : Backend::Fused;
        SCOPED_TRACE(std::string(backendName(from)) + " -> " +
                     backendName(to));
        auto src = compile(from);
        auto dst = compile(to);
        std::vector<uint8_t> out;
        src->root().start(src->frame());
        const size_t head = driveSome(*src, bytes, 0, 17, out);
        ASSERT_EQ(head, 17u);
        auto snap = takeSnapshot(src->root(), src->frame(),
                                 FrameRange::whole(src->frame()), head, 0);
        restoreSnapshot(dst->root(), dst->frame(),
                        FrameRange::whole(dst->frame()), snap);
        driveSome(*dst, bytes, head, SIZE_MAX, out);
        EXPECT_EQ(out, want);
    }
}

TEST(FusedLowering, MetricsCountersAdvance)
{
    auto& reg = metrics::Registry::global();
    uint64_t fusedBefore = reg.counter("ziria.fuse.nodes_fused").value();
    compilePipeline(incBlock(1), fusedOptions());
    compilePipeline(ppipe(incBlock(1), incBlock(2)), fusedOptions());
    EXPECT_GE(reg.counter("ziria.fuse.nodes_fused").value(),
              fusedBefore + 2);  // one region per program
}

// ------------------------------------------- differential equivalence

void
checkFusedSeed(const GenConfig& cfg, uint64_t seed, size_t elems)
{
    GenProgram prog = zgen::genProgram(cfg, seed);
    auto input = zgen::genInput(prog.inDomain, elems, seed ^ 0xD1FF);
    auto make = [&] { return zgen::genProgram(cfg, seed).comp; };
    auto outcome = runDifferential(make, input, difftest::fusedMatrix(),
                                   prog.describe, /*slackBytes=*/4096);
    EXPECT_TRUE(outcome.agree) << "seed=" << seed << "\n" << outcome.report;
    EXPECT_EQ(outcome.configsRun, 18);
    EXPECT_GT(outcome.baselineBytes, 0u)
        << "seed=" << seed << " " << prog.describe;
}

class FusedBitPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedBitPrograms, VmAndFusedAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Bits;
    cfg.maxStages = 3;
    cfg.allowThreadedSplit = true;
    checkFusedSeed(cfg, static_cast<uint64_t>(GetParam()), 6 * 288 * 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedBitPrograms, ::testing::Range(1, 26));

class FusedInt32Programs : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedInt32Programs, VmAndFusedAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Int32;
    cfg.maxStages = 3;
    cfg.allowThreadedSplit = true;
    checkFusedSeed(cfg, static_cast<uint64_t>(GetParam()), 2048);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedInt32Programs,
                         ::testing::Range(1, 14));

class FusedMixedPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedMixedPrograms, VmAndFusedAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Mixed;
    cfg.maxStages = 4;
    checkFusedSeed(cfg, static_cast<uint64_t>(GetParam()), 4096);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedMixedPrograms,
                         ::testing::Range(1, 9));

TEST(FusedMatrix, ShapeAndLowering)
{
    auto m = difftest::fusedMatrix();
    EXPECT_EQ(m.size(), 18u);
    int fused = 0;
    for (const auto& c : m)
        fused += c.fused;
    EXPECT_EQ(fused, 10);
    EXPECT_FALSE(m[0].fused);  // config 0 is the VM baseline

    DiffConfig vm3, fz3;
    vm3.optTier = fz3.optTier = 3;
    vm3.vectorize = fz3.vectorize = true;
    fz3.fused = true;
    EXPECT_EQ(DiffConfig::distance(vm3, fz3), 1);
    EXPECT_EQ(vm3.options().backend, Backend::Vm);
    EXPECT_EQ(fz3.options().backend, Backend::Fused);
}

// ------------------------------------------------- reset() totality

/**
 * Drive a pipeline by hand (mirrors test_recovery): when @p init is
 * false the tree is NOT start()ed, proving reset() alone restored it.
 */
std::vector<uint8_t>
drive(Pipeline& p, MemSource& src, bool init)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    if (init)
        root.start(f);
    std::vector<uint8_t> out;
    for (;;) {
        Status s = root.advance(f);
        if (s == Status::Yield) {
            out.insert(out.end(), root.out(), root.out() + p.outWidth());
        } else if (s == Status::NeedInput) {
            const uint8_t* q = takeOne(src);
            if (!q)
                break;
            root.supply(f, q);
        } else {
            break;  // Done
        }
    }
    return out;
}

void
consumePartial(Pipeline& p, MemSource& src, size_t elems)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    root.start(f);
    size_t used = 0;
    while (used < elems) {
        Status s = root.advance(f);
        if (s == Status::NeedInput) {
            const uint8_t* q = takeOne(src);
            if (!q)
                break;
            root.supply(f, q);
            ++used;
        } else if (s == Status::Done) {
            break;
        }
    }
}

TEST(FusedResetTotality, ResetAfterPartialRunMatchesFreshRun)
{
    for (const Shape& sh : resetShapes()) {
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            SCOPED_TRACE(std::string(sh.name) + " at OptLevel " +
                         (lvl == OptLevel::None ? "None" : "All"));
            auto p = compilePipeline(sh.make(), fusedOptions(lvl));

            ASSERT_EQ(p->inWidth() % 4, 0u);
            std::vector<int32_t> in(24 * (p->inWidth() / 4));
            for (size_t i = 0; i < in.size(); ++i)
                in[i] = static_cast<int32_t>(i);
            auto bytes = intBytes(in);

            MemSource fresh(bytes, p->inWidth());
            auto expect = drive(*p, fresh, /*init=*/true);
            ASSERT_FALSE(expect.empty());

            // Dirty the tree mid-structure, reset, drive WITHOUT start.
            MemSource partial(bytes, p->inWidth());
            consumePartial(*p, partial, 5);
            p->root().reset(p->frame());

            MemSource again(bytes, p->inWidth());
            auto got = drive(*p, again, /*init=*/false);
            EXPECT_EQ(got, expect)
                << "reset() did not restore the fresh-start state";
        }
    }
}

// ----------------------------------------------------- composition

TEST(FusedComposition, TracingWrapsFusedRegions)
{
    CompilerOptions opt = fusedOptions();
    opt.instrument = true;
    auto p = compilePipeline(pipe(incBlock(1), incBlock(2)), opt);
    ASSERT_NE(p->metrics(), nullptr);

    std::vector<int32_t> in(32, 7);
    auto out = p->runBytes(intBytes(in));
    EXPECT_EQ(out.size(), in.size() * 4);

    bool sawFused = false;
    for (const auto& nm : p->metrics()->nodes)
        if (nm.kind == "fused") {
            sawFused = true;
            EXPECT_GT(nm.advances, 0u);
            EXPECT_GT(nm.supplies, 0u);
        }
    EXPECT_TRUE(sawFused);
}

TEST(FusedComposition, TracingListsEmbeddedKernels)
{
    // Each kernel inside a region keeps its own profile row: supplies
    // count consume calls, yields the elements it emitted.
    CompilerOptions opt = fusedOptions();
    opt.instrument = true;
    auto p = compilePipeline(
        pipe(incBlock(1), pipe(burstBlock(), incBlock(10))), opt);
    ASSERT_NE(p->metrics(), nullptr);

    std::vector<int32_t> in(30, 3);
    auto out = p->runBytes(intBytes(in));

    const NodeMetrics* k = nullptr;
    for (const auto& nm : p->metrics()->nodes)
        if (nm.kind == "native")
            k = &nm;
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->path, "root/k0");
    EXPECT_EQ(k->supplies, in.size());
    EXPECT_EQ(k->yields, out.size() / 4);  // n % 3 per input: 30 total
    EXPECT_EQ(k->yields, 30u);
    EXPECT_EQ(k->inWidth, 4u);
    EXPECT_EQ(k->outWidth, 4u);
}

TEST(FusedComposition, ThreadedDriverRunsFusedPartitions)
{
    CompileReport rep;
    auto p = compileThreadedPipeline(ppipe(incBlock(1), incBlock(10)),
                                     fusedOptions(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 2);  // one region per |>>>| partition

    std::vector<int32_t> in(256);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);
    p->run(src, sink);

    auto vm = compilePipeline(pipe(incBlock(1), incBlock(10)),
                              CompilerOptions::forLevel(OptLevel::None));
    EXPECT_EQ(sink.data(), vm->runBytes(bytes));
}

TEST(FusedComposition, NestedThreadedPipeStaysInItsPartition)
{
    // Only the top-level `|>>>|` chain splits into threads; the one
    // nested in the second partition lowers inside that partition's
    // region.
    auto make = [] {
        return ppipe(incBlock(1),
                     pipe(incBlock(2), ppipe(incBlock(3), incBlock(4))));
    };
    for (Backend be : {Backend::Fused, Backend::Native}) {
        if (nativeUnavailable(be))
            continue;
        SCOPED_TRACE(backendName(be));
        CompilerOptions opt = fusedOptions();
        opt.backend = be;
        CompileReport rep;
        auto p = compileThreadedPipeline(make(), opt, &rep);
        EXPECT_EQ(p->stageCount(), 2u);
        EXPECT_EQ(rep.fuse.nodesFused, 2);  // one region per partition
        EXPECT_EQ(rep.fuse.fallbacks, 0);
        EXPECT_EQ(rep.fuse.channels, 2);
        if (be == Backend::Native) {
            EXPECT_EQ(rep.cgen.regions, 2);
            EXPECT_EQ(rep.cgen.fallbacks, 0);
        }

        std::vector<int32_t> in(300);
        for (size_t i = 0; i < in.size(); ++i)
            in[i] = static_cast<int32_t>(i * 3);
        auto bytes = intBytes(in);
        MemSource src(bytes, 4);
        VecSink sink(4);
        p->run(src, sink);
        auto vm = compilePipeline(make(),
                                  CompilerOptions::forLevel(OptLevel::None));
        EXPECT_EQ(sink.data(), vm->runBytes(bytes));
    }
}

TEST(FusedComposition, HaltedComputerExposesCtrl)
{
    // A computer: take two ints, return their sum — the control value
    // must come back through ctrl() with the right width.
    auto make = [] {
        VarRef a = freshVar("a", Type::int32());
        VarRef b = freshVar("b", Type::int32());
        return seqc({bindc(a, take(Type::int32())),
                     bindc(b, take(Type::int32())),
                     just(ret(var(a) * var(b)))});
    };
    auto fz = compilePipeline(make(), fusedOptions());
    auto vm = compilePipeline(make(),
                              CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in{6, 7};
    auto bytes = intBytes(in);

    RunStats fzStats, vmStats;
    fz->runBytes(bytes, &fzStats);
    vm->runBytes(bytes, &vmStats);
    EXPECT_TRUE(fzStats.halted);
    EXPECT_EQ(fzStats.ctrl, vmStats.ctrl);
    ASSERT_EQ(fzStats.ctrl.size(), 4u);
    int32_t v;
    std::memcpy(&v, fzStats.ctrl.data(), 4);
    EXPECT_EQ(v, 42);
}

} // namespace
} // namespace ziria
