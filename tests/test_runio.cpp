/**
 * @file
 * Run-granular drives (ctest labels `tier1;fuse;cgen;checkpoint;sanitizer`):
 * ExecNode::run moves whole windows of input and output between the
 * driver and a region, and every observable must stay what the
 * element-by-element protocol gives:
 *
 *  - every resetShapes() shape on every backend, and every
 *    nativeMatrix() cell, driven with windows of 1, 3 and 4096
 *    elements: the bytes, control value, consumed and emitted counts of
 *    the VM driven one element at a time; every shape also through a
 *    1-stage and a 2-stage ThreadedPipeline and a served Session, which
 *    drive through the same endpoints and move whole windows (a counted
 *    node sees far fewer run() calls than elements), and the watchdog
 *    sees a stage's progress once per window;
 *  - a computer that halts mid-window leaves the rest in the source,
 *    so a second Pipeline::run over the same MemSource picks up there;
 *  - cadence snapshots (every 64 elements) byte-identical to those of a
 *    per-element drive;
 *  - a trap thrown mid-window: the region's cursors are read back
 *    before the exception unwinds, so healing (reset or restore +
 *    replay) gives the per-element VM's bytes;
 *  - TracedNode counts stay element-exact under windows.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/backends.h"
#include "support/diff_runner.h"
#include "support/fault_injector.h"
#include "support/panic.h"
#include "support/shapes.h"
#include "zast/builder.h"
#include "zexec/faultpoint.h"
#include "zexec/pipeline.h"
#include "zexec/stepper.h"
#include "zexec/threaded.h"
#include "zir/compiler.h"
#include "zserve/session.h"

namespace ziria {
namespace {

using namespace zb;
using testsupport::backendName;
using testsupport::burstBlock;
using testsupport::incBlock;
using testsupport::intBytes;
using testsupport::kAllBackends;
using testsupport::nativeUnavailable;
using testsupport::resetShapes;
using testsupport::Shape;
using testsupport::sumNBlock;

[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

/** What a drive observed. */
struct Outcome
{
    std::vector<uint8_t> out;
    std::vector<uint8_t> ctrl;
    uint64_t consumed = 0;
    uint64_t emitted = 0;
    bool halted = false;
};

/** A byte buffer in, a byte vector out, windows of at most `cap`. */
struct CappedIo
{
    const std::vector<uint8_t>& in;
    size_t inW;
    size_t outW;
    size_t cap;
    size_t pos = 0;
    std::vector<uint8_t> out;

    Feed
    pull(const uint8_t** p, size_t* n)
    {
        const size_t left = inW ? (in.size() - pos) / inW : 0;
        if (!left)
            return Feed::End;
        *p = in.data() + pos;
        *n = std::min(left, cap);
        return Feed::Ready;
    }

    void commit(size_t n) { pos += n * inW; }
    size_t outRoom() const { return cap; }

    bool
    push(const uint8_t* e, size_t n)
    {
        out.insert(out.end(), e, e + n * outW);
        return true;
    }
};

Outcome
driveWindows(Pipeline& p, const std::vector<uint8_t>& in, size_t cap)
{
    Stepper st(p.root());
    st.start(p.frame());
    CappedIo io{in, p.inWidth(), p.outWidth(), cap, 0, {}};
    Outcome o;
    o.halted = st.drive(p.frame(), io) == StepOutcome::Halted;
    o.out = std::move(io.out);
    if (o.halted)
        o.ctrl = st.ctrl();
    o.consumed = st.consumed();
    o.emitted = st.emitted();
    return o;
}

/** The per-element protocol by hand: advance, supply, out. */
Outcome
drivePerElement(Pipeline& p, const std::vector<uint8_t>& in)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    root.start(f);
    const size_t w = p.inWidth();
    Outcome o;
    for (size_t pos = 0;;) {
        Status s = root.advance(f);
        if (s == Status::Yield) {
            o.out.insert(o.out.end(), root.out(),
                         root.out() + p.outWidth());
            ++o.emitted;
        } else if (s == Status::NeedInput) {
            if (!w || pos + w > in.size())
                break;
            root.supply(f, in.data() + pos);
            pos += w;
            ++o.consumed;
        } else {
            o.halted = true;
            if (const uint8_t* c = root.ctrl())
                o.ctrl.assign(c, c + root.ctrlWidth());
            break;
        }
    }
    return o;
}

void
expectSame(const Outcome& want, const Outcome& got)
{
    EXPECT_EQ(got.out, want.out);
    EXPECT_EQ(got.ctrl, want.ctrl);
    EXPECT_EQ(got.consumed, want.consumed);
    EXPECT_EQ(got.emitted, want.emitted);
    EXPECT_EQ(got.halted, want.halted);
}

std::vector<uint8_t>
rampInts(size_t n)
{
    std::vector<int32_t> xs(n);
    for (size_t i = 0; i < n; ++i)
        xs[i] = static_cast<int32_t>(i * 37 % 101);
    return intBytes(xs);
}

CompilerOptions
optionsFor(Backend b, OptLevel lvl)
{
    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = b;
    return opt;
}

constexpr size_t kCaps[] = {1, 3, 4096};

/** Everything a `|>>>|` run over @p in observed. */
Outcome
driveThreaded(ThreadedPipeline& p, const std::vector<uint8_t>& in)
{
    MemSource src(in, p.inWidth());
    VecSink sink(p.outWidth());
    RunStats st = p.run(src, sink);
    return {sink.data(), st.ctrl, st.consumed, st.emitted, st.halted};
}

/** @p p served as a session: the whole elements of @p in offered as
 *  the queue takes them, with the session stepped in between, then
 *  ended and stepped to the end. */
Outcome
driveSession(std::unique_ptr<Pipeline> p, const std::vector<uint8_t>& in)
{
    const size_t outW = p->outWidth();
    const size_t whole = in.size() - in.size() % p->inWidth();
    serve::Session s(1, /*fd=*/-1, std::move(p), serve::SessionConfig{},
                     FaultSpec{});
    Outcome o;
    size_t off = 0;
    for (int guard = 0; guard < 100000; ++guard) {
        if (off < whole) {
            size_t did = 0;
            s.offerInput(in.data() + off, whole - off, did);
            off += did;
            if (off == whole)
                s.endInput();
        }
        serve::StepResult r = s.step();
        while (s.takeOutput(o.out, SIZE_MAX) > 0) {
        }
        if (r == serve::StepResult::Finished ||
            r == serve::StepResult::Failed)
            break;
    }
    serve::Session::Completion c = s.completion();
    EXPECT_TRUE(c.finished && !c.failed) << c.failMessage;
    o.halted = c.halted;
    o.ctrl = c.ctrl;
    o.consumed = s.quiescentConsumed();
    o.emitted = o.out.size() / outW;
    return o;
}

// ------------------------------------------------ windows vs elements

TEST(RunWindows, EveryShapeOnEveryBackendMatchesThePerElementVm)
{
    const auto in = rampInts(600);
    for (const Shape& sh : resetShapes()) {
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            auto vm =
                compilePipeline(sh.make(), optionsFor(Backend::Vm, lvl));
            const Outcome want = drivePerElement(*vm, in);
            ASSERT_FALSE(want.out.empty()) << sh.name;
            const Outcome want2 = drivePerElement(
                *compilePipeline(pipe(sh.make(), incBlock(0)),
                                 optionsFor(Backend::Vm, lvl)),
                in);
            for (Backend b : kAllBackends) {
                if (nativeUnavailable(b))
                    continue;
                auto p = compilePipeline(sh.make(), optionsFor(b, lvl));
                const std::string where =
                    std::string(sh.name) + " on " + backendName(b) +
                    (lvl == OptLevel::All ? " --opt all" : " --opt none");
                for (size_t cap : kCaps) {
                    SCOPED_TRACE(where + ", windows of " +
                                 std::to_string(cap));
                    expectSame(want, driveWindows(*p, in, cap));
                }
                const CompilerOptions opt = optionsFor(b, lvl);
                {
                    SCOPED_TRACE(where + ", one stage");
                    auto t = compileThreadedPipeline(sh.make(), opt);
                    ASSERT_EQ(t->stageCount(), 1u);
                    expectSame(want, driveThreaded(*t, in));
                }
                {
                    // The VM twin is the same program with `>>>`: at
                    // --opt all the appended stage can change how the
                    // shape is vectorized.
                    SCOPED_TRACE(where + ", two stages");
                    auto t = compileThreadedPipeline(
                        ppipe(sh.make(), incBlock(0)), opt);
                    ASSERT_EQ(t->stageCount(), 2u);
                    expectSame(want2, driveThreaded(*t, in));
                }
                {
                    SCOPED_TRACE(where + ", served");
                    expectSame(want,
                               driveSession(compilePipeline(sh.make(), opt),
                                            in));
                }
            }
        }
    }
}

TEST(RunWindows, EveryNativeMatrixCellMatchesThePerElementVm)
{
    // Kernels with 0-2 outputs per input feeding a native computer
    // re-made every iteration: rings, parks and halts inside a window.
    auto make = [] {
        VarRef n = freshVar("n", Type::int32());
        VarRef s = freshVar("s", Type::int32());
        return pipe(
            pipe(incBlock(1), burstBlock()),
            repeatc(seqc({bindc(n, take(Type::int32())),
                          bindc(s, sumNBlock(var(n) % 3 + 1)),
                          just(emit(var(s)))})));
    };
    const auto in = rampInts(1024);
    for (const difftest::DiffConfig& cell : difftest::nativeMatrix()) {
        difftest::DiffConfig vmCell = cell;
        vmCell.fused = vmCell.native = false;
        auto vm = compilePipeline(make(), vmCell.options());
        const Outcome want = drivePerElement(*vm, in);
        ASSERT_FALSE(want.out.empty()) << cell.name;
        auto p = compilePipeline(make(), cell.options());
        for (size_t cap : kCaps) {
            SCOPED_TRACE(cell.name + ", windows of " + std::to_string(cap));
            expectSame(want, driveWindows(*p, in, cap));
        }
    }
}

TEST(RunWindows, HaltMidWindowLeavesTheRestInTheSource)
{
    // A computer that takes 8 elements and halts, run twice back to
    // back over one MemSource (the receiver loop): the second run
    // starts at element 8, whatever the first one's window held.
    std::vector<int32_t> xs(20);
    for (size_t i = 0; i < xs.size(); ++i)
        xs[i] = static_cast<int32_t>(i * 3);
    const auto in = intBytes(xs);
    const Shape& sh = resetShapes()[7];  // while-letvar
    ASSERT_STREQ(sh.name, "while-letvar");
    for (Backend b : kAllBackends) {
        if (nativeUnavailable(b))
            continue;
        SCOPED_TRACE(backendName(b));
        auto p = compilePipeline(sh.make(), optionsFor(b, OptLevel::None));
        MemSource src(in, p->inWidth());
        for (int run = 0; run < 2; ++run) {
            VecSink sink(p->outWidth());
            RunStats st = p->run(src, sink);
            EXPECT_TRUE(st.halted);
            EXPECT_EQ(st.consumed, 8u);
            std::vector<int32_t> want;
            for (size_t i = 0; i < 8; ++i)
                want.push_back(xs[run * 8 + i] + 100);
            EXPECT_EQ(sink.data(), intBytes(want)) << "run " << run;
        }
        size_t left = 0;
        src.window(&left);
        EXPECT_EQ(left, 4u);
    }
}

/** Delegates to a compiled tree, counting the run() calls it gets and
 *  sleeping @p perElem for every element a call takes. */
class RunCounter : public ExecNode
{
  public:
    RunCounter(NodePtr inner, uint64_t& calls,
               std::chrono::microseconds perElem = {})
        : inner_(std::move(inner)), calls_(calls), perElem_(perElem)
    {
        setInWidth(inner_->inWidth());
        setOutWidth(inner_->outWidth());
    }

    void start(Frame& f) override { inner_->start(f); }
    Status advance(Frame& f) override { return inner_->advance(f); }
    void supply(Frame& f, const uint8_t* in) override { inner_->supply(f, in); }
    const uint8_t* out() const override { return inner_->out(); }
    void reset(Frame& f) override { inner_->reset(f); }

    Status
    run(Frame& f, RunWindow& w) override
    {
        ++calls_;
        const uint8_t* in0 = w.in;
        Status s = inner_->run(f, w);
        if (perElem_.count() && w.in != in0)
            std::this_thread::sleep_for(
                perElem_ * ((w.in - in0) / static_cast<long>(inWidth())));
        return s;
    }

  private:
    NodePtr inner_;
    uint64_t& calls_;
    std::chrono::microseconds perElem_;
};

/** incBlock(@p delta) on the VM behind a RunCounter, its cells appended
 *  to @p layout. */
NodePtr
countedInc(int32_t delta, FrameLayout& layout, uint64_t& calls,
           std::chrono::microseconds perElem = {})
{
    CompPtr c = optimizeComp(incBlock(delta),
                             CompilerOptions::forLevel(OptLevel::None));
    ExprCompiler ec(layout);
    return std::make_unique<RunCounter>(
        buildNode(c, ec, BuildOptions{}, nullptr), calls, perElem);
}

/** A fast VM stage, then one that costs @p perElem per element taken,
 *  under a watchdog deadline of @p deadlineMs; @p calls counts each
 *  stage's run() calls. */
std::unique_ptr<ThreadedPipeline>
slowLastStage(std::chrono::microseconds perElem, double deadlineMs,
              uint64_t (&calls)[2])
{
    FrameLayout layout;
    std::vector<NodePtr> stages;
    std::vector<FrameRange> frames;
    for (size_t i = 0; i < 2; ++i) {
        const size_t begin = layout.frameSize();
        stages.push_back(countedInc(1, layout, calls[i],
                                    i ? perElem : std::chrono::microseconds{}));
        frames.push_back({begin, layout.frameSize()});
    }
    auto t = std::make_unique<ThreadedPipeline>(
        std::move(stages), std::move(frames), layout.frameSize(), 4, 4);
    t->setStallDeadline(deadlineMs);
    return t;
}

TEST(RunWindows, StagesAndSessionsMoveWholeWindows)
{
    // 4096 elements through a counted VM node: a driver that moves one
    // element per call makes at least one run() per element, one that
    // hands over whole windows a few per batch.
    constexpr size_t kElems = 4096;
    const auto in = rampInts(kElems);
    std::vector<int32_t> plus11(kElems);
    for (size_t i = 0; i < kElems; ++i)
        plus11[i] = static_cast<int32_t>(i * 37 % 101) + 11;

    uint64_t calls0 = 0, calls1 = 0;
    FrameLayout layout;
    std::vector<NodePtr> stages;
    std::vector<FrameRange> frames;
    for (auto [delta, calls] : {std::pair<int32_t, uint64_t*>{1, &calls0},
                                {10, &calls1}}) {
        const size_t begin = layout.frameSize();
        stages.push_back(countedInc(delta, layout, *calls));
        frames.push_back({begin, layout.frameSize()});
    }
    ThreadedPipeline t(std::move(stages), std::move(frames),
                       layout.frameSize(), 4, 4);
    const Outcome staged = driveThreaded(t, in);
    EXPECT_EQ(staged.out, intBytes(plus11));
    EXPECT_LT(calls0 * 16, kElems) << "stage 0 ran element by element";
    EXPECT_LT(calls1 * 16, kElems) << "stage 1 ran element by element";

    uint64_t calls = 0;
    FrameLayout one;
    NodePtr root = countedInc(11, one, calls);
    const Outcome served = driveSession(
        std::make_unique<Pipeline>(std::move(root), one.frameSize(), 4, 4),
        in);
    EXPECT_EQ(served.out, intBytes(plus11));
    EXPECT_LT(calls * 16, kElems) << "the session ran element by element";
}

TEST(RunWindows, WatchdogSeesProgressOncePerWindow)
{
    // A stage reports progress when a window settles, up to kBatchElems
    // elements: the deadline has to exceed one window's compute.
    // 1536 elements at 200 us take about 310 ms in windows of 256
    // (51 ms each), past a 200 ms deadline as a whole but not per
    // window: the run completes.
    const auto in = rampInts(1536);
    std::vector<int32_t> plus2(1536);
    for (size_t i = 0; i < plus2.size(); ++i)
        plus2[i] = static_cast<int32_t>(i * 37 % 101) + 2;
    uint64_t calls[2] = {0, 0};
    auto ok = slowLastStage(std::chrono::microseconds(200), 200, calls);
    EXPECT_EQ(driveThreaded(*ok, in).out, intBytes(plus2));

    // Eight elements at 40 ms each arrive as one 320 ms window: each
    // element is under the 50 ms deadline, the window is not, and the
    // watchdog calls a stall.
    auto slow = slowLastStage(std::chrono::milliseconds(40), 50, calls);
    try {
        driveThreaded(*slow, rampInts(8));
        FAIL() << "a window slower than the deadline went unnoticed";
    } catch (const StageFailureError& e) {
        EXPECT_EQ(e.failure().cause, FailureCause::Stall);
        EXPECT_EQ(e.failure().stage, 1u);
    }
}

// ------------------------------------------------- cadence snapshots

/** Pipeline::run's endpoints over a MemSource and a byte vector. */
struct MemIo
{
    MemSource& src;
    size_t outW;
    std::vector<uint8_t> out;

    Feed
    pull(const uint8_t** p, size_t* n)
    {
        *p = src.window(n);
        return *p ? Feed::Ready : Feed::End;
    }

    void commit(size_t n) { src.commit(n); }
    size_t outRoom() const { return 4096; }

    bool
    push(const uint8_t* e, size_t n)
    {
        out.insert(out.end(), e, e + n * outW);
        return true;
    }
};

/** The per-element protocol as endpoints: windows of one element, and
 *  every output pushed as it is made. */
struct OneByOneIo
{
    MemSource& src;
    size_t outW;
    std::vector<uint8_t> out;

    Feed
    pull(const uint8_t** p, size_t* n)
    {
        *p = src.window(n);
        *n = 1;
        return *p ? Feed::Ready : Feed::End;
    }

    void commit(size_t n) { src.commit(n); }
    size_t outRoom() const { return 0; }

    bool
    push(const uint8_t* e, size_t n)
    {
        out.insert(out.end(), e, e + n * outW);
        return true;
    }
};

/** Snapshots a 64-element cadence takes over @p in, plus the output. */
std::pair<std::vector<std::vector<uint8_t>>, std::vector<uint8_t>>
cadenceRun(Pipeline& p, const std::vector<uint8_t>& in, bool windows)
{
    SupervisedStepper& ss = p.stepper();
    std::vector<std::vector<uint8_t>> snaps;
    ss.setOnSnapshot(
        [&](const std::vector<uint8_t>& s) { snaps.push_back(s); });
    ss.setInterval(64);
    ss.begin();
    MemSource src(in, p.inWidth());
    if (windows) {
        MemIo io{src, p.outWidth(), {}};
        ss.drive(io);
        return {snaps, io.out};
    }
    OneByOneIo io{src, p.outWidth(), {}};
    ss.drive(io);
    return {snaps, io.out};
}

TEST(RunWindows, CadenceSnapshotsMatchAPerElementDrive)
{
    const auto in = rampInts(2048);
    size_t snapshots = 0;
    for (const Shape& sh : resetShapes()) {
        for (Backend b : {Backend::Fused, Backend::Native}) {
            if (nativeUnavailable(b))
                continue;
            for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
                SCOPED_TRACE(std::string(sh.name) + " on " +
                             backendName(b) +
                             (lvl == OptLevel::All ? " --opt all" : ""));
                auto a = compilePipeline(sh.make(), optionsFor(b, lvl));
                auto c = compilePipeline(sh.make(), optionsFor(b, lvl));
                auto perElem = cadenceRun(*a, in, false);
                auto windowed = cadenceRun(*c, in, true);
                EXPECT_EQ(windowed.first, perElem.first);
                EXPECT_EQ(windowed.second, perElem.second);
                snapshots += perElem.first.size();
            }
        }
    }
    // Every shape but the 8-element computer crosses several boundaries.
    EXPECT_GE(snapshots, 13u * 2 * 2 * 3);
}

// ------------------------------------------------- traps mid-window

/**
 * int32 pass-through that throws once, on the tick-th element any
 * instance of the block consumes: a transient fault inside the region,
 * which replay after a heal does not re-fire.
 */
class TransientThrowKernel : public NativeKernel
{
  public:
    struct Shared
    {
        uint64_t tick = 0;
        uint64_t seen = 0;
        int fires = 1;
    };

    explicit TransientThrowKernel(std::shared_ptr<Shared> s)
        : s_(std::move(s))
    {
    }

    bool
    consume(const uint8_t* in, Emitter& em) override
    {
        if (s_->seen++ == s_->tick && s_->fires > 0) {
            --s_->fires;
            fatal("transient kernel fault");
        }
        em.emit(in);
        return false;
    }

  private:
    std::shared_ptr<TransientThrowKernel::Shared> s_;
};

CompPtr
transientThrowBlock(std::shared_ptr<TransientThrowKernel::Shared> s)
{
    auto spec = std::make_shared<NativeBlockSpec>();
    spec->name = "TransientThrow";
    spec->ctype = CompType{false, nullptr, Type::int32(), Type::int32()};
    spec->make = [s](const std::vector<Value>&) {
        return std::make_unique<TransientThrowKernel>(s);
    };
    return native(spec);
}

/** A running sum after the faulty kernel: lost or repeated input and
 *  any reset show in every later output. */
CompPtr
faultyAccumulator(std::shared_ptr<TransientThrowKernel::Shared> s)
{
    VarRef acc = freshVar("acc", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    return pipe(incBlock(1),
                pipe(transientThrowBlock(std::move(s)),
                     letvar(acc, cInt(0),
                            repeatc(seqc({bindc(x, take(Type::int32())),
                                          just(doS({assign(
                                              var(acc),
                                              var(acc) + var(x))})),
                                          just(emit(var(acc)))})))));
}

/**
 * @p p's Pipeline::run over @p in at the Stepper::drive level, through
 * @p io's endpoints: its stepper driven, healed after each failure up
 * to the pipeline's restart budget (no backoff), and driven again.
 */
template <typename Io>
Outcome
superviseDrive(Pipeline& p, Io& io)
{
    SupervisedStepper& ss = p.stepper();
    p.configureStepper();
    ss.begin();
    for (uint32_t restarts = 0;; ++restarts) {
        try {
            ss.drive(io);
            break;
        } catch (const std::exception&) {
            if (restarts == p.restartPolicy().maxRestarts)
                throw;
            ss.heal();
        }
    }
    Outcome o;
    o.out = std::move(io.out);
    o.consumed = ss.stepper().consumed();
    o.emitted = ss.stepper().emitted();
    return o;
}

TEST(RunWindows, TrapMidWindowHealsLikeThePerElementVm)
{
    const auto in = rampInts(300);
    for (uint64_t interval : {uint64_t(0), uint64_t(16)}) {
        for (uint64_t tick : {uint64_t(0), uint64_t(37), uint64_t(64)}) {
            auto run = [&](Backend b, bool windows) {
                auto s = std::make_shared<TransientThrowKernel::Shared>();
                s->tick = tick;
                auto p = compilePipeline(faultyAccumulator(s),
                                         optionsFor(b, OptLevel::None));
                RestartPolicy rp;
                rp.mode = RestartMode::OnFailure;
                rp.maxRestarts = 2;
                rp.backoffInitialMs = 0;
                p->setRestartPolicy(rp);
                p->setCheckpoint(CheckpointPolicy{interval});
                MemSource src(in, p->inWidth());
                Outcome o;
                if (windows) {
                    VecSink sink(p->outWidth());
                    RunStats st = p->run(src, sink);
                    o = {sink.data(), {}, st.consumed, st.emitted, false};
                } else {
                    OneByOneIo one{src, p->outWidth(), {}};
                    o = superviseDrive(*p, one);
                }
                EXPECT_EQ(s->fires, 0) << "the fault never fired";
                return o;
            };
            const Outcome want = run(Backend::Vm, false);
            ASSERT_FALSE(want.out.empty());
            for (Backend b : kAllBackends) {
                if (nativeUnavailable(b))
                    continue;
                SCOPED_TRACE(std::string(backendName(b)) + ", throw at " +
                             std::to_string(tick) + ", checkpoint " +
                             std::to_string(interval));
                const Outcome got = run(b, true);
                EXPECT_EQ(got.out, want.out);
                EXPECT_EQ(got.consumed, want.consumed);
                EXPECT_EQ(got.emitted, want.emitted);
            }
        }
    }
}

// ------------------------------------------------- tracing

TEST(RunWindows, TracedCountsStayElementExact)
{
    const auto in = rampInts(500);
    for (Backend b : kAllBackends) {
        if (nativeUnavailable(b))
            continue;
        SCOPED_TRACE(backendName(b));
        CompilerOptions opt = optionsFor(b, OptLevel::None);
        opt.instrument = true;
        auto mk = [] {
            return pipe(incBlock(1), pipe(burstBlock(), incBlock(10)));
        };
        auto a = compilePipeline(mk(), opt);
        auto c = compilePipeline(mk(), opt);
        drivePerElement(*a, in);
        driveWindows(*c, in, 4096);
        const auto& ma = a->metrics()->nodes;
        const auto& mc = c->metrics()->nodes;
        ASSERT_EQ(ma.size(), mc.size());
        for (size_t i = 0; i < ma.size(); ++i) {
            SCOPED_TRACE(ma[i].path);
            EXPECT_EQ(mc[i].advances, ma[i].advances);
            EXPECT_EQ(mc[i].yields, ma[i].yields);
            EXPECT_EQ(mc[i].needInputs, ma[i].needInputs);
            EXPECT_EQ(mc[i].dones, ma[i].dones);
            EXPECT_EQ(mc[i].supplies, ma[i].supplies);
        }
    }
}

} // namespace
} // namespace ziria
