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
 *    the VM driven one element at a time;
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
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/backends.h"
#include "support/diff_runner.h"
#include "support/fault_injector.h"
#include "support/panic.h"
#include "support/shapes.h"
#include "zast/builder.h"
#include "zexec/pipeline.h"
#include "zexec/stepper.h"
#include "zir/compiler.h"

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
            for (Backend b : kAllBackends) {
                if (nativeUnavailable(b))
                    continue;
                auto p = compilePipeline(sh.make(), optionsFor(b, lvl));
                for (size_t cap : kCaps) {
                    SCOPED_TRACE(std::string(sh.name) + " on " +
                                 backendName(b) + (lvl == OptLevel::All
                                                       ? " --opt all"
                                                       : " --opt none") +
                                 ", windows of " + std::to_string(cap));
                    expectSame(want, driveWindows(*p, in, cap));
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
    std::vector<uint8_t> out;
    if (windows) {
        MemIo io{src, p.outWidth(), {}};
        ss.drive(io);
        out = std::move(io.out);
    } else {
        auto pull = [&](const uint8_t** e) {
            *e = src.next();
            return *e ? Feed::Ready : Feed::End;
        };
        auto push = [&](const uint8_t* e) {
            out.insert(out.end(), e, e + p.outWidth());
            return true;
        };
        auto io = elementIo(pull, push);
        ss.drive(io);
    }
    return {snaps, out};
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

/** Hands out one element per next(): the per-element source. */
class OneByOne : public InputSource
{
  public:
    explicit OneByOne(MemSource& m) : m_(m) {}
    const uint8_t* next() override { return m_.next(); }

  private:
    MemSource& m_;
};

/** A sink that takes no runs: the per-element sink. */
class ElementSink : public OutputSink
{
  public:
    explicit ElementSink(size_t w) : w_(w) {}
    void put(const uint8_t* e) override { out.insert(out.end(), e, e + w_); }
    std::vector<uint8_t> out;

  private:
    size_t w_;
};

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
                RunStats st;
                if (windows) {
                    VecSink sink(p->outWidth());
                    st = p->run(src, sink);
                    o.out = sink.data();
                } else {
                    OneByOne one(src);
                    ElementSink sink(p->outWidth());
                    st = p->run(one, sink);
                    o.out = sink.out;
                }
                EXPECT_EQ(s->fires, 0) << "the fault never fired";
                o.consumed = st.consumed;
                o.emitted = st.emitted;
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
