/**
 * @file
 * Recovery tests (ctest label `recovery`): the reset() totality
 * contract across every node/combinator shape, restart backoff math,
 * fault fire-count semantics, and self-healing single-threaded runs —
 * up to a WiFi receiver that survives a mid-capture source throw and
 * still decodes the following packet.
 *
 * The reset() contract under test (zexec/node.h): `reset(f)` must be
 * indistinguishable from fresh construction + `start(f)`, reaching
 * every child recursively — inactive Seq items, untaken If branches,
 * un-started While bodies, partially accumulated letvar state.
 */
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel.h"
#include "sora/sora.h"
#include "support/drive.h"
#include "support/fault_injector.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/shapes.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zexec/faultpoint.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;
using testsupport::incBlock;
using testsupport::intBytes;
using testsupport::resetShapes;
using testsupport::Shape;
using testsupport::takeOne;
using testsupport::throwAtBlock;

// ------------------------------------------------------------- helpers

/**
 * Drive a pipeline by hand against @p src, collecting the raw output
 * bytes.  When @p init is false the node tree is NOT start()ed first:
 * this is how the reset-totality tests prove reset() alone restored
 * the tree (Pipeline::run would mask a broken reset by re-starting).
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

/** start() the tree and consume up to @p elems input elements. */
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
        // Yield: discard the element and keep going.
    }
}

// ------------------------------------------------- reset() totality
//
// The 12 combinator shapes live in tests/support/shapes.{h,cc}; the
// snapshot round-trip suite (test_checkpoint.cpp) iterates the same
// catalog, so a new combinator family added there is covered by both
// contracts at once.

TEST(ResetTotality, ResetAfterPartialRunMatchesFreshRun)
{
    for (const Shape& sh : resetShapes()) {
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            SCOPED_TRACE(std::string(sh.name) + " at OptLevel " +
                         (lvl == OptLevel::None ? "None" : "All"));
            auto p = compilePipeline(sh.make(),
                                     CompilerOptions::forLevel(lvl));

            // Size the input in units of the COMPILED element width:
            // vectorization can widen int32 -> arr[N] int32, and a
            // buffer smaller than one element yields nothing at all.
            ASSERT_EQ(p->inWidth() % 4, 0u);
            std::vector<int32_t> in(24 * (p->inWidth() / 4));
            for (size_t i = 0; i < in.size(); ++i)
                in[i] = static_cast<int32_t>(i);
            auto bytes = intBytes(in);

            MemSource fresh(bytes, p->inWidth());
            auto expect = drive(*p, fresh, /*init=*/true);
            ASSERT_FALSE(expect.empty());

            // Dirty the tree: consume a few elements mid-structure,
            // then reset and drive again WITHOUT start().
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

// --------------------------------------------------- policy & faults

TEST(Recovery, BackoffMathIsExponentialAndCapped)
{
    RestartPolicy p;
    p.backoffInitialMs = 10;
    p.backoffMultiplier = 2.0;
    p.backoffCapMs = 1000;
    EXPECT_DOUBLE_EQ(p.backoffMsFor(1), 10);
    EXPECT_DOUBLE_EQ(p.backoffMsFor(2), 20);
    EXPECT_DOUBLE_EQ(p.backoffMsFor(3), 40);
    EXPECT_DOUBLE_EQ(p.backoffMsFor(7), 640);
    EXPECT_DOUBLE_EQ(p.backoffMsFor(8), 1000);   // 1280 hits the cap
    EXPECT_DOUBLE_EQ(p.backoffMsFor(30), 1000);  // stays capped

    RestartPolicy flat;
    flat.backoffInitialMs = 25;
    flat.backoffMultiplier = 1.0;
    EXPECT_DOUBLE_EQ(flat.backoffMsFor(1), 25);
    EXPECT_DOUBLE_EQ(flat.backoffMsFor(9), 25);

    RestartPolicy low;
    low.backoffInitialMs = 500;
    low.backoffCapMs = 100;  // cap below initial: cap wins
    EXPECT_DOUBLE_EQ(low.backoffMsFor(1), 100);

    RestartPolicy off;
    EXPECT_FALSE(off.enabled());  // Never is the default
    off.mode = RestartMode::OnFailure;
    EXPECT_FALSE(off.enabled());  // a zero budget disables it too
    off.maxRestarts = 1;
    EXPECT_TRUE(off.enabled());
}

TEST(FaultCount, ParseAndShowRoundTrip)
{
    FaultSpec once = FaultSpec::parse("throw@5");
    EXPECT_EQ(once.count, 1u);  // transient by default
    EXPECT_EQ(once.show(), "throw@5");

    FaultSpec twice = FaultSpec::parse("throw@5:2");
    EXPECT_EQ(twice.tick, 5u);
    EXPECT_EQ(twice.count, 2u);
    EXPECT_EQ(twice.show(), "throw@5:2");

    FaultSpec forever = FaultSpec::parse("stall@9:100:0");
    EXPECT_EQ(forever.stallMs, 100u);
    EXPECT_EQ(forever.count, 0u);
    EXPECT_EQ(forever.show(), "stall@9:100:0");

    EXPECT_THROW(FaultSpec::parse("throw@1:2:3"), FatalError);
    EXPECT_THROW(FaultSpec::parse("stall@1:2:3:4"), FatalError);
}

TEST(FaultCount, TransientThrowStaysFiredAcrossRearm)
{
    // The fired count — not the tick clock — gates re-firing: after a
    // rearm() the already-fired fault must NOT fire again, or throw@K
    // would defeat every restart budget.
    std::vector<int32_t> in{0, 1, 2, 3, 4, 5};
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@2"));

    EXPECT_NE(takeOne(src), nullptr);
    EXPECT_NE(takeOne(src), nullptr);
    EXPECT_THROW(takeOne(src), InjectedFault);
    EXPECT_EQ(src.fired(), 1u);

    src.rearm();
    int delivered = 0;
    while (takeOne(src))
        ++delivered;
    EXPECT_EQ(delivered, 4);  // the throw itself consumed no element
    EXPECT_EQ(src.fired(), 1u);
}

TEST(FaultCount, PermanentThrowRefiresAfterRearm)
{
    std::vector<int32_t> in{0, 1, 2, 3};
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@1:0"));

    EXPECT_NE(takeOne(src), nullptr);
    EXPECT_THROW(takeOne(src), InjectedFault);
    src.rearm();
    EXPECT_THROW(takeOne(src), InjectedFault);
    EXPECT_EQ(src.fired(), 2u);
}

TEST(FaultCount, CountLimitsFiringsWithinOneRun)
{
    std::vector<int32_t> in{0, 1, 2, 3};
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@1:2"));

    EXPECT_NE(takeOne(src), nullptr);
    EXPECT_THROW(takeOne(src), InjectedFault);
    EXPECT_THROW(takeOne(src), InjectedFault);
    EXPECT_EQ(src.fired(), 2u);
    int delivered = 0;
    while (takeOne(src))
        ++delivered;
    EXPECT_EQ(delivered, 3);
}

// --------------------------------------- single-threaded self-healing

TEST(Recovery, SingleThreadedRestartLosesNothing)
{
    // At OptLevel::None each element is fully processed before the
    // next source read, so a restarted single-threaded run produces
    // EXACTLY the clean run's output — nothing is in flight to lose.
    std::vector<int32_t> in(50);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);

    auto clean = compilePipeline(
        pipe(incBlock(1), incBlock(10)),
        CompilerOptions::forLevel(OptLevel::None));
    auto expect = clean->runBytes(bytes);

    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    auto p = compilePipeline(pipe(incBlock(1), incBlock(10)), opt);

    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@10"));
    VecSink sink(4);

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();

    p->run(src, sink);  // must not throw

    EXPECT_EQ(sink.data(), expect);
    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 1);
    EXPECT_EQ(src.fired(), 1u);
}

TEST(Recovery, SingleThreadedExhaustionAccountsEveryBackoff)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 2;
    opt.restart.backoffInitialMs = 1;
    opt.restart.backoffMultiplier = 2.0;
    auto p = compilePipeline(incBlock(1), opt);

    std::vector<int32_t> in(16, 3);
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@5:0"));
    NullSink sink;

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();
    uint64_t exhausted0 = reg.counter("restart.exhausted").value();
    uint64_t backoff0 = reg.counter("restart.backoff_ms_total").value();

    try {
        p->run(src, sink);
        FAIL() << "permanent fault must exhaust the restart budget";
    } catch (const StageFailureError& e) {
        const StageFailure& f = e.failure();
        EXPECT_TRUE(f.restartsExhausted);
        ASSERT_EQ(f.restarts.size(), 2u);
        EXPECT_EQ(f.path, "root");
        EXPECT_EQ(f.cause, FailureCause::Exception);
        EXPECT_DOUBLE_EQ(f.restarts[0].backoffMs, 1);
        EXPECT_DOUBLE_EQ(f.restarts[1].backoffMs, 2);
        EXPECT_DOUBLE_EQ(f.backoffMsTotal, 3);
    }
    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 2);
    EXPECT_EQ(reg.counter("restart.exhausted").value(), exhausted0 + 1);
    EXPECT_EQ(reg.counter("restart.backoff_ms_total").value(),
              backoff0 + 3);
}

TEST(Recovery, StageInternalFaultIsSupervisedToo)
{
    // The fault lives INSIDE a stage kernel, not at an endpoint.  The
    // kernel is recreated by reset()/start() on every attempt, so its
    // tick counter rewinds and the fault re-fires: a permanent fault
    // from the supervisor's point of view.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 1;
    opt.restart.backoffInitialMs = 1;
    auto p = compilePipeline(pipe(incBlock(0), throwAtBlock(10)), opt);

    std::vector<int32_t> in(64, 9);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;

    try {
        p->run(src, sink);
        FAIL() << "stage-internal permanent fault must end the run";
    } catch (const StageFailureError& e) {
        const StageFailure& f = e.failure();
        EXPECT_TRUE(f.restartsExhausted);
        EXPECT_EQ(f.restarts.size(), 1u);
        EXPECT_NE(f.message.find("induced stage exception"),
                  std::string::npos);
    }
}

// ------------------------------------------------------- WiFi RX loop

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

std::vector<uint8_t>
samplesToBytes(const std::vector<Complex16>& xs)
{
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

bool
containsBytes(const std::vector<uint8_t>& hay,
              const std::vector<uint8_t>& needle)
{
    return std::search(hay.begin(), hay.end(), needle.begin(),
                       needle.end()) != hay.end();
}

TEST(Recovery, WifiRxDecodesSecondPacketAcrossRestart)
{
    // A transient source throw lands mid-packet-1: the restarted
    // receiver loses (at most) that frame's decoder state, resyncs,
    // and still decodes the clean packet 2 — the crash costs a frame,
    // not the run.
    using namespace wifi;
    auto payload1 = randomBytes(40, 91);
    auto payload2 = randomBytes(40, 92);

    auto tx1 = sora::txFrame(payload1, Rate::R12);
    auto tx2 = sora::txFrame(payload2, Rate::R12);

    std::vector<Complex16> stream;
    stream.insert(stream.end(), 300, Complex16{0, 0});
    stream.insert(stream.end(), tx1.begin(), tx1.end());
    stream.insert(stream.end(), 3000, Complex16{0, 0});
    stream.insert(stream.end(), tx2.begin(), tx2.end());
    stream.insert(stream.end(), 300, Complex16{0, 0});

    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.seed = 93;
    auto rxSamples = channel::applyChannel(stream, cfg);
    auto sampBytes = samplesToBytes(rxSamples);

    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    auto rx = compilePipeline(wifiReceiverLoopComp(), opt);
    ASSERT_EQ(rx->inWidth(), 4u);  // one Complex16 sample per element

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();

    MemSource mem(sampBytes, rx->inWidth());
    // Sample 600 is ~140 samples into packet 1 (after 300 silence +
    // 160 STS + 160 LTS): the throw interrupts its decode mid-frame.
    FaultySource src(mem, FaultSpec::parse("throw@600"));
    VecSink sink(rx->outWidth());

    ASSERT_NO_THROW(rx->run(src, sink));
    auto bytes = bitsToBytes(sink.data());

    EXPECT_TRUE(containsBytes(bytes, payload2))
        << "clean packet after the mid-capture crash was not decoded";
    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 1);
    EXPECT_EQ(src.fired(), 1u);
}

} // namespace
} // namespace ziria
