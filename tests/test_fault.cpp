/**
 * @file
 * Fault-tolerance tests (ctest label `fault`): the fault-injection
 * harness, supervised threaded pipelines (watchdog, structured stage
 * failures), channel impairment injection and config validation, and
 * WiFi RX graceful degradation under corrupted/truncated captures.
 *
 * Every scenario here used to hang, abort, or kill the process; each
 * test asserts the run instead terminates with a structured outcome.
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "channel/channel.h"
#include "sora/sora.h"
#include "support/fault_injector.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zexec/faultpoint.h"
#include "zexec/threaded.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;
using testsupport::bytesToInts;
using testsupport::intBytes;
using testsupport::stallAtBlock;
using testsupport::throwAtBlock;

// ------------------------------------------------------------ FaultSpec

TEST(FaultSpec_, ParsesEveryKindAndShowsRoundTrip)
{
    FaultSpec t = FaultSpec::parse("truncate@128");
    EXPECT_EQ(t.kind, FaultSpec::Kind::Truncate);
    EXPECT_EQ(t.tick, 128u);
    EXPECT_EQ(t.show(), "truncate@128");

    FaultSpec th = FaultSpec::parse("throw@0");
    EXPECT_EQ(th.kind, FaultSpec::Kind::Throw);
    EXPECT_EQ(th.tick, 0u);

    FaultSpec st = FaultSpec::parse("stall@5:250");
    EXPECT_EQ(st.kind, FaultSpec::Kind::Stall);
    EXPECT_EQ(st.tick, 5u);
    EXPECT_EQ(st.stallMs, 250u);
    EXPECT_EQ(st.show(), "stall@5:250");

    FaultSpec stDefault = FaultSpec::parse("stall@7");
    EXPECT_EQ(stDefault.stallMs, 1000u);  // documented default

    FaultSpec sr = FaultSpec::parse("shortread@16:42");
    EXPECT_EQ(sr.kind, FaultSpec::Kind::ShortRead);
    EXPECT_EQ(sr.seed, 42u);
}

TEST(FaultSpec_, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultSpec::parse("truncate"), FatalError);
    EXPECT_THROW(FaultSpec::parse("bogus@3"), FatalError);
    EXPECT_THROW(FaultSpec::parse("truncate@x"), FatalError);
    EXPECT_THROW(FaultSpec::parse("truncate@3:9"), FatalError);  // no arg
    EXPECT_THROW(FaultSpec::parse("stall@3:abc"), FatalError);
}

// ---------------------------------------------------- Faulty endpoints

/** Everything @p src hands out, committing at most @p cap elements of
 *  each window (the rest leads the next one). */
std::vector<uint8_t>
drain(InputSource& src, size_t cap = SIZE_MAX)
{
    std::vector<uint8_t> seen;
    size_t n = 0;
    while (const uint8_t* p = src.window(&n)) {
        n = std::min(n, cap);
        seen.insert(seen.end(), p, p + n);
        src.commit(n);
    }
    return seen;
}

TEST(FaultyEndpoints, TruncateEndsStreamAtTick)
{
    std::vector<uint8_t> data(100);
    MemSource mem(data, 1);
    FaultSpec spec = FaultSpec::parse("truncate@10");
    FaultySource src(mem, spec);
    size_t n = 0;
    EXPECT_NE(src.window(&n), nullptr);
    EXPECT_EQ(n, 10u);  // the window ends at the tick
    EXPECT_EQ(drain(src).size(), 10u);
    EXPECT_EQ(src.window(&n), nullptr);  // stays ended
    EXPECT_EQ(src.state(), Feed::End);
}

TEST(FaultyEndpoints, ThrowRaisesInjectedFaultAtTick)
{
    std::vector<uint8_t> data(100);
    MemSource mem(data, 1);
    FaultySource src(mem, FaultSpec::parse("throw@3"));
    size_t n = 0;
    ASSERT_NE(src.window(&n), nullptr);
    EXPECT_EQ(n, 3u);
    src.commit(2);
    ASSERT_NE(src.window(&n), nullptr);  // the rest before the tick
    EXPECT_EQ(n, 1u);
    src.commit(1);
    EXPECT_THROW(src.window(&n), InjectedFault);
}

TEST(FaultyEndpoints, ShortReadDropsDeterministically)
{
    auto run = [](uint64_t seed, size_t cap) {
        std::vector<uint8_t> data(4000);
        for (size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<uint8_t>(i);
        MemSource mem(data, 1);
        FaultSpec spec;
        spec.kind = FaultSpec::Kind::ShortRead;
        spec.tick = 100;
        spec.seed = seed;
        FaultySource src(mem, spec);
        return drain(src, cap);
    };
    auto a = run(7, SIZE_MAX);
    EXPECT_EQ(a, run(7, SIZE_MAX));  // seeded: replays exactly
    EXPECT_LT(a.size(), 4000u);      // something was dropped
    EXPECT_GT(a.size(), 3000u);      // ...but only ~1/8
    // One draw per element: the same drops whatever the drive commits.
    EXPECT_EQ(run(7, 1), a);
    EXPECT_EQ(run(7, 3), a);
    EXPECT_NE(run(8, SIZE_MAX), a);
}

TEST(FaultyEndpoints, SinkShortWriteDropsTail)
{
    VecSink inner(1);
    FaultySink sink(inner, FaultSpec::parse("truncate@5"));
    uint8_t b = 1;
    for (int i = 0; i < 20; ++i)
        sink.putRun(&b, 1, 1);
    EXPECT_EQ(inner.data().size(), 5u);
    EXPECT_EQ(sink.dropped(), 15u);

    // A run across the tick delivers the part before it.
    VecSink whole(1);
    FaultySink runSink(whole, FaultSpec::parse("truncate@5"));
    std::vector<uint8_t> run(20, 1);
    runSink.putRun(run.data(), 3, 1);
    runSink.putRun(run.data(), 17, 1);
    EXPECT_EQ(whole.data().size(), 5u);
    EXPECT_EQ(runSink.dropped(), 15u);
}

TEST(FaultyEndpoints, SinkThrowTakesNoneOfTheRunReachingTheTick)
{
    VecSink inner(1);
    FaultySink sink(inner, FaultSpec::parse("throw@5"));
    std::vector<uint8_t> run(4, 1);
    sink.putRun(run.data(), 4, 1);           // elements 0-3
    EXPECT_THROW(sink.putRun(run.data(), 4, 1), InjectedFault);  // 4-7
    EXPECT_EQ(inner.data().size(), 4u);      // none of the second run
    EXPECT_EQ(sink.ticks(), 4u);
    sink.putRun(run.data(), 4, 1);           // transient: fired once
    EXPECT_EQ(inner.data().size(), 8u);
    EXPECT_EQ(sink.fired(), 1u);
}

/** letvar acc = 0; repeat { x <- take; acc += x; emit acc;
 *  if acc % 3 == 0 then emit x }: stateful and not rate-1, so a
 *  dropped, repeated or reordered input element changes the output. */
CompPtr
pinnedProgram()
{
    VarRef acc = freshVar("acc", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    return letvar(
        acc, cInt(0),
        repeatc(seqc({bindc(x, take(Type::int32())),
                      just(doS({assign(var(acc), var(acc) + var(x))})),
                      just(emit(var(acc))),
                      just(ifc(var(acc) % cInt(3) == cInt(0),
                               emit(var(x))))})));
}

struct Pinned
{
    const char* fault;
    bool heal;        ///< restart 3, checkpoint every 64 elements
    uint64_t digest;  ///< FNV-1a 64 of the output bytes
    uint64_t consumed;
    uint64_t emitted;
};

/** Pipeline::run of pinnedProgram() over 4096 elements through a
 *  FaultySource applying @p want.fault; fills in what it observed. */
Pinned
runPinned(Backend be, const Pinned& want)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.backend = be;
    if (want.heal) {
        opt.restart.mode = RestartMode::OnFailure;
        opt.restart.maxRestarts = 3;
        opt.restart.backoffInitialMs = 1;
        opt.checkpoint.interval = 64;
    }
    auto p = compilePipeline(pinnedProgram(), opt);
    std::vector<int32_t> in(4096);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>((i * 7 + 3) % 101);
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse(want.fault));
    VecSink sink(4);
    RunStats st = p->run(src, sink);
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : sink.data())
        h = (h ^ b) * 1099511628211ull;
    return {want.fault, want.heal, h, st.consumed, st.emitted};
}

TEST(FaultyEndpoints, PinnedFaultOutcomes)
{
    // Recorded with the element-at-a-time decorator: clipping windows
    // at the tick must fire every fault at the same element, and
    // ShortRead must drop the same elements.  throw@777 heals to the
    // clean output, and a 1 ms stall only delays it.
    const Pinned pins[] = {
        {"truncate@1000", false, 0xb91a21c4015bc6a8ull, 1000, 1330},
        {"shortread@100:7", false, 0xc2c7100b6f0846feull, 3595, 4763},
        {"shortread@100:42", false, 0x26cbc5f5143eb154ull, 3555, 4732},
        {"throw@777", true, 0x93f6e896086b55dfull, 4096, 5457},
        {"stall@500:1", false, 0x93f6e896086b55dfull, 4096, 5457},
    };
    for (Backend be : {Backend::Vm, Backend::Fused})
        for (const Pinned& want : pins) {
            SCOPED_TRACE(std::string(want.fault) +
                         (be == Backend::Vm ? " on vm" : " on fused"));
            Pinned got = runPinned(be, want);
            EXPECT_EQ(got.digest, want.digest);
            EXPECT_EQ(got.consumed, want.consumed);
            EXPECT_EQ(got.emitted, want.emitted);
        }
}

/** Counts the window() calls a decorator makes on a MemSource. */
class CountingSource : public InputSource
{
  public:
    explicit CountingSource(MemSource& m) : m_(m) {}

    const uint8_t*
    window(size_t* n) override
    {
        ++calls;
        return m_.window(n);
    }

    void commit(size_t n) override { m_.commit(n); }

    uint64_t calls = 0;

  private:
    MemSource& m_;
};

TEST(FaultyEndpoints, UnfiredFaultKeepsWholeWindows)
{
    // A fault whose tick lies past the stream must not cost the drive
    // its windows: 4096 elements take a handful of inner windows, not
    // one per element.
    for (const char* fault : {"truncate@999999999", "throw@999999999",
                              "stall@999999999:1", "shortread@999999999:3"}) {
        SCOPED_TRACE(fault);
        const CompilerOptions opt =
            CompilerOptions::forLevel(OptLevel::None);
        auto bytes = intBytes(std::vector<int32_t>(4096, 5));
        auto p = compilePipeline(pinnedProgram(), opt);
        MemSource mem(bytes, 4);
        CountingSource counting(mem);
        FaultySource src(counting, FaultSpec::parse(fault));
        VecSink sink(4);
        RunStats st = p->run(src, sink);
        EXPECT_EQ(st.consumed, 4096u);
        EXPECT_EQ(sink.data(),
                  compilePipeline(pinnedProgram(), opt)->runBytes(bytes));
        EXPECT_LT(counting.calls, 10u);
    }
}

// ------------------------------------------------- channel validation

TEST(ChannelValidation, RejectsBadConfigs)
{
    using channel::ChannelConfig;
    using channel::validateChannelConfig;

    ChannelConfig ok;
    EXPECT_NO_THROW(validateChannelConfig(ok));

    ChannelConfig c1;
    c1.delaySamples = -5;
    EXPECT_THROW(validateChannelConfig(c1), FatalError);

    ChannelConfig c2;
    c2.trailSamples = -1;
    EXPECT_THROW(validateChannelConfig(c2), FatalError);

    ChannelConfig c3;
    c3.multipathTaps = 0;
    EXPECT_THROW(validateChannelConfig(c3), FatalError);

    ChannelConfig c4;
    c4.snrDb = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(validateChannelConfig(c4), FatalError);

    ChannelConfig c5;
    c5.gain = std::numeric_limits<double>::infinity();
    EXPECT_THROW(validateChannelConfig(c5), FatalError);

    ChannelConfig c6;
    c6.burstErrors = 2;  // burstLen left 0
    EXPECT_THROW(validateChannelConfig(c6), FatalError);

    ChannelConfig c7;
    c7.truncateFrac = 1.5;
    EXPECT_THROW(validateChannelConfig(c7), FatalError);

    // applyChannel itself validates.
    std::vector<Complex16> tx(16, Complex16{1000, 0});
    EXPECT_THROW(channel::applyChannel(tx, c1), FatalError);
}

TEST(ChannelFaults, TruncateFracShortensCapture)
{
    std::vector<Complex16> tx(1000, Complex16{4000, 0});
    channel::ChannelConfig cfg;
    cfg.delaySamples = 100;
    cfg.trailSamples = 50;
    cfg.truncateFrac = 0.5;
    auto rx = channel::applyChannel(tx, cfg);
    EXPECT_EQ(rx.size(), 100u + 500u + 50u);
}

TEST(ChannelFaults, BurstErrorsCorruptSamplesDeterministically)
{
    std::vector<Complex16> tx(2000, Complex16{4000, 0});
    channel::ChannelConfig cfg;
    cfg.snrDb = 60.0;  // nearly noiseless outside the bursts
    cfg.burstErrors = 3;
    cfg.burstLen = 40;
    cfg.seed = 11;
    auto withBursts = channel::applyChannel(tx, cfg);

    auto again = channel::applyChannel(tx, cfg);
    ASSERT_EQ(withBursts.size(), again.size());
    EXPECT_TRUE(std::equal(withBursts.begin(), withBursts.end(),
                           again.begin(),
                           [](const Complex16& a, const Complex16& b) {
                               return a.re == b.re && a.im == b.im;
                           }));

    // Burst sigma is ~10x the signal amplitude: corrupted samples tower
    // over the clean 4000-amplitude carrier.  Count them.
    size_t corrupted = 0;
    for (const auto& s : withBursts) {
        if (std::abs(static_cast<int>(s.re)) > 9000 ||
            std::abs(static_cast<int>(s.im)) > 9000)
            ++corrupted;
    }
    EXPECT_GE(corrupted, 30u);   // most of at least one whole burst
    EXPECT_LE(corrupted, 130u);  // bounded by 3 bursts x 40 samples
}

// ----------------------------------------- supervised threaded runs

CompPtr
incBlock(int32_t delta)
{
    VarRef x = freshVar("x", Type::int32());
    return repeatc(seqc({bindc(x, take(Type::int32())),
                         just(emit(var(x) + delta))}));
}

TEST(Supervised, StageExceptionYieldsStructuredFailure)
{
    auto p = compileThreadedPipeline(
        ppipe(throwAtBlock(100), incBlock(1)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(100000, 7);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;
    try {
        p->run(src, sink);
        FAIL() << "expected StageFailureError";
    } catch (const StageFailureError& e) {
        const StageFailure& f = e.failure();
        EXPECT_EQ(f.stage, 0u);
        EXPECT_EQ(f.path, "stage0");
        EXPECT_EQ(f.cause, FailureCause::Exception);
        EXPECT_NE(f.inner, nullptr);
        EXPECT_NE(f.message.find("induced stage exception"),
                  std::string::npos);
    }
    // The failing stage's telemetry records the cause.
    ASSERT_NE(p->metrics(), nullptr);
    ASSERT_EQ(p->metrics()->stages.size(), 2u);
    EXPECT_EQ(p->metrics()->stages[0].failure, "exception");
}

TEST(Supervised, ProducerThrowsWhileConsumerBlocked)
{
    // Stage 0 throws before filling the queue: stage 1 is parked in
    // popWait and must be released by the queue close, not hang.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.queueCapacity = 4;
    auto p = compileThreadedPipeline(
        ppipe(throwAtBlock(2), incBlock(1)), opt);
    std::vector<int32_t> in(50000, 3);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;
    EXPECT_THROW(p->run(src, sink), StageFailureError);
}

TEST(Supervised, ConsumerCancelsWhileProducerBlocked)
{
    // Stage 1 halts immediately with a tiny queue: stage 0 is blocked
    // in pushWait on a full queue and must be released by the cancel.
    VarRef a = freshVar("a", Type::int32());
    CompPtr halting = seqc({bindc(a, take(Type::int32())),
                            just(ret(var(a)))});
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.queueCapacity = 2;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), std::move(halting)), opt);
    std::vector<int32_t> in(200000, 5);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;
    RunStats st = p->run(src, sink);  // must not hang or throw
    EXPECT_TRUE(st.halted);
    EXPECT_LT(st.consumed, in.size());
}

TEST(Supervised, WatchdogFlagsStalledStage)
{
    // A kernel sleeps far past the deadline; the watchdog must declare
    // the run stalled (cause Stall) instead of waiting it out.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.stallDeadlineMs = 150;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), stallAtBlock(50, 1500)), opt);
    EXPECT_EQ(p->stallDeadline(), 150);
    std::vector<int32_t> in(100000, 1);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;
    uint64_t before = metrics::Registry::global()
                          .counter("ziria.stall_timeouts")
                          .value();
    auto t0 = std::chrono::steady_clock::now();
    try {
        p->run(src, sink);
        FAIL() << "expected a stall StageFailureError";
    } catch (const StageFailureError& e) {
        EXPECT_EQ(e.failure().cause, FailureCause::Stall);
    }
    auto elapsed = std::chrono::steady_clock::now() - t0;
    // The sleeping kernel pins its own thread for 1.5 s, but never
    // 10 s — the teardown must not wait on anything else.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                  .count(), 10);
    EXPECT_GT(metrics::Registry::global()
                  .counter("ziria.stall_timeouts")
                  .value(), before);
}

TEST(Supervised, CleanRunUnderDeadlineIsUnaffected)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.stallDeadlineMs = 2000;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(10)), opt);
    std::vector<int32_t> in(20000);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);
    RunStats st = p->run(src, sink);
    EXPECT_EQ(st.consumed, in.size());
    auto out = bytesToInts(sink.data());
    ASSERT_EQ(out.size(), in.size());
    EXPECT_EQ(out[0], 11);
    EXPECT_EQ(out.back(), static_cast<int32_t>(in.size() - 1 + 11));
}

TEST(Supervised, FaultySourceStallTrippedByWatchdog)
{
    // The CLI-style composition: a stalling *source* (not stage kernel)
    // under supervision.  FaultySource's sleep polls its cancel flag,
    // so teardown is prompt here.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.stallDeadlineMs = 150;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)), opt);
    std::vector<int32_t> in(1000, 9);
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("stall@40:30000"));
    NullSink sink;
    auto t0 = std::chrono::steady_clock::now();
    try {
        p->run(src, sink);
        FAIL() << "expected a stall StageFailureError";
    } catch (const StageFailureError& e) {
        EXPECT_EQ(e.failure().cause, FailureCause::Stall);
    }
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    EXPECT_LT(ms, 5000);  // nowhere near the 30 s stall
}

// ------------------------------------------- WiFi RX degradation soak

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

/** True iff `needle` occurs as a contiguous subsequence of `hay`. */
bool
containsBytes(const std::vector<uint8_t>& hay,
              const std::vector<uint8_t>& needle)
{
    return std::search(hay.begin(), hay.end(), needle.begin(),
                       needle.end()) != hay.end();
}

TEST(RxDegradation, RecoversAfterCorruptedSignalHeader)
{
    // Packet 1's SIGNAL symbol is blanked (header undecodable); the
    // receiver loop must drop it, resynchronize, and still decode the
    // clean packet 2.
    using namespace wifi;
    auto badPayload = randomBytes(40, 61);
    auto goodPayload = randomBytes(40, 62);

    auto tx1 = sora::txFrame(badPayload, Rate::R12);
    // Frame layout: STS 160 + LTS 160 + SIGNAL 80 + DATA.  Blank the
    // SIGNAL symbol so rate/length/parity decode to garbage.
    for (size_t i = 320; i < 400; ++i)
        tx1[i] = Complex16{0, 0};
    auto tx2 = sora::txFrame(goodPayload, Rate::R12);

    std::vector<Complex16> stream;
    stream.insert(stream.end(), 300, Complex16{0, 0});
    stream.insert(stream.end(), tx1.begin(), tx1.end());
    stream.insert(stream.end(), 3000, Complex16{0, 0});
    stream.insert(stream.end(), tx2.begin(), tx2.end());
    stream.insert(stream.end(), 300, Complex16{0, 0});

    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.seed = 63;
    auto rxSamples = channel::applyChannel(stream, cfg);

    auto& reg = metrics::Registry::global();
    uint64_t drops0 = reg.counter("wifi.rx.header_drops").value();
    uint64_t resyncs0 = reg.counter("wifi.rx.resyncs").value();

    auto rx = compilePipeline(wifiReceiverLoopComp(),
                              CompilerOptions::forLevel(OptLevel::None));
    auto bits = rx->runBytes(samplesToBytes(rxSamples));
    auto bytes = bitsToBytes(bits);

    EXPECT_TRUE(containsBytes(bytes, goodPayload))
        << "clean packet after the corrupted one was not decoded";
    EXPECT_GT(reg.counter("wifi.rx.header_drops").value(), drops0);
    EXPECT_GT(reg.counter("wifi.rx.resyncs").value(), resyncs0);
}

TEST(RxDegradation, RecoversAfterTruncatedPacket)
{
    // Packet 1 is cut off mid-DATA: its declared length makes the
    // decoder chew into the following silence, the CRC fails, and the
    // loop must still find and decode packet 2.
    using namespace wifi;
    auto lostPayload = randomBytes(40, 71);
    auto goodPayload = randomBytes(40, 72);

    auto tx1 = sora::txFrame(lostPayload, Rate::R12);
    tx1.resize(tx1.size() - 3 * 80);  // drop the last 3 DATA symbols
    auto tx2 = sora::txFrame(goodPayload, Rate::R12);

    std::vector<Complex16> stream;
    stream.insert(stream.end(), 300, Complex16{0, 0});
    stream.insert(stream.end(), tx1.begin(), tx1.end());
    // Long gap: the phantom DATA region ends well inside it, leaving
    // plenty of silence before packet 2's preamble.
    stream.insert(stream.end(), 4000, Complex16{0, 0});
    stream.insert(stream.end(), tx2.begin(), tx2.end());
    stream.insert(stream.end(), 300, Complex16{0, 0});

    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.seed = 73;
    auto rxSamples = channel::applyChannel(stream, cfg);

    auto& reg = metrics::Registry::global();
    uint64_t fails0 = reg.counter("wifi.rx.crc_fail").value();
    uint64_t oks0 = reg.counter("wifi.rx.crc_ok").value();

    auto rx = compilePipeline(wifiReceiverLoopComp(),
                              CompilerOptions::forLevel(OptLevel::None));
    auto bits = rx->runBytes(samplesToBytes(rxSamples));
    auto bytes = bitsToBytes(bits);

    EXPECT_TRUE(containsBytes(bytes, goodPayload))
        << "clean packet after the truncated one was not decoded";
    EXPECT_GT(reg.counter("wifi.rx.crc_fail").value(), fails0)
        << "the truncated packet should have failed its CRC";
    EXPECT_GT(reg.counter("wifi.rx.crc_ok").value(), oks0)
        << "the clean packet should have passed its CRC";
}

TEST(RxDegradation, LtsBudgetExhaustionResyncsInsteadOfAborting)
{
    // A burst of STS-like energy with no LTS after it: the old kernel
    // called fatal() after 4096 samples.  Now it must give up quietly,
    // count a sync failure, and still decode a real packet later.
    using namespace wifi;
    auto payload = randomBytes(40, 81);

    std::vector<Complex16> stream;
    stream.insert(stream.end(), 200, Complex16{0, 0});
    // A fake "preamble": several STS repetitions, then noise-free
    // silence long enough to exhaust the LTS scan budget.
    const auto& sts = stsSamples();
    for (int i = 0; i < 2; ++i)
        stream.insert(stream.end(), sts.begin(), sts.end());
    stream.insert(stream.end(), 6000, Complex16{0, 0});
    auto tx = sora::txFrame(payload, Rate::R12);
    stream.insert(stream.end(), tx.begin(), tx.end());
    stream.insert(stream.end(), 300, Complex16{0, 0});

    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.seed = 83;
    auto rxSamples = channel::applyChannel(stream, cfg);

    auto& reg = metrics::Registry::global();
    uint64_t sync0 = reg.counter("wifi.rx.sync_failures").value();

    auto rx = compilePipeline(wifiReceiverLoopComp(),
                              CompilerOptions::forLevel(OptLevel::None));
    std::vector<uint8_t> bytes;
    ASSERT_NO_THROW({
        auto bits = rx->runBytes(samplesToBytes(rxSamples));
        bytes = bitsToBytes(bits);
    });
    EXPECT_TRUE(containsBytes(bytes, payload))
        << "packet after the false preamble was not decoded";
    EXPECT_GT(reg.counter("wifi.rx.sync_failures").value(), sync0);
}

} // namespace
} // namespace ziria
