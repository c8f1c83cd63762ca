/**
 * @file
 * Concurrency tests: the SPSC interthread queue and multi-stage
 * threaded pipelines (|>>>|) under load, early termination, and error
 * propagation.
 */
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "support/backends.h"
#include "support/metrics.h"
#include "support/panic.h"
#include "support/rng.h"
#include "support/spsc_queue.h"
#include "zast/builder.h"
#include "zexec/faultpoint.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;
using testsupport::backendName;
using testsupport::kAllBackends;
using testsupport::nativeUnavailable;

[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

TEST(SpscQueue, FifoUnderLoad)
{
    SpscQueue q(4, 64);
    const uint32_t N = 200000;
    std::thread producer([&] {
        for (uint32_t i = 0; i < N; ++i) {
            ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&i)));
        }
        q.close();
    });
    uint32_t v = 0;
    for (uint32_t i = 0; i < N; ++i) {
        ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
        ASSERT_EQ(v, i);
    }
    EXPECT_FALSE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    producer.join();
}

TEST(SpscQueue, CloseUnblocksConsumer)
{
    SpscQueue q(1, 8);
    std::thread t([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.close();
    });
    uint8_t b;
    EXPECT_FALSE(q.pop(&b));
    t.join();
}

TEST(SpscQueue, CancelUnblocksProducer)
{
    SpscQueue q(1, 2);
    uint8_t b = 7;
    ASSERT_TRUE(q.push(&b));
    ASSERT_TRUE(q.push(&b));
    std::thread t([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.cancel();
    });
    EXPECT_FALSE(q.push(&b));  // was full; cancel released us
    t.join();
}

TEST(SpscQueue, PushWaitTimesOutWithoutEnqueueing)
{
    SpscQueue q(1, 1);
    uint8_t b = 9;
    ASSERT_TRUE(q.push(&b));  // full
    EXPECT_EQ(q.pushWait(&b, 30), QueueWait::Timeout);
    // The timed-out element must NOT have been enqueued: popping twice
    // yields exactly one element.
    uint8_t v = 0;
    EXPECT_EQ(q.popWait(&v, 0), QueueWait::Ready);
    EXPECT_EQ(v, 9);
    EXPECT_EQ(q.popWait(&v, 30), QueueWait::Timeout);
}

TEST(SpscQueue, PopWaitTimesOutWhenEmpty)
{
    SpscQueue q(4, 8);
    uint8_t buf[4];
    EXPECT_EQ(q.popWait(buf, 30), QueueWait::Timeout);
    uint32_t x = 42;
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&x)));
    EXPECT_EQ(q.popWait(buf, 30), QueueWait::Ready);
}

TEST(SpscQueue, CancelWakesBlockedWaitersOnBothSides)
{
    SpscQueue q(1, 1);
    uint8_t b = 1;
    ASSERT_TRUE(q.push(&b));  // full: the producer below will block

    std::atomic<int> released{0};
    std::thread producer([&] {
        uint8_t x = 2;
        EXPECT_EQ(q.pushWait(&x, -1), QueueWait::Cancelled);
        released.fetch_add(1);
    });
    SpscQueue q2(1, 1);  // empty: the consumer below will block
    std::thread consumer([&] {
        uint8_t v;
        EXPECT_EQ(q2.popWait(&v, -1), QueueWait::Cancelled);
        released.fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    q.cancel();
    q2.cancel();
    producer.join();
    consumer.join();
    EXPECT_EQ(released.load(), 2);
}

TEST(SpscQueue, PopReportsCancelledEvenWithDataQueued)
{
    // Cancel means "stop now", not "drain first": a consumer must not
    // keep processing a cancelled run's backlog.
    SpscQueue q(1, 4);
    uint8_t b = 5;
    ASSERT_TRUE(q.push(&b));
    ASSERT_TRUE(q.push(&b));
    q.cancel();
    uint8_t v;
    EXPECT_EQ(q.popWait(&v, 0), QueueWait::Cancelled);
    EXPECT_EQ(q.pushWait(&b, 0), QueueWait::Cancelled);
}

TEST(SpscQueue, CloseAfterDrainIsDistinctFromTimeout)
{
    SpscQueue q(1, 4);
    uint8_t b = 3;
    ASSERT_TRUE(q.push(&b));
    q.close();
    uint8_t v;
    EXPECT_EQ(q.popWait(&v, 10), QueueWait::Ready);  // drains the ring
    EXPECT_EQ(v, 3);
    EXPECT_EQ(q.popWait(&v, 10), QueueWait::Closed);
    EXPECT_EQ(q.popWait(&v, 10), QueueWait::Closed);  // stays closed
}

namespace {

/** @p n consecutive 4-byte elements starting at @p first, as bytes. */
std::vector<uint8_t>
seqElems(uint32_t first, size_t n)
{
    std::vector<uint8_t> out(n * 4);
    for (size_t i = 0; i < n; ++i) {
        uint32_t v = first + static_cast<uint32_t>(i);
        std::memcpy(&out[i * 4], &v, 4);
    }
    return out;
}

uint32_t
elemAt(const std::vector<uint8_t>& buf, size_t i)
{
    uint32_t v;
    std::memcpy(&v, &buf[i * 4], 4);
    return v;
}

} // namespace

TEST(SpscQueue, PartialPushSpanMovesWhatFits)
{
    SpscQueue q(4, 5);
    size_t done = 0;
    auto a = seqElems(0, 3);
    ASSERT_EQ(q.pushSpan(a.data(), 3, 0, &done), QueueWait::Ready);
    ASSERT_EQ(done, 3u);
    // Two free slots: a span of four moves two and still reports Ready.
    auto b = seqElems(3, 4);
    EXPECT_EQ(q.pushSpan(b.data(), 4, 0, &done), QueueWait::Ready);
    EXPECT_EQ(done, 2u);
    EXPECT_EQ(q.size(), 5u);
    std::vector<uint8_t> out(5 * 4);
    ASSERT_EQ(q.popSpan(out.data(), 5, 0, &done), QueueWait::Ready);
    ASSERT_EQ(done, 5u);
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(elemAt(out, i), i);
}

TEST(SpscQueue, TimedOutSpanEnqueuesNothing)
{
    SpscQueue q(4, 3);
    auto a = seqElems(0, 3);
    size_t done = 0;
    ASSERT_EQ(q.pushSpan(a.data(), 3, 0, &done), QueueWait::Ready);
    auto b = seqElems(100, 2);
    done = 7;
    EXPECT_EQ(q.pushSpan(b.data(), 2, 20, &done), QueueWait::Timeout);
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.stats().pushed, 3u);
    std::vector<uint8_t> out(4 * 4);
    ASSERT_EQ(q.popSpan(out.data(), 4, 0, &done), QueueWait::Ready);
    ASSERT_EQ(done, 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(elemAt(out, i), i);
    EXPECT_EQ(q.popSpan(out.data(), 4, 20, &done), QueueWait::Timeout);
    EXPECT_EQ(done, 0u);
}

TEST(SpscQueue, PopSpanIsBoundedAndFifoAcrossTheWrap)
{
    // Capacity 7 against spans of 3 and 2: head and tail cross the end
    // of the ring at different offsets on every lap.
    SpscQueue q(4, 7);
    uint32_t next = 0;
    uint32_t expect = 0;
    std::vector<uint8_t> out(3 * 4);
    for (int lap = 0; lap < 40; ++lap) {
        auto in = seqElems(next, 3);
        size_t done = 0;
        ASSERT_EQ(q.pushSpan(in.data(), 3, 0, &done), QueueWait::Ready);
        next += static_cast<uint32_t>(done);
        ASSERT_EQ(q.popSpan(out.data(), 2, 0, &done), QueueWait::Ready);
        ASSERT_LE(done, 2u);
        for (size_t i = 0; i < done; ++i)
            ASSERT_EQ(elemAt(out, i), expect++);
    }
    size_t done = 0;
    while (q.size() > 0) {
        ASSERT_EQ(q.popSpan(out.data(), 3, 0, &done), QueueWait::Ready);
        ASSERT_LE(done, 3u);
        for (size_t i = 0; i < done; ++i)
            ASSERT_EQ(elemAt(out, i), expect++);
    }
    EXPECT_EQ(expect, next);
    EXPECT_GT(next, 7u * 10);  // many laps round the ring
}

TEST(SpscQueue, SpansSeeClosedOnlyWhenDrainedAndCancelFirst)
{
    SpscQueue q(4, 8);
    auto in = seqElems(0, 5);
    size_t done = 0;
    ASSERT_EQ(q.pushSpan(in.data(), 5, 0, &done), QueueWait::Ready);
    q.close();
    std::vector<uint8_t> out(4 * 4);
    ASSERT_EQ(q.popSpan(out.data(), 4, 0, &done), QueueWait::Ready);
    EXPECT_EQ(done, 4u);
    ASSERT_EQ(q.popSpan(out.data(), 4, 0, &done), QueueWait::Ready);
    EXPECT_EQ(done, 1u);
    EXPECT_EQ(elemAt(out, 0), 4u);
    EXPECT_EQ(q.popSpan(out.data(), 4, 10, &done), QueueWait::Closed);
    EXPECT_EQ(done, 0u);

    // Cancel wins over queued data on both sides.
    SpscQueue c(4, 8);
    ASSERT_EQ(c.pushSpan(in.data(), 5, 0, &done), QueueWait::Ready);
    c.cancel();
    EXPECT_EQ(c.popSpan(out.data(), 4, 0, &done), QueueWait::Cancelled);
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(c.pushSpan(in.data(), 2, 0, &done), QueueWait::Cancelled);
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(c.size(), 5u);
}

TEST(SpscQueue, CountersCountElementsAndStallsCountWaits)
{
    SpscQueue q(4, 4);
    std::vector<uint8_t> out(4 * 4);
    size_t done = 0;
    // One empty-queue wait, whatever the span it asked for.
    EXPECT_EQ(q.popSpan(out.data(), 4, 0, &done), QueueWait::Timeout);
    auto in = seqElems(0, 6);
    ASSERT_EQ(q.pushSpan(in.data(), 6, 0, &done), QueueWait::Ready);
    ASSERT_EQ(done, 4u);
    // One full-queue wait for the two elements that did not fit.
    EXPECT_EQ(q.pushSpan(in.data() + 16, 2, 0, &done), QueueWait::Timeout);
    ASSERT_EQ(q.popSpan(out.data(), 3, 0, &done), QueueWait::Ready);
    ASSERT_EQ(done, 3u);
    SpscQueue::Stats st = q.stats();
    EXPECT_EQ(st.pushed, 4u);
    EXPECT_EQ(st.popped, 3u);
    EXPECT_EQ(st.highWater, 4u);
    EXPECT_EQ(st.pushStalls, 1u);
    EXPECT_EQ(st.popStalls, 1u);
}

TEST(SpscQueue, RandomSpansStayFifoUnderLoad)
{
    SpscQueue q(4, 61);
    const uint32_t N = 300000;
    std::thread producer([&] {
        Rng rng(11);
        uint32_t next = 0;
        while (next < N) {
            size_t n = std::min<size_t>(1 + rng.below(96), N - next);
            auto in = seqElems(next, n);
            size_t off = 0;
            while (off < n) {
                size_t done = 0;
                ASSERT_EQ(q.pushSpan(in.data() + off * 4, n - off, -1,
                                     &done),
                          QueueWait::Ready);
                ASSERT_GE(done, 1u);
                off += done;
            }
            next += static_cast<uint32_t>(n);
        }
        q.close();
    });
    Rng rng(12);
    std::vector<uint8_t> out(96 * 4);
    uint32_t expect = 0;
    for (;;) {
        size_t max = 1 + rng.below(96);
        size_t done = 0;
        QueueWait w = q.popSpan(out.data(), max, -1, &done);
        if (w == QueueWait::Closed)
            break;
        ASSERT_EQ(w, QueueWait::Ready);
        ASSERT_GE(done, 1u);
        ASSERT_LE(done, max);
        for (size_t i = 0; i < done; ++i)
            ASSERT_EQ(elemAt(out, i), expect++);
    }
    producer.join();
    EXPECT_EQ(expect, N);
    EXPECT_EQ(q.stats().pushed, N);
    EXPECT_EQ(q.stats().popped, N);
}

namespace {

CompPtr
incBlock(int32_t delta)
{
    VarRef x = freshVar("x", Type::int32());
    return repeatc(seqc({bindc(x, take(Type::int32())),
                         just(emit(var(x) + delta))}));
}

std::vector<uint8_t>
intBytes(const std::vector<int32_t>& xs)
{
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

} // namespace

TEST(Threaded, ThreeStagesMatchSingle)
{
    auto mk = [](bool threaded) {
        CompPtr a = incBlock(1);
        CompPtr b = incBlock(10);
        CompPtr c = incBlock(100);
        return threaded
            ? ppipe(ppipe(std::move(a), std::move(b)), std::move(c))
            : pipe(pipe(std::move(a), std::move(b)), std::move(c));
    };
    std::vector<int32_t> in(50000);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);

    auto single = compilePipeline(
        mk(false), CompilerOptions::forLevel(OptLevel::None));
    auto expect = single->runBytes(bytes);

    auto multi = compileThreadedPipeline(
        mk(true), CompilerOptions::forLevel(OptLevel::None));
    MemSource src(bytes, 4);
    VecSink sink(4);
    RunStats st = multi->run(src, sink);
    EXPECT_EQ(st.consumed, in.size());
    EXPECT_EQ(sink.data(), expect);
}

TEST(Threaded, VectorizedStagesMatchSingle)
{
    auto mk = [](bool threaded) {
        CompPtr a = incBlock(2);
        CompPtr b = incBlock(3);
        return threaded ? ppipe(std::move(a), std::move(b))
                        : pipe(std::move(a), std::move(b));
    };
    std::vector<int32_t> in(288 * 64);
    Rng rng(4);
    for (auto& v : in)
        v = static_cast<int32_t>(rng.next());
    auto bytes = intBytes(in);

    auto expect = compilePipeline(
        mk(false), CompilerOptions::forLevel(OptLevel::None))
        ->runBytes(bytes);

    auto multi = compileThreadedPipeline(
        mk(true), CompilerOptions::forLevel(OptLevel::All));
    MemSource src(bytes, multi->inWidth());
    VecSink sink(multi->outWidth());
    multi->run(src, sink);
    size_t n = std::min(sink.data().size(), expect.size());
    EXPECT_GT(n, expect.size() - 288 * 8);
    EXPECT_TRUE(std::equal(sink.data().begin(),
                           sink.data().begin() + static_cast<long>(n),
                           expect.begin()));
}

TEST(Threaded, MidStageComputerStopsPipeline)
{
    // Middle stage halts after 5 elements: upstream must unblock, the
    // run must report a halt, and nothing should hang.
    VarRef a = freshVar("a", Type::int32());
    std::vector<SeqComp::Item> items;
    items.push_back(bindc(a, take(Type::int32())));
    for (int i = 0; i < 4; ++i)
        items.push_back(just(take(Type::int32())));
    items.push_back(just(ret(var(a))));
    CompPtr mid = seqc(std::move(items));

    auto p = compileThreadedPipeline(
        ppipe(ppipe(incBlock(1), std::move(mid)), incBlock(5)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(200000, 3);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;
    RunStats st = p->run(src, sink);
    EXPECT_TRUE(st.halted);
    EXPECT_LT(st.consumed, in.size());
}

TEST(Threaded, StageErrorPropagates)
{
    // Division by zero inside stage 2 must surface on the calling thread.
    VarRef x = freshVar("x", Type::int32());
    CompPtr bad = repeatc(seqc({bindc(x, take(Type::int32())),
                                just(emit(cInt(7) / var(x)))}));
    auto p = compileThreadedPipeline(
        ppipe(incBlock(0), std::move(bad)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in{1, 2, 0, 4};
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;
    EXPECT_THROW(p->run(src, sink), FatalError);
}

TEST(Threaded, RunStatsAndStageTelemetry)
{
    // Stage/queue telemetry is recorded on every threaded run, even
    // without per-node instrumentation.
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(20000);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);
    RunStats st = p->run(src, sink);
    EXPECT_EQ(st.consumed, in.size());
    EXPECT_EQ(st.emitted, in.size());

    ASSERT_NE(st.metrics, nullptr);
    ASSERT_EQ(st.metrics->stages.size(), p->stageCount());
    const StageMetrics& s0 = st.metrics->stages.front();
    const StageMetrics& s1 = st.metrics->stages.back();
    EXPECT_EQ(s0.consumed, st.consumed);
    EXPECT_EQ(s1.emitted, st.emitted);
    EXPECT_EQ(s0.emitted, s1.consumed);  // all queue traffic delivered
    EXPECT_FALSE(s0.halted);
    EXPECT_GE(s0.sec, 0.0);

    EXPECT_TRUE(s0.hasQueue);
    EXPECT_FALSE(s1.hasQueue);
    EXPECT_GT(s0.queueCapacity, 0u);
    EXPECT_GE(s0.queueHighWater, 1u);
    EXPECT_LE(s0.queueHighWater, s0.queueCapacity);
}

TEST(Threaded, TelemetryReplacedEachRunAndRecordsHalt)
{
    // A halting middle stage: its StageMetrics entry reports the halt,
    // and a second run replaces (not appends to) the stage records.
    VarRef a = freshVar("a", Type::int32());
    auto mkHalting = [&] {
        return seqc({bindc(a, take(Type::int32())),
                     just(ret(var(a)))});
    };
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), mkHalting()),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(50000, 2);
    auto bytes = intBytes(in);
    for (int round = 0; round < 2; ++round) {
        MemSource src(bytes, 4);
        NullSink sink;
        RunStats st = p->run(src, sink);
        EXPECT_TRUE(st.halted);
        ASSERT_NE(st.metrics, nullptr);
        ASSERT_EQ(st.metrics->stages.size(), 2u);
        EXPECT_TRUE(st.metrics->stages.back().halted);
        EXPECT_FALSE(st.metrics->stages.front().halted);
    }
}

TEST(Threaded, InstrumentedStagesExposePerNodeCounters)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.instrument = true;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)), opt);
    std::vector<int32_t> in{1, 2, 3, 4, 5};
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);
    RunStats st = p->run(src, sink);

    ASSERT_NE(st.metrics, nullptr);
    const NodeMetrics* stage0 = nullptr;
    const NodeMetrics* stage1 = nullptr;
    for (const auto& n : st.metrics->nodes) {
        if (n.path == "stage0")
            stage0 = &n;
        if (n.path == "stage1")
            stage1 = &n;
    }
    ASSERT_NE(stage0, nullptr);
    ASSERT_NE(stage1, nullptr);
    EXPECT_EQ(stage0->elemsIn(), in.size());
    EXPECT_EQ(stage0->elemsOut(), in.size());
    EXPECT_EQ(stage1->elemsOut(), st.emitted);
}

TEST(Threaded, RestartRecoversFromTransientSourceThrow)
{
    // A one-shot source throw with a restart budget: the run must come
    // back and finish the stream.  Threaded restart may drop whatever
    // was in flight in the stage queues at teardown, but never more,
    // and never reorders or duplicates.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.queueCapacity = 8;
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(10)), opt);

    const size_t N = 100;
    std::vector<int32_t> in(N);
    for (size_t i = 0; i < N; ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@10"));
    VecSink sink(4);

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();
    uint64_t exhausted0 = reg.counter("restart.exhausted").value();

    RunStats st = p->run(src, sink);  // must not throw
    (void)st;

    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 1);
    EXPECT_EQ(reg.counter("restart.exhausted").value(), exhausted0);
    EXPECT_EQ(src.fired(), 1u);

    // Bounded loss: at most the queue capacity plus the two stages'
    // in-flight elements can vanish across the restart.
    std::vector<int32_t> got(sink.data().size() / 4);
    std::memcpy(got.data(), sink.data().data(), sink.data().size());
    ASSERT_GE(got.size(), N - (8 + 2));
    for (size_t i = 1; i < got.size(); ++i)
        ASSERT_LT(got[i - 1], got[i]) << "output reordered at " << i;
    for (int32_t v : got) {
        EXPECT_GE(v, in.front() + 11);  // every value is some in[i] + 11
        EXPECT_LE(v, in.back() + 11);
    }
    EXPECT_EQ(got.back(), in.back() + 11)
        << "the post-fault tail of the stream was not processed";
}

TEST(Threaded, RestartBudgetExhaustionCarriesHistory)
{
    // throw@10:0 fires on EVERY attempt (count 0 = permanent fault):
    // the supervisor must spend exactly maxRestarts retries, then
    // rethrow with the attempt history and the exhausted marker.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 2;
    opt.restart.backoffInitialMs = 1;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(10)), opt);

    std::vector<int32_t> in(64, 7);
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@10:0"));
    NullSink sink;

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();
    uint64_t exhausted0 = reg.counter("restart.exhausted").value();

    try {
        p->run(src, sink);
        FAIL() << "permanent fault must exhaust the restart budget";
    } catch (const StageFailureError& e) {
        const StageFailure& f = e.failure();
        EXPECT_TRUE(f.restartsExhausted);
        EXPECT_EQ(f.restarts.size(), 2u);
        EXPECT_EQ(f.cause, FailureCause::Exception);
        for (const RestartAttempt& a : f.restarts) {
            EXPECT_EQ(a.cause, FailureCause::Exception);
            EXPECT_NE(a.message.find("injected fault"), std::string::npos);
        }
        EXPECT_NE(std::string(e.what()).find("restart"),
                  std::string::npos);
    }
    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 2);
    EXPECT_EQ(reg.counter("restart.exhausted").value(), exhausted0 + 1);
    EXPECT_EQ(src.fired(), 3u);  // initial attempt + two retries
}

TEST(SpscQueue, UncancelKeepsBacklogAndReenablesTraffic)
{
    // uncancel() is how a threaded restart re-arms every queue: the
    // teardown latches (every stage closes its output queue and the
    // driver cancels everything on the way out) must clear, but the
    // backlog is part of the stream and must survive.
    SpscQueue q(4, 4);
    uint32_t a = 7, b = 8, v = 0;
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&a)));
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&b)));
    q.close();
    q.cancel();
    ASSERT_EQ(q.popWait(reinterpret_cast<uint8_t*>(&v), 0),
              QueueWait::Cancelled);

    q.uncancel();

    EXPECT_FALSE(q.closed());
    EXPECT_FALSE(q.cancelled());
    EXPECT_EQ(q.size(), 2u);  // backlog preserved, in order
    ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    EXPECT_EQ(v, 7u);
    ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    EXPECT_EQ(v, 8u);
    uint32_t c = 9;
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&c)));
    ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    EXPECT_EQ(v, 9u);
}

namespace {

/** letvar acc = 0; repeat { x <- take; acc += x; emit acc } */
CompPtr
runningSum()
{
    VarRef acc = freshVar("acc", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    return letvar(
        acc, cInt(0),
        repeatc(seqc({bindc(x, take(Type::int32())),
                      just(doS({assign(var(acc), var(acc) + var(x))})),
                      just(emit(var(acc)))})));
}

std::vector<int32_t>
sinkInts(const VecSink& sink)
{
    std::vector<int32_t> got(sink.data().size() / 4);
    std::memcpy(got.data(), sink.data().data(), sink.data().size());
    return got;
}

} // namespace

/** Restart policy shared by the per-stage tests below. */
CompilerOptions
stageScoped(Backend be, int maxRestarts)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.backend = be;
    opt.queueCapacity = 8;
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = maxRestarts;
    opt.restart.backoffInitialMs = 1;
    return opt;
}

void
checkStageRestartPreservesDownstreamState(Backend be)
{
    // Source throws twice (throw@10:2 — the fault clock survives the
    // restart, so it re-fires on the very next read).  Only stage 0
    // heals; the downstream running-sum stage keeps its live
    // accumulator across BOTH restarts, so the output stays strictly
    // monotone.  Resetting the accumulator would make it dip.
    SCOPED_TRACE(backendName(be));
    auto p = compileThreadedPipeline(ppipe(incBlock(1), runningSum()),
                                     stageScoped(be, 4));

    const size_t N = 100;
    std::vector<int32_t> in(N);
    for (size_t i = 0; i < N; ++i)
        in[i] = static_cast<int32_t>(i);  // stage 0 emits 1..N
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@10:2"));
    VecSink sink(4);

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.stage.attempts").value();
    uint64_t restored0 = reg.counter("restart.stage.restored").value();

    p->run(src, sink);  // must not throw

    // Two heals of stage 0, both resets: without a cadence there is no
    // snapshot to restore.
    EXPECT_EQ(reg.counter("restart.stage.attempts").value(),
              attempts0 + 2);
    EXPECT_EQ(reg.counter("restart.stage.restored").value(), restored0);
    EXPECT_EQ(src.fired(), 2u);

    std::vector<int32_t> got = sinkInts(sink);
    // At most one queue's backlog plus in-flight elements may vanish
    // per restart.
    ASSERT_GE(got.size(), N - 2 * (8 + 2));
    for (size_t i = 1; i < got.size(); ++i)
        ASSERT_LT(got[i - 1], got[i])
            << "accumulator state was lost across a restart (output "
               "dipped at index " << i << ")";
    // Each output is prev + the delivered value, so the final gap IS
    // the last delivered value: the post-fault tail reached the sink.
    ASSERT_GE(got.size(), 2u);
    EXPECT_EQ(got.back() - got[got.size() - 2],
              static_cast<int32_t>(N));
}

void
checkStageRestartResetsOnlyTheFailedStage(Backend be)
{
    // A data-poisoned MIDDLE stage: 7/(x-10) faults when the running
    // sum hits 10.  The restart plain-resets the (stateless) failed
    // stage, dropping the poisoned element it consumed — no cadence, so
    // restored must NOT bump — while the upstream accumulator keeps its
    // state.  Every input is
    // consumed by stage 0 exactly once, so the last sum to reach the
    // sink is the full-series total: proof the accumulator was neither
    // reset nor double-fed.
    SCOPED_TRACE(backendName(be));
    VarRef x = freshVar("x", Type::int32());
    CompPtr poison = repeatc(seqc(
        {bindc(x, take(Type::int32())),
         just(emit(var(x) + cInt(0) * (cInt(7) / (var(x) - 10))))}));
    auto p = compileThreadedPipeline(
        ppipe(ppipe(runningSum(), std::move(poison)), incBlock(0)),
        stageScoped(be, 3));

    const int32_t N = 60;
    std::vector<int32_t> in(static_cast<size_t>(N));
    for (int32_t i = 0; i < N; ++i)
        in[static_cast<size_t>(i)] = i + 1;  // sums: 1,3,6,10,15,...
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.stage.attempts").value();
    uint64_t restored0 = reg.counter("restart.stage.restored").value();

    p->run(src, sink);  // must not throw

    EXPECT_EQ(reg.counter("restart.stage.attempts").value(),
              attempts0 + 1);
    EXPECT_EQ(reg.counter("restart.stage.restored").value(), restored0);

    std::vector<int32_t> got = sinkInts(sink);
    ASSERT_FALSE(got.empty());
    for (size_t i = 1; i < got.size(); ++i)
        ASSERT_LT(got[i - 1], got[i])
            << "upstream accumulator was reset (output dipped at "
            << i << ")";
    EXPECT_EQ(got.back(), N * (N + 1) / 2);
}

/**
 * Threaded restart under a checkpoint cadence: stages 0 and 2 of
 * sum |>>>| inc |>>>| sum keep running sums in frame cells, and
 * @p fault fails the source (or, with @p atSink, the sink feeding the
 * stateful last stage) @p heals times.  Each failed stage restores its
 * last cadence snapshot, replays its journal and swallows the outputs
 * its consumer already holds, so the sink sees exactly the
 * single-threaded output and RunStats the clean run's counts.
 */
void
checkCheckpointedRestart(Backend be, const char* fault, bool atSink,
                         double deadlineMs, uint64_t heals)
{
    SCOPED_TRACE(std::string(backendName(be)) + " " + fault +
                 (atSink ? " at the sink" : " at the source"));
    auto mk = [](bool threaded) {
        CompPtr a = runningSum();
        CompPtr b = incBlock(1);
        CompPtr c = runningSum();
        return threaded
            ? ppipe(ppipe(std::move(a), std::move(b)), std::move(c))
            : pipe(pipe(std::move(a), std::move(b)), std::move(c));
    };
    CompilerOptions opt = stageScoped(be, 3);
    opt.checkpoint.interval = 16;
    opt.stallDeadlineMs = deadlineMs;
    auto p = compileThreadedPipeline(mk(true), opt);

    std::vector<int32_t> in(300);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i % 7);
    auto bytes = intBytes(in);
    CompilerOptions solo = CompilerOptions::forLevel(OptLevel::None);
    solo.backend = be;
    RunStats clean;
    auto expect = compilePipeline(mk(false), solo)->runBytes(bytes, &clean);

    const FaultSpec spec = FaultSpec::parse(fault);
    MemSource mem(bytes, 4);
    FaultySource src(mem, atSink ? FaultSpec{} : spec);
    VecSink vec(4);
    FaultySink sink(vec, atSink ? spec : FaultSpec{});

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.stage.attempts").value();
    uint64_t restored0 = reg.counter("restart.stage.restored").value();

    RunStats st = p->run(src, sink);  // must not throw

    EXPECT_EQ(vec.data(), expect);
    EXPECT_EQ(st.consumed, clean.consumed);
    EXPECT_EQ(st.emitted, clean.emitted);
    EXPECT_EQ(reg.counter("restart.stage.attempts").value(),
              attempts0 + heals);
    EXPECT_EQ(reg.counter("restart.stage.restored").value(),
              restored0 + heals)
        << "a failed stage was reset instead of restored";
}

namespace {

/**
 * Int source for the batch-carry tests: element 0 comes at once, in a
 * window of its own, the rest after a 60 ms pause (so element 0's
 * outputs cross the queues on their own), and asking for element
 * @p throwAt throws once without consuming it.
 */
class PausingSource : public InputSource
{
  public:
    PausingSource(const std::vector<uint8_t>& bytes, size_t throwAt)
        : bytes_(bytes), throwAt_(throwAt)
    {
    }

    const uint8_t*
    window(size_t* n) override
    {
        const size_t i = pos_ / 4;
        if (i == 1 && !paused_) {
            paused_ = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(60));
        }
        if (i == throwAt_ && !thrown_) {
            thrown_ = true;
            throw std::runtime_error("transient source fault");
        }
        if (pos_ >= bytes_.size())
            return nullptr;
        // Windows end at the pause and at the throw.
        size_t end = bytes_.size() / 4;
        if (i == 0)
            end = 1;
        else if (i < throwAt_ && !thrown_)
            end = std::min(end, throwAt_);
        *n = end - i;
        return bytes_.data() + pos_;
    }

    void commit(size_t n) override { pos_ += 4 * n; }

  private:
    const std::vector<uint8_t>& bytes_;
    size_t throwAt_;
    size_t pos_ = 0;
    bool paused_ = false;
    bool thrown_ = false;
};

/**
 * Sink for the batch-carry tests: the first run sleeps 150 ms, which
 * lets the upstream fill the last stage's input queue, and the run that
 * holds the third element blocks until the run is torn down, with the
 * last stage inside its drive.  A blocked run is still taken whole.
 */
class StallingSink : public OutputSink
{
  public:
    void
    putRun(const uint8_t* e, size_t n, size_t width) override
    {
        if (runs_++ == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
        if (elems_ <= 2 && elems_ + n > 2) {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] { return cancelled_; });
        }
        elems_ += n;
        data_.insert(data_.end(), e, e + n * width);
    }

    void
    cancel() override
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            cancelled_ = true;
        }
        cv_.notify_all();
    }

    void
    rearm() override
    {
        std::lock_guard<std::mutex> lk(mu_);
        cancelled_ = false;
    }

    const std::vector<uint8_t>& data() const { return data_; }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool cancelled_ = false;
    size_t runs_ = 0;
    size_t elems_ = 0;
    std::vector<uint8_t> data_;
};

/** repeat { x <- take; emit 8x; emit 8x+1; ... emit 8x+7 } */
CompPtr
fanOut8()
{
    VarRef x = freshVar("x", Type::int32());
    std::vector<SeqComp::Item> items;
    items.push_back(bindc(x, take(Type::int32())));
    for (int32_t k = 0; k < 8; ++k)
        items.push_back(just(emit(var(x) * cInt(8) + cInt(k))));
    return repeatc(seqc(std::move(items)));
}

/**
 * Stage 0 of @p mk(true) throws once, transiently, at input 8, under a
 * stage-scoped restart with a watchdog.  By then stage 0's output queue
 * is drained, and the downstream stages hold work that a restart of
 * stage 0 must not touch: the last stage is blocked in the sink
 * delivering the run it made from a popped batch, and in the
 * four-stage shape the fan-out stage is blocked pushing a batch of
 * outputs into the full queue behind it.  The watchdog tears the run down, the stage-0 failure
 * wins, and the resumed run must deliver exactly what an uninterrupted
 * run does.
 */
void
checkBatchesSurviveStageZeroRestart(
    const std::function<CompPtr(bool threaded)>& mk)
{
    CompilerOptions opt = stageScoped(Backend::Vm, 2);
    opt.stallDeadlineMs = 300;  // longer than the sink's first sleep
    auto p = compileThreadedPipeline(mk(true), opt);

    std::vector<int32_t> in(20);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    auto expect = compilePipeline(
        mk(false), CompilerOptions::forLevel(OptLevel::None))
        ->runBytes(bytes);

    PausingSource src(bytes, 8);
    StallingSink sink;
    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.stage.attempts").value();

    p->run(src, sink);  // must not throw

    EXPECT_EQ(reg.counter("restart.stage.attempts").value(),
              attempts0 + 1);
    EXPECT_EQ(sink.data(), expect)
        << "a batch held by a stage next to a healthy queue was lost "
           "across the restart of stage 0";
}

} // namespace

TEST(Threaded, StageRestartKeepsPoppedBatchOfNonAdjacentStage)
{
    checkBatchesSurviveStageZeroRestart([](bool threaded) {
        CompPtr a = incBlock(1);
        CompPtr b = incBlock(10);
        CompPtr c = incBlock(100);
        return threaded
            ? ppipe(ppipe(std::move(a), std::move(b)), std::move(c))
            : pipe(pipe(std::move(a), std::move(b)), std::move(c));
    });
}

TEST(Threaded, StageRestartRepushesUnflushedOutputsInOrder)
{
    checkBatchesSurviveStageZeroRestart([](bool threaded) {
        CompPtr a = incBlock(1);
        CompPtr b = incBlock(10);
        CompPtr c = fanOut8();
        CompPtr d = incBlock(100);
        return threaded
            ? ppipe(ppipe(ppipe(std::move(a), std::move(b)), std::move(c)),
                    std::move(d))
            : pipe(pipe(pipe(std::move(a), std::move(b)), std::move(c)),
                   std::move(d));
    });
}

TEST(Threaded, HaltedStageRepushesOutputsHeldAtTeardown)
{
    // Stage 0 takes one element, emits 40 and halts in one run of its
    // node, but the queue holds 8: it is still pushing that run when the
    // sink throws under the last stage, which cancels the queue.  The
    // halted stage keeps the unpushed rest and must push it in the next
    // attempt, or the healed run ends short.
    auto mk = [](bool threaded) {
        VarRef x = freshVar("x", Type::int32());
        std::vector<SeqComp::Item> items;
        items.push_back(bindc(x, take(Type::int32())));
        for (int32_t k = 0; k < 40; ++k)
            items.push_back(just(emit(var(x) * cInt(40) + cInt(k))));
        CompPtr burst = seqc(std::move(items));
        return threaded ? ppipe(std::move(burst), incBlock(100))
                        : pipe(std::move(burst), incBlock(100));
    };
    for (Backend be : kAllBackends) {
        if (nativeUnavailable(be))
            continue;
        SCOPED_TRACE(backendName(be));
        CompilerOptions opt = stageScoped(be, 2);
        opt.checkpoint.interval = 4;
        auto p = compileThreadedPipeline(mk(true), opt);
        auto bytes = intBytes({3, 4});
        auto expect = compilePipeline(
            mk(false), CompilerOptions::forLevel(OptLevel::None))
            ->runBytes(bytes);
        ASSERT_EQ(expect.size(), 40u * 4);

        MemSource mem(bytes, 4);
        VecSink vec(4);
        FaultySink sink(vec, FaultSpec::parse("throw@3"));
        auto& reg = metrics::Registry::global();
        uint64_t attempts0 = reg.counter("restart.stage.attempts").value();

        RunStats st = p->run(mem, sink);  // must not throw

        EXPECT_TRUE(st.halted);
        EXPECT_EQ(sink.fired(), 1u);
        EXPECT_EQ(reg.counter("restart.stage.attempts").value(),
                  attempts0 + 1);
        EXPECT_EQ(vec.data(), expect)
            << "outputs a halted stage held at teardown were lost";
    }
}

TEST(Threaded, StageScopedRestartPreservesDownstreamState)
{
    for (Backend be : kAllBackends)
        if (!nativeUnavailable(be))
            checkStageRestartPreservesDownstreamState(be);
}

TEST(Threaded, StageScopedRestartResetsOnlyTheFailedStage)
{
    for (Backend be : kAllBackends)
        if (!nativeUnavailable(be))
            checkStageRestartResetsOnlyTheFailedStage(be);
}

TEST(Threaded, CheckpointedRestartIsByteIdentical)
{
    for (Backend be : kAllBackends) {
        if (nativeUnavailable(be))
            continue;
        checkCheckpointedRestart(be, "throw@100", false, 0, 1);
        checkCheckpointedRestart(be, "throw@100:2", false, 0, 2);
        checkCheckpointedRestart(be, "throw@100", true, 0, 1);
        checkCheckpointedRestart(be, "stall@100:30000", false, 200, 1);
        checkCheckpointedRestart(be, "stall@100:30000", true, 200, 1);
    }
}

TEST(Threaded, RepeatedRunsReuseThePipeline)
{
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in{5, 6, 7};
    auto bytes = intBytes(in);
    for (int round = 0; round < 3; ++round) {
        MemSource src(bytes, 4);
        VecSink sink(4);
        RunStats st = p->run(src, sink);
        EXPECT_EQ(st.emitted, 3u);
        std::vector<int32_t> got(3);
        std::memcpy(got.data(), sink.data().data(), 12);
        EXPECT_EQ(got, (std::vector<int32_t>{8, 9, 10}));
    }
}

} // namespace
} // namespace ziria
