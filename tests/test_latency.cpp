/**
 * @file
 * Latency observability tests (ctest label `latency`): frame-span
 * accounting (open/close thresholds, truncated tails, expanding
 * ratios, SLO budget counters, restart re-basing), the chrome://tracing
 * timeline export (JSON well-formedness and Perfetto schema), and the
 * live-introspection Stat frame round-trip against a real server over
 * loopback TCP — including span accounting across a supervised
 * per-session restart.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/metrics.h"
#include "support/rng.h"
#include "support/timeline.h"
#include "zexec/faultpoint.h"
#include "zexec/span.h"
#include "zir/compiler.h"
#include "zparse/parser.h"
#include "zserve/server.h"
#include "zserve/socket.h"
#include "zserve/wire.h"

namespace ziria {
namespace {

// ------------------------------------------------- tiny JSON validator

/**
 * Minimal recursive-descent JSON syntax check — enough to guarantee a
 * document chrome://tracing or any standard parser will load, without
 * pulling a JSON library into the tree.
 */
struct JsonCheck
{
    const std::string& s;
    size_t i = 0;

    explicit JsonCheck(const std::string& text) : s(text) {}

    void
    ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                                s[i] == '\n' || s[i] == '\r'))
            ++i;
    }

    bool
    lit(const char* word)
    {
        size_t n = std::strlen(word);
        if (s.compare(i, n, word) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        for (++i; i < s.size(); ++i) {
            if (s[i] == '\\') {
                ++i;
                continue;
            }
            if (s[i] == '"') {
                ++i;
                return true;
            }
        }
        return false;
    }

    bool
    number()
    {
        size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            ++i;
        return i > start;
    }

    bool
    value()
    {
        ws();
        if (i >= s.size())
            return false;
        switch (s[i]) {
          case '{': {
            ++i;
            ws();
            if (i < s.size() && s[i] == '}') {
                ++i;
                return true;
            }
            for (;;) {
                ws();
                if (!string())
                    return false;
                ws();
                if (i >= s.size() || s[i] != ':')
                    return false;
                ++i;
                if (!value())
                    return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                if (i < s.size() && s[i] == '}') {
                    ++i;
                    return true;
                }
                return false;
            }
          }
          case '[': {
            ++i;
            ws();
            if (i < s.size() && s[i] == ']') {
                ++i;
                return true;
            }
            for (;;) {
                if (!value())
                    return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                if (i < s.size() && s[i] == ']') {
                    ++i;
                    return true;
                }
                return false;
            }
          }
          case '"':
            return string();
          case 't':
            return lit("true");
          case 'f':
            return lit("false");
          case 'n':
            return lit("null");
          default:
            return number();
        }
    }

    static bool
    valid(const std::string& text)
    {
        JsonCheck p(text);
        if (!p.value())
            return false;
        p.ws();
        return p.i == text.size();
    }
};

TEST(JsonCheckSelfTest, AcceptsAndRejects)
{
    EXPECT_TRUE(JsonCheck::valid("{\"a\":[1,2.5,-3e2],\"b\":\"x\\\"y\"}"));
    EXPECT_TRUE(JsonCheck::valid("{}"));
    EXPECT_FALSE(JsonCheck::valid("{\"a\":}"));
    EXPECT_FALSE(JsonCheck::valid("{\"a\":1,}"));
    EXPECT_FALSE(JsonCheck::valid("{\"a\":1} trailing"));
}

// ------------------------------------------------------- shared helpers

namespace sv = serve;

const char* kScramblerSrc = R"(
let comp scrambler() =
    var scrmbl_st : arr[7] bit := {'1,'1,'1,'1,'1,'1,'1} in
    repeat {
        seq { (x : bit) <- take : bit
            ; (tmp : bit) <- return (scrmbl_st[3] ^ scrmbl_st[0])
            ; do { scrmbl_st[0, 6] := scrmbl_st[1, 6];
                   scrmbl_st[6] := tmp; }
            ; emit (x ^ tmp)
            }
    }

scrambler()
)";

sv::Server::PipelineFactory
scramblerFactory(uint32_t maxRestarts = 0)
{
    CompPtr program = parseComp(kScramblerSrc);
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    if (maxRestarts > 0) {
        opt.restart.mode = RestartMode::OnFailure;
        opt.restart.maxRestarts = maxRestarts;
        opt.restart.backoffInitialMs = 1;
    }
    return [program, opt](uint64_t) {
        return compilePipeline(program, opt, nullptr);
    };
}

std::vector<uint8_t>
randomBits(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out)
        b = rng.bit();
    return out;
}

bool
waitFor(const std::function<bool()>& cond, int ms = 3000)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cond();
}

// ------------------------------------------------ span-frame accounting

TEST(SpanAccounting, ClosesFramesAtExpectedOutputCounts)
{
    SpanConfig cfg;
    cfg.frameElems = 4;
    SpanTracker t(cfg);
    for (int k = 0; k < 16; ++k)
        t.onInput();
    for (int k = 0; k < 16; ++k)
        t.onOutput();
    SpanTracker::Snapshot s = t.snapshot();
    EXPECT_EQ(s.completed, 4u);
    EXPECT_EQ(s.open, 0u);
    EXPECT_EQ(s.aborted, 0u);
    EXPECT_EQ(s.latencyNs.count(), 4u);
}

TEST(SpanAccounting, TruncatedTailFrameStaysOpen)
{
    SpanConfig cfg;
    cfg.frameElems = 4;
    SpanTracker t(cfg);
    // 10 inputs open frames at elements 0, 4, 8; 10 outputs satisfy the
    // first two thresholds (4 and 8) but not the third (12).
    for (int k = 0; k < 10; ++k)
        t.onInput();
    for (int k = 0; k < 10; ++k)
        t.onOutput();
    t.flush();  // must NOT close the partial tail
    SpanTracker::Snapshot s = t.snapshot();
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.open, 1u);
}

TEST(SpanAccounting, ExpandingPipelineUsesOutPerIn)
{
    SpanConfig cfg;
    cfg.frameElems = 4;
    cfg.outPerIn = 2.0;  // frame of 4 inputs completes after 8 outputs
    SpanTracker t(cfg);
    for (int k = 0; k < 4; ++k)
        t.onInput();
    for (int k = 0; k < 7; ++k)
        t.onOutput();
    EXPECT_EQ(t.snapshot().completed, 0u);
    t.onOutput();
    EXPECT_EQ(t.snapshot().completed, 1u);
}

TEST(SpanAccounting, BudgetCountersSplitMetAndMissed)
{
    // Generous budget: everything lands under it.
    SpanConfig loose;
    loose.frameElems = 2;
    loose.budgetNs = 10ull * 1000 * 1000 * 1000;
    SpanTracker lt(loose);
    for (int k = 0; k < 4; ++k)
        lt.onInput();
    for (int k = 0; k < 4; ++k)
        lt.onOutput();
    SpanTracker::Snapshot ls = lt.snapshot();
    EXPECT_EQ(ls.budgetMet, 2u);
    EXPECT_EQ(ls.budgetMissed, 0u);

    // 1 ms budget with a deliberate 5 ms stall inside the frame.
    SpanConfig tight;
    tight.frameElems = 2;
    tight.budgetNs = 1000 * 1000;
    SpanTracker tt(tight);
    tt.onInput();
    tt.onInput();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tt.onOutput();
    tt.onOutput();
    SpanTracker::Snapshot ts = tt.snapshot();
    EXPECT_EQ(ts.budgetMet, 0u);
    EXPECT_EQ(ts.budgetMissed, 1u);
}

TEST(SpanAccounting, RestartAbortsOpenSpansAndRebases)
{
    SpanConfig cfg;
    cfg.frameElems = 4;
    SpanTracker t(cfg);
    // Two frames open (elements 0 and 4), neither closed yet.
    for (int k = 0; k < 6; ++k)
        t.onInput();
    t.onOutput();
    t.onOutput();
    t.onRestart();
    SpanTracker::Snapshot s = t.snapshot();
    EXPECT_EQ(s.aborted, 2u);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.open, 0u);

    // The new epoch is based on the current counters: the next 8
    // inputs and 8 outputs must complete exactly two fresh frames.
    for (int k = 0; k < 8; ++k)
        t.onInput();
    for (int k = 0; k < 8; ++k)
        t.onOutput();
    s = t.snapshot();
    EXPECT_EQ(s.aborted, 2u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.open, 0u);
}

TEST(SpanAccounting, CountFormMatchesSingleCalls)
{
    // onInput(n) and onOutput(n) open and close exactly the frames n
    // single calls do, across frame boundaries and a restart.
    SpanConfig cfg;
    cfg.frameElems = 4;
    cfg.outPerIn = 1.5;
    SpanTracker runs(cfg), single(cfg);
    auto expectSame = [&] {
        SpanTracker::Snapshot a = runs.snapshot(), b = single.snapshot();
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.open, b.open);
        EXPECT_EQ(a.aborted, b.aborted);
        EXPECT_EQ(a.latencyNs.count(), b.latencyNs.count());
    };
    for (int round = 0; round < 2; ++round) {
        for (uint64_t n : {1, 3, 7, 4, 0, 9, 2, 13}) {
            runs.onInput(n);
            for (uint64_t k = 0; k < n; ++k)
                single.onInput();
            expectSame();
            runs.onOutput(n);
            for (uint64_t k = 0; k < n; ++k)
                single.onOutput();
            expectSame();
        }
        runs.onRestart();
        single.onRestart();
        expectSame();
    }
    EXPECT_GT(single.snapshot().completed, 4u);
    EXPECT_GT(single.snapshot().aborted, 0u);
}

TEST(SpanAccounting, MergeIntoRegistryWritesFrameAndBudgetCounters)
{
    auto& reg = metrics::Registry::global();
    auto frames0 = reg.counter("tl.test.frames").value();
    auto met0 = reg.counter("tl.test.budget.met").value();

    SpanConfig cfg;
    cfg.frameElems = 2;
    cfg.budgetNs = 10ull * 1000 * 1000 * 1000;
    SpanTracker t(cfg);
    for (int k = 0; k < 6; ++k)
        t.onInput();
    for (int k = 0; k < 6; ++k)
        t.onOutput();
    t.mergeInto(reg, "tl.test");

    EXPECT_EQ(reg.counter("tl.test.frames").value(), frames0 + 3);
    EXPECT_EQ(reg.counter("tl.test.budget.met").value(), met0 + 3);
}

// The tracker attached to a real compiled pipeline: every frame of a
// rate-1 program completes, and the percentile fields serialize.
TEST(SpanAccounting, TracksACompiledPipelineEndToEnd)
{
    auto p = scramblerFactory()(0);
    size_t w = std::max<size_t>(p->inWidth(), 1);
    auto input = randomBits(256 * w, 7);

    SpanConfig cfg;
    cfg.frameElems = 64;
    auto spans = std::make_shared<SpanTracker>(cfg);
    p->setSpans(spans);
    MemSource msrc(input, w);
    VecSink sink(p->outWidth());
    p->run(msrc, sink);
    p->setSpans(nullptr);

    SpanTracker::Snapshot s = spans->snapshot();
    EXPECT_EQ(s.completed, 4u);  // 256 elements / 64 per frame
    EXPECT_EQ(s.open, 0u);
    EXPECT_GE(s.latencyNs.percentile(0.999),
              s.latencyNs.percentile(0.50));

    metrics::JsonWriter jw;
    jw.beginObject();
    spans->writeJson(jw, "latency");
    jw.endObject();
    EXPECT_TRUE(JsonCheck::valid(jw.str())) << jw.str();
    EXPECT_NE(jw.str().find("\"p999\""), std::string::npos);
}

// ------------------------------------------------------ timeline export

TEST(Timeline, JsonIsWellFormedAndPerfettoShaped)
{
    timeline::Recorder rec;
    rec.nameTrack(1, "main");
    rec.complete("stage", "scrambler", 1000, 5000, 1);
    rec.instant("restart", "attempt 1", 9000, 1);

    std::string j = rec.toJson();
    ASSERT_TRUE(JsonCheck::valid(j)) << j;
    // The traceEvents schema chrome://tracing and Perfetto load.
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(j.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(j.find("\"dur\""), std::string::npos);
    EXPECT_NE(j.find("\"pid\""), std::string::npos);
    EXPECT_NE(j.find("\"tid\""), std::string::npos);
}

TEST(Timeline, WriteFileIsAtomicAndLeavesNoTemp)
{
    timeline::Recorder rec;
    rec.complete("stage", "s", 0, 10, 1);
    std::string path = ::testing::TempDir() + "ziria_timeline_test.json";
    ASSERT_TRUE(rec.writeFile(path));

    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string body;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        body.append(buf, n);
    std::fclose(f);
    while (!body.empty() && body.back() == '\n')
        body.pop_back();
    EXPECT_TRUE(JsonCheck::valid(body)) << body;

    EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);
    std::remove(path.c_str());
}

TEST(Timeline, BoundedBufferCountsDrops)
{
    timeline::Recorder rec(2);
    rec.complete("c", "a", 0, 1, 1);
    rec.complete("c", "b", 1, 1, 1);
    rec.complete("c", "dropped", 2, 1, 1);
    EXPECT_EQ(rec.eventCount(), 2u);
    EXPECT_EQ(rec.dropped(), 1u);
    std::string j = rec.toJson();
    EXPECT_TRUE(JsonCheck::valid(j)) << j;
    EXPECT_NE(j.find("\"dropped_events\":1"), std::string::npos);
}

TEST(Timeline, SpanTrackerEmitsFrameSlicesAndRestartInstants)
{
    timeline::Recorder rec;
    timeline::setActive(&rec);
    {
        SpanConfig cfg;
        cfg.frameElems = 4;
        cfg.name = "tltest";
        SpanTracker t(cfg);
        for (int k = 0; k < 8; ++k)
            t.onInput();
        for (int k = 0; k < 8; ++k)
            t.onOutput();
        t.onInput();  // opens frame 2, which the restart aborts
        t.onRestart();
    }
    timeline::setActive(nullptr);

    std::string j = rec.toJson();
    ASSERT_TRUE(JsonCheck::valid(j)) << j;
    EXPECT_NE(j.find("\"tltest frames\""), std::string::npos);
    EXPECT_NE(j.find("\"tltest frame 0\""), std::string::npos);
    EXPECT_NE(j.find("\"tltest frame 1\""), std::string::npos);
    EXPECT_NE(j.find("\"tltest frame 2 aborted\""), std::string::npos);
    EXPECT_NE(j.find("\"cat\":\"frame\""), std::string::npos);
    EXPECT_NE(j.find("\"cat\":\"restart\""), std::string::npos);
}

// --------------------------------------------- Stat frame, live server

/** Miniature wire client (the shape tools/zclient.cpp uses). */
struct StatClient
{
    sv::SockFd sock;
    sv::FrameParser parser;
    sv::HelloInfo hello;
    std::string statDoc;
    std::string errorMsg;
    bool sawEnd = false;
    bool sawError = false;

    bool
    readFrame(sv::Frame& f)
    {
        uint8_t buf[16 * 1024];
        for (;;) {
            sv::FrameParser::Result r = parser.next(f);
            if (r == sv::FrameParser::Result::Frame)
                return true;
            if (r == sv::FrameParser::Result::Error)
                return false;
            long n = sv::recvSome(sock.get(), buf, sizeof buf);
            if (n > 0) {
                parser.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n != -1)
                return false;
        }
    }

    bool
    connect(uint16_t port)
    {
        sock = sv::connectTcp("127.0.0.1", port);
        if (sock.get() < 0)
            return false;
        sv::Frame f;
        if (!readFrame(f))
            return false;
        return f.type == sv::FrameType::Hello &&
               sv::decodeHello(f.payload, hello);
    }

    bool
    send(sv::FrameType type, const uint8_t* data = nullptr, size_t n = 0)
    {
        std::vector<uint8_t> wire;
        sv::encodeFrame(wire, type, data, n);
        return sv::sendAll(sock.get(), wire.data(), wire.size());
    }

    void
    drain()
    {
        sv::Frame f;
        while (readFrame(f)) {
            switch (f.type) {
              case sv::FrameType::Stat:
                statDoc.assign(f.payload.begin(), f.payload.end());
                break;
              case sv::FrameType::End:
                sawEnd = true;
                return;
              case sv::FrameType::Error:
                sawError = true;
                errorMsg.assign(f.payload.begin(), f.payload.end());
                return;
              default:
                break;
            }
        }
    }
};

TEST(StatFrame, RoundTripReturnsLiveJsonDocument)
{
    auto factory = scramblerFactory();
    sv::ServerConfig cfg;
    cfg.workers = 1;
    cfg.session.trackLatency = true;
    cfg.session.span.frameElems = 64;
    sv::Server server(factory, cfg);
    server.start();

    StatClient c;
    ASSERT_TRUE(c.connect(server.port()));
    auto input = randomBits(1024 * c.hello.inWidth, 91);
    ASSERT_TRUE(c.send(sv::FrameType::Data, input.data(), input.size()));
    ASSERT_TRUE(c.send(sv::FrameType::Stat));
    ASSERT_TRUE(c.send(sv::FrameType::End));
    c.drain();

    EXPECT_TRUE(c.sawEnd);
    EXPECT_FALSE(c.sawError) << c.errorMsg;
    ASSERT_FALSE(c.statDoc.empty());
    EXPECT_TRUE(JsonCheck::valid(c.statDoc)) << c.statDoc;
    EXPECT_NE(c.statDoc.find("\"ts_ns\""), std::string::npos);
    EXPECT_NE(c.statDoc.find("\"server\""), std::string::npos);
    EXPECT_NE(c.statDoc.find("\"session\""), std::string::npos);
    EXPECT_NE(c.statDoc.find("\"latency\""), std::string::npos);
    EXPECT_NE(c.statDoc.find("\"registry\""), std::string::npos);

    EXPECT_TRUE(waitFor([&] { return server.counters().completed == 1; }));
    server.stop();
}

TEST(StatFrame, StatWithPayloadIsAProtocolError)
{
    auto factory = scramblerFactory();
    sv::ServerConfig cfg;
    cfg.workers = 1;
    sv::Server server(factory, cfg);
    server.start();

    StatClient c;
    ASSERT_TRUE(c.connect(server.port()));
    uint8_t junk[3] = {1, 2, 3};
    ASSERT_TRUE(c.send(sv::FrameType::Stat, junk, sizeof junk));
    c.drain();

    EXPECT_TRUE(c.sawError);
    EXPECT_NE(c.errorMsg.find("Stat"), std::string::npos) << c.errorMsg;
    EXPECT_TRUE(waitFor([&] { return server.counters().evicted == 1; }));
    server.stop();
}

TEST(StatFrame, CompletedSessionMergesLatencyIntoRegistry)
{
    auto& reg = metrics::Registry::global();
    auto frames0 = reg.counter("server.latency.frames").value();
    auto count0 = reg.histogram("server.latency.e2e_ns").count();

    auto factory = scramblerFactory();
    sv::ServerConfig cfg;
    cfg.workers = 1;
    cfg.session.trackLatency = true;
    cfg.session.span.frameElems = 64;
    sv::Server server(factory, cfg);
    server.start();

    StatClient c;
    ASSERT_TRUE(c.connect(server.port()));
    auto input = randomBits(512 * c.hello.inWidth, 92);
    ASSERT_TRUE(c.send(sv::FrameType::Data, input.data(), input.size()));
    ASSERT_TRUE(c.send(sv::FrameType::End));
    c.drain();
    ASSERT_TRUE(c.sawEnd);
    EXPECT_TRUE(waitFor([&] { return server.counters().completed == 1; }));
    server.stop();

    // closeNow flushed and merged the session tracker: 512 elements at
    // 64 per frame is 8 completed spans.
    EXPECT_EQ(reg.counter("server.latency.frames").value(), frames0 + 8);
    EXPECT_EQ(reg.histogram("server.latency.e2e_ns").count(), count0 + 8);
}

TEST(StatFrame, SpanAccountingSurvivesSupervisedRestart)
{
    auto& reg = metrics::Registry::global();
    auto frames0 = reg.counter("server.latency.frames").value();
    auto aborted0 = reg.counter("server.latency.frames_aborted").value();

    auto factory = scramblerFactory(/*maxRestarts=*/2);
    sv::ServerConfig cfg;
    cfg.workers = 1;
    cfg.fault = FaultSpec::parse("throw@100");  // transient, fires once
    cfg.faultSession = 0;
    cfg.session.trackLatency = true;
    cfg.session.span.frameElems = 64;
    sv::Server server(factory, cfg);
    server.start();

    StatClient c;
    ASSERT_TRUE(c.connect(server.port()));
    auto input = randomBits(1024 * c.hello.inWidth, 93);
    ASSERT_TRUE(c.send(sv::FrameType::Data, input.data(), input.size()));
    ASSERT_TRUE(c.send(sv::FrameType::End));
    c.drain();
    ASSERT_TRUE(c.sawEnd) << c.errorMsg;
    EXPECT_TRUE(waitFor([&] { return server.counters().completed == 1; }));
    server.stop();

    // The restart aborted whatever was in flight and re-based the
    // mapping; spans opened after it still complete and merge.
    EXPECT_GE(reg.counter("server.latency.frames").value(), frames0 + 1);
    EXPECT_GE(reg.counter("server.latency.frames_aborted").value(),
              aborted0 + 1);
}

} // namespace
} // namespace ziria
