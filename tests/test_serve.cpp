/**
 * @file
 * Serving subsystem tests (ctest label `serve`): the multi-session
 * server end to end over loopback TCP — streaming correctness against
 * a solo in-process run, multi-session fault isolation (a faulted
 * session is evicted exactly once while its neighbor's output stays
 * byte-identical), per-session supervised restart, admission control,
 * idle timeouts, protocol-error eviction, and the compile thread (a slow
 * compile next to a streaming session, under admission, stop and
 * drain).
 *
 * All socket traffic is loopback (127.0.0.1); no test talks to the
 * outside world.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/metrics.h"
#include "support/rng.h"
#include "wifi/params.h"
#include "wifi/tx.h"
#include "zexec/faultpoint.h"
#include "zexec/pipeline.h"
#include "zir/compiler.h"
#include "zparse/parser.h"
#include "zserve/server.h"
#include "zserve/socket.h"
#include "zserve/wire.h"

namespace ziria {
namespace serve {
namespace {

/** The paper's Figure 3 scrambler (vectorizes to 8-byte elements). */
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

std::vector<uint8_t>
randomBits(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out)
        b = rng.bit();
    return out;
}

/** Sessions heal through the factory's pipelines: @p maxRestarts
 *  retries, and a checkpoint every @p interval elements (0 = reset). */
Server::PipelineFactory
scramblerFactory(uint32_t maxRestarts = 0, uint64_t interval = 0)
{
    CompPtr program = parseComp(kScramblerSrc);
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    if (maxRestarts > 0) {
        opt.restart.mode = RestartMode::OnFailure;
        opt.restart.maxRestarts = maxRestarts;
        opt.restart.backoffInitialMs = 1;
    }
    opt.checkpoint.interval = interval;
    return [program, opt](uint64_t) {
        return compilePipeline(program, opt, nullptr);
    };
}

/** Solo (no server) reference run of the same program. */
std::vector<uint8_t>
soloRun(const Server::PipelineFactory& factory,
        const std::vector<uint8_t>& input)
{
    auto p = factory(~0ull);
    return p->runBytes(input);
}

/** Counts of slow compiles begun and finished (see slowFactory). */
struct CompileGate
{
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
};

/**
 * The scrambler factory, except that sessions with ids in
 * [@p slowFrom, @p slowTo) sleep @p sleepMs first, standing in for a
 * cold native compile.
 */
Server::PipelineFactory
slowFactory(CompileGate& gate, int sleepMs, uint64_t slowFrom,
            uint64_t slowTo = UINT64_MAX)
{
    auto inner = scramblerFactory();
    return [inner, &gate, sleepMs, slowFrom, slowTo](uint64_t id) {
        if (id >= slowFrom && id < slowTo) {
            gate.started.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(sleepMs));
            gate.finished.fetch_add(1);
        }
        return inner(id);
    };
}

/** Poll @p cond for up to @p ms milliseconds. */
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

/**
 * A small blocking wire-protocol client: connect, read Hello, stream
 * Data frames, End, and drain the reply.  Mirrors tools/zclient.cpp in
 * miniature so the tests do not depend on the CLI binary.
 */
struct TestClient
{
    SockFd sock;
    FrameParser parser;
    HelloInfo hello;
    std::vector<uint8_t> out;    ///< concatenated Data payloads
    std::vector<uint8_t> ctrl;   ///< Halt payload, if any
    std::string errorMsg;        ///< Error payload, if any
    bool sawEnd = false;
    bool sawError = false;
    bool closedClean = true;     ///< false when the peer died mid-frame

    bool
    readFrame(Frame& f)
    {
        uint8_t buf[16 * 1024];
        for (;;) {
            FrameParser::Result r = parser.next(f);
            if (r == FrameParser::Result::Frame)
                return true;
            if (r == FrameParser::Result::Error)
                return false;
            long n = recvSome(sock.get(), buf, sizeof buf);
            if (n > 0) {
                parser.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n == 0 && parser.midFrame())
                closedClean = false;
            if (n != -1)  // closed or hard error
                return false;
        }
    }

    /** Connect and consume the greeting; false on an Error greeting. */
    bool
    connect(uint16_t port)
    {
        sock = connectTcp("127.0.0.1", port);
        if (sock.get() < 0)
            return false;
        Frame f;
        if (!readFrame(f))
            return false;
        if (f.type == FrameType::Error) {
            sawError = true;
            errorMsg.assign(f.payload.begin(), f.payload.end());
            return false;
        }
        return f.type == FrameType::Hello && decodeHello(f.payload, hello);
    }

    bool
    sendData(const uint8_t* data, size_t n)
    {
        std::vector<uint8_t> wire;
        encodeFrame(wire, FrameType::Data, data, n);
        return sendAll(sock.get(), wire.data(), wire.size());
    }

    /** Send @p input as Data frames of at most @p chunkElems elements. */
    bool
    sendAllData(const std::vector<uint8_t>& input, size_t chunkElems = 256)
    {
        size_t w = hello.inWidth ? hello.inWidth : 1;
        size_t chunkBytes = chunkElems * w;
        for (size_t off = 0; off < input.size(); off += chunkBytes) {
            size_t n = std::min(chunkBytes, input.size() - off);
            if (!sendData(input.data() + off, n))
                return false;
        }
        return true;
    }

    bool
    sendEnd()
    {
        std::vector<uint8_t> wire;
        encodeFrame(wire, FrameType::End);
        return sendAll(sock.get(), wire.data(), wire.size());
    }

    /** Read until End, Error, or close. */
    void
    drain()
    {
        Frame f;
        while (readFrame(f)) {
            switch (f.type) {
              case FrameType::Data:
                out.insert(out.end(), f.payload.begin(), f.payload.end());
                break;
              case FrameType::Halt:
                ctrl = f.payload;
                break;
              case FrameType::End:
                sawEnd = true;
                return;
              case FrameType::Error:
                sawError = true;
                errorMsg.assign(f.payload.begin(), f.payload.end());
                return;
              default:
                return;
            }
        }
    }

    /** The whole session in one call. */
    void
    run(uint16_t port, const std::vector<uint8_t>& input)
    {
        if (!connect(port))
            return;
        if (!sendAllData(input) || !sendEnd())
            return;
        drain();
    }
};

// ----------------------------------------------------- server, e2e TCP

TEST(Serve, ScramblerEndToEndMatchesSoloRun)
{
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 2;
    Server server(factory, cfg);
    server.start();

    auto input = randomBits(4096 * 8, 21);
    auto expect = soloRun(factory, input);

    TestClient c;
    c.run(server.port(), input);
    EXPECT_TRUE(c.sawEnd);
    EXPECT_FALSE(c.sawError) << c.errorMsg;
    EXPECT_EQ(c.hello.inWidth, 8u);  // the scrambler vectorizes to 8
    EXPECT_EQ(c.out, expect);

    EXPECT_TRUE(waitFor([&] { return server.counters().completed == 1; }));
    Server::Counters sc = server.counters();
    EXPECT_EQ(sc.accepted, 1u);
    EXPECT_EQ(sc.evicted, 0u);
    EXPECT_EQ(sc.rejected, 0u);
    server.stop();
}

TEST(Serve, WifiTxCaptureOverLoopback)
{
    // Stream a WiFi transmitter: random payload bits in, the 802.11a
    // sample capture out — the server's reply must be byte-identical to
    // the solo in-process run of the same compiled pipeline.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    Server::PipelineFactory factory =
        [opt](uint64_t) -> std::unique_ptr<Pipeline> {
        return compilePipeline(wifi::wifiTxDataComp(wifi::Rate::R12), opt,
                               nullptr);
    };

    auto probe = factory(0);
    const size_t inW = std::max<size_t>(probe->inWidth(), 1);
    // Whole elements only; a generous zero tail flushes the real bits
    // through the vectorized interior (same idiom as test_wifi_tx).
    auto bits = randomBits(480, 31);
    bits.insert(bits.end(), ((bits.size() / inW) + 40) * inW - bits.size(),
                0);
    auto expect = soloRun(factory, bits);
    ASSERT_FALSE(expect.empty());

    ServerConfig cfg;
    cfg.workers = 2;
    Server server(factory, cfg);
    server.start();

    TestClient c;
    c.run(server.port(), bits);
    EXPECT_TRUE(c.sawEnd);
    EXPECT_FALSE(c.sawError) << c.errorMsg;
    EXPECT_EQ(c.out, expect);
    server.stop();
}

TEST(Serve, ConcurrentSessionsAllComplete)
{
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 3;
    Server server(factory, cfg);
    server.start();

    const int kSessions = 8;
    std::vector<TestClient> cs(kSessions);
    std::vector<std::vector<uint8_t>> inputs(kSessions);
    std::vector<std::vector<uint8_t>> expects(kSessions);
    for (int i = 0; i < kSessions; ++i) {
        inputs[i] = randomBits(1024 * 8, 100 + static_cast<uint64_t>(i));
        expects[i] = soloRun(factory, inputs[i]);
    }
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; ++i)
        threads.emplace_back([&, i] {
            cs[i].run(server.port(), inputs[i]);
        });
    for (auto& t : threads)
        t.join();

    for (int i = 0; i < kSessions; ++i) {
        EXPECT_TRUE(cs[i].sawEnd) << "session " << i;
        EXPECT_EQ(cs[i].out, expects[i]) << "session " << i;
    }
    EXPECT_TRUE(waitFor(
        [&] { return server.counters().completed == kSessions; }));
    server.stop();
}

// --------------------------------------------- fault isolation, healing

TEST(Serve, FaultedSessionIsEvictedNeighborUnharmed)
{
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.fault = FaultSpec::parse("throw@64");
    cfg.faultSession = 0;  // only the first accepted session faults
    Server server(factory, cfg);
    server.start();

    auto evictedBefore = metrics::Registry::global()
                             .counter("server.sessions.evicted")
                             .value();

    auto faultyIn = randomBits(2048 * 8, 41);
    auto cleanIn = randomBits(2048 * 8, 42);
    auto expect = soloRun(factory, cleanIn);

    // Session ids are assigned in accept order: connect the victim
    // first and wait for its Hello before starting the neighbor.
    TestClient victim;
    ASSERT_TRUE(victim.connect(server.port()));
    TestClient neighbor;
    std::thread nt([&] { neighbor.run(server.port(), cleanIn); });
    victim.sendAllData(faultyIn);
    victim.sendEnd();
    victim.drain();
    nt.join();

    // The victim sees an Error frame naming the injected fault...
    EXPECT_TRUE(victim.sawError);
    EXPECT_FALSE(victim.sawEnd);
    EXPECT_NE(victim.errorMsg.find("injected"), std::string::npos)
        << victim.errorMsg;

    // ...while its neighbor's stream is byte-identical to a solo run.
    EXPECT_TRUE(neighbor.sawEnd);
    EXPECT_FALSE(neighbor.sawError) << neighbor.errorMsg;
    EXPECT_EQ(neighbor.out, expect);

    EXPECT_TRUE(waitFor([&] {
        Server::Counters sc = server.counters();
        return sc.evicted == 1 && sc.completed == 1;
    }));
    Server::Counters sc = server.counters();
    EXPECT_EQ(sc.evicted, 1u);  // exactly once
    EXPECT_EQ(sc.completed, 1u);
    EXPECT_EQ(metrics::Registry::global()
                  .counter("server.sessions.evicted")
                  .value(),
              evictedBefore + 1);
    server.stop();
}

TEST(Serve, PerSessionRestartHealsTransientFault)
{
    auto factory = scramblerFactory(/*maxRestarts=*/2, /*interval=*/64);
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.fault = FaultSpec::parse("throw@100");  // fires once (transient)
    cfg.faultSession = 0;
    Server server(factory, cfg);
    server.start();

    auto input = randomBits(1024 * 8, 51);
    TestClient c;
    c.run(server.port(), input);

    // The session heals through its pipeline's checkpoint carry, like a
    // solo run: the last snapshot is restored and the journal replayed,
    // so the whole stream is byte-identical to a fault-free run.
    EXPECT_TRUE(c.sawEnd);
    EXPECT_FALSE(c.sawError) << c.errorMsg;
    EXPECT_EQ(c.out, soloRun(factory, input));

    EXPECT_TRUE(waitFor([&] { return server.counters().completed == 1; }));
    EXPECT_EQ(server.counters().evicted, 0u);
    server.stop();
}

// --------------------------------------------------- admission / sweeps

TEST(Serve, AdmissionControlRejectsOverCap)
{
    // Session 0 compiles slowly, so the first refusal below arrives
    // while the one slot is held by a connection still compiling.
    CompileGate gate;
    auto factory = slowFactory(gate, 300, 0, 1);
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxSessions = 1;
    Server server(factory, cfg);
    server.start();

    TestClient held;
    bool heldOk = false;
    std::thread heldThread([&] { heldOk = held.connect(server.port()); });
    ASSERT_TRUE(waitFor([&] { return gate.started.load() == 1; }));

    TestClient early;
    EXPECT_FALSE(early.connect(server.port()));
    EXPECT_TRUE(early.sawError);
    EXPECT_NE(early.errorMsg.find("full"), std::string::npos)
        << early.errorMsg;
    EXPECT_EQ(gate.finished.load(), 0) << "refused only after the compile";
    heldThread.join();
    ASSERT_TRUE(heldOk);  // the compiling connection kept its slot

    TestClient refused;
    EXPECT_FALSE(refused.connect(server.port()));
    EXPECT_TRUE(refused.sawError);
    EXPECT_NE(refused.errorMsg.find("full"), std::string::npos)
        << refused.errorMsg;

    EXPECT_TRUE(waitFor([&] { return server.counters().rejected == 2; }));

    // Releasing the slot re-opens admission.
    held.sendEnd();
    held.drain();
    EXPECT_TRUE(held.sawEnd);
    EXPECT_TRUE(waitFor([&] { return server.counters().active == 0; }));

    TestClient next;
    next.run(server.port(), randomBits(8 * 8, 61));
    EXPECT_TRUE(next.sawEnd);
    server.stop();
}

// ------------------------------------------------------- compile thread

TEST(Serve, SlowCompileDoesNotDelayANeighboursFrames)
{
    // Session 1's pipeline takes half a second to build.  Session 0
    // streams frames meanwhile; none of its round trips may wait for
    // that compile, and none may miss a 100 ms frame budget.
    constexpr int kCompileMs = 500;
    constexpr size_t kFrames = 32;
    constexpr size_t kFrameElems = 64;
    CompileGate gate;
    auto factory = slowFactory(gate, kCompileMs, 1);

    auto& reg = metrics::Registry::global();
    const uint64_t met0 = reg.counter("server.latency.budget.met").value();
    const uint64_t missed0 =
        reg.counter("server.latency.budget.missed").value();

    ServerConfig cfg;
    cfg.workers = 2;
    cfg.session.trackLatency = true;
    cfg.session.span.frameElems = kFrameElems;
    cfg.session.span.budgetNs = 100ull * 1000 * 1000;
    Server server(factory, cfg);
    server.start();

    TestClient a;
    ASSERT_TRUE(a.connect(server.port()));
    TestClient b;
    bool bOk = false;
    std::thread bThread([&] { bOk = b.connect(server.port()); });
    ASSERT_TRUE(waitFor([&] { return gate.started.load() == 1; }));

    const size_t frameBytes = kFrameElems * a.hello.inWidth;
    const auto input = randomBits(kFrames * frameBytes, 91);
    double worstMs = 0;
    for (size_t i = 0; i < kFrames; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(a.sendData(input.data() + i * frameBytes, frameBytes));
        Frame f;
        while (a.out.size() < (i + 1) * frameBytes) {
            ASSERT_TRUE(a.readFrame(f));
            ASSERT_EQ(f.type, FrameType::Data);
            a.out.insert(a.out.end(), f.payload.begin(), f.payload.end());
        }
        worstMs = std::max(
            worstMs, std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    // Every frame made its round trip while session 1 was compiling.
    EXPECT_EQ(gate.finished.load(), 0);
    EXPECT_LT(worstMs, kCompileMs / 5.0);

    ASSERT_TRUE(a.sendEnd());
    a.drain();
    EXPECT_TRUE(a.sawEnd);
    EXPECT_EQ(a.out, soloRun(scramblerFactory(), input));
    bThread.join();
    ASSERT_TRUE(bOk);
    ASSERT_TRUE(b.sendEnd());
    b.drain();
    EXPECT_TRUE(b.sawEnd);
    EXPECT_TRUE(waitFor([&] { return server.counters().completed == 2; }));
    server.stop();

    EXPECT_GE(reg.counter("server.latency.budget.met").value(),
              met0 + kFrames);
    EXPECT_EQ(reg.counter("server.latency.budget.missed").value(), missed0);
}

TEST(Serve, CompileWaitIsExported)
{
    // While session 1 compiles, the gauge, the counters and a Stat
    // reply show one connection compiling; its accept-to-Hello wait
    // lands in server.compile.wait_ns.
    constexpr int kCompileMs = 300;
    CompileGate gate;
    auto factory = slowFactory(gate, kCompileMs, 1);
    auto& reg = metrics::Registry::global();
    ServerConfig cfg;
    cfg.workers = 1;
    Server server(factory, cfg);
    server.start();
    uint64_t count0 = 0, sum0 = 0;
    {
        // Read unlocked only while no I/O thread can observe into it:
        // this server has had no connection yet.
        auto& h = reg.histogram("server.compile.wait_ns");
        count0 = h.count();
        sum0 = h.sum();
    }

    TestClient a;
    ASSERT_TRUE(a.connect(server.port()));
    TestClient b;
    bool bOk = false;
    std::thread bThread([&] { bOk = b.connect(server.port()); });
    ASSERT_TRUE(waitFor([&] { return gate.started.load() == 1; }));
    EXPECT_TRUE(waitFor([&] { return server.counters().compiling == 1; }));
    EXPECT_EQ(server.counters().active, 1u);

    std::vector<uint8_t> wire;
    encodeFrame(wire, FrameType::Stat);
    ASSERT_TRUE(sendAll(a.sock.get(), wire.data(), wire.size()));
    Frame f;
    ASSERT_TRUE(a.readFrame(f));
    ASSERT_EQ(f.type, FrameType::Stat);
    const std::string json(f.payload.begin(), f.payload.end());
    EXPECT_NE(json.find("\"compiling\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"server.sessions.compiling\":{\"value\":1"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"server.compile.wait_ns\""), std::string::npos)
        << json;
    EXPECT_EQ(gate.finished.load(), 0);

    bThread.join();
    ASSERT_TRUE(bOk);
    EXPECT_EQ(server.counters().compiling, 0u);
    a.sendEnd();
    a.drain();
    b.sendEnd();
    b.drain();
    server.stop();

    auto& h = reg.histogram("server.compile.wait_ns");
    EXPECT_EQ(h.count(), count0 + 2);
    EXPECT_GE(h.sum() - sum0, static_cast<uint64_t>(kCompileMs) * 1000000);
}

TEST(Serve, StopJoinsACompileInProgress)
{
    CompileGate gate;
    auto factory = slowFactory(gate, 300, 0);
    ServerConfig cfg;
    cfg.workers = 1;
    Server server(factory, cfg);
    server.start();

    TestClient c;
    bool ok = true;
    std::thread client([&] { ok = c.connect(server.port()); });
    ASSERT_TRUE(waitFor([&] { return gate.started.load() == 1; }));
    EXPECT_EQ(server.counters().compiling, 1u);
    server.stop();
    // stop() returned with the compile run to its end and the thread
    // joined; the connection that never got a session is closed.
    EXPECT_EQ(gate.finished.load(), 1);
    client.join();
    EXPECT_FALSE(ok);
    EXPECT_EQ(server.counters().accepted, 0u);
    EXPECT_EQ(server.counters().compiling, 0u);
}

TEST(Serve, DrainRefusesConnectionsStillCompiling)
{
    // The drain rule: a client that got a Hello gets its End or a
    // Checkpoint; a connection whose pipeline is not built yet gets an
    // Error frame.  Session 1 is mid-compile and session 2 queued behind
    // it when the drain starts; session 0 is mid-stream.
    constexpr int kCompileMs = 500;
    CompileGate gate;
    auto factory = slowFactory(gate, kCompileMs, 1);
    ServerConfig cfg;
    cfg.workers = 1;
    Server server(factory, cfg);
    server.start();

    TestClient a;
    ASSERT_TRUE(a.connect(server.port()));
    ASSERT_TRUE(a.sendAllData(randomBits(64 * a.hello.inWidth, 92)));

    TestClient b, c;
    int finishedAtRefusal[2] = {-1, -1};
    std::thread bThread([&] {
        if (!b.connect(server.port()))
            finishedAtRefusal[0] = gate.finished.load();
    });
    ASSERT_TRUE(waitFor([&] { return gate.started.load() == 1; }));
    std::thread cThread([&] {
        if (!c.connect(server.port()))
            finishedAtRefusal[1] = gate.finished.load();
    });
    ASSERT_TRUE(waitFor([&] { return server.counters().compiling == 2; }));

    double drainMs = 0;
    std::thread drainer([&] {
        const auto t0 = std::chrono::steady_clock::now();
        server.drainStop();
        drainMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    });

    // Session 0: Hello, then (whatever output) a Checkpoint.
    bool sawCkpt = false;
    Frame f;
    while (!sawCkpt && a.readFrame(f)) {
        EXPECT_TRUE(f.type == FrameType::Data ||
                    f.type == FrameType::Checkpoint);
        sawCkpt = f.type == FrameType::Checkpoint;
    }
    EXPECT_TRUE(sawCkpt);
    a.sock.reset();  // hang up, as a migrating client does
    drainer.join();
    bThread.join();
    cThread.join();
    // Sessions 1 and 2: an Error frame, sent while 1 still compiled.
    for (TestClient* t : {&b, &c}) {
        EXPECT_TRUE(t->sawError);
        EXPECT_NE(t->errorMsg.find("draining"), std::string::npos)
            << t->errorMsg;
    }
    EXPECT_EQ(finishedAtRefusal[0], 0);
    EXPECT_EQ(finishedAtRefusal[1], 0);
    // drainStop joined the compile thread: session 1's compile ran out,
    // session 2's never started.
    EXPECT_EQ(gate.finished.load(), 1);
    EXPECT_EQ(gate.started.load(), 1);
    EXPECT_LT(drainMs, cfg.drainTimeoutMs);
    EXPECT_EQ(server.counters().accepted, 1u);
    EXPECT_EQ(server.counters().rejected, 2u);
}

TEST(Serve, IdleSessionIsTimedOut)
{
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.idleTimeoutMs = 60;
    Server server(factory, cfg);
    server.start();

    TestClient c;
    ASSERT_TRUE(c.connect(server.port()));
    c.drain();  // send nothing; the sweep must cut us loose

    EXPECT_TRUE(c.sawError);
    EXPECT_NE(c.errorMsg.find("idle"), std::string::npos) << c.errorMsg;
    EXPECT_TRUE(waitFor([&] { return server.counters().evicted == 1; }));
    server.stop();
}

TEST(Serve, MisalignedDataPayloadIsAProtocolError)
{
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 1;
    Server server(factory, cfg);
    server.start();

    TestClient c;
    ASSERT_TRUE(c.connect(server.port()));
    ASSERT_EQ(c.hello.inWidth, 8u);
    uint8_t junk[9] = {0};  // 9 bytes: not a multiple of 8
    c.sendData(junk, sizeof junk);
    c.drain();

    EXPECT_TRUE(c.sawError);
    EXPECT_NE(c.errorMsg.find("element width"), std::string::npos)
        << c.errorMsg;
    EXPECT_TRUE(waitFor([&] { return server.counters().evicted == 1; }));
    server.stop();
}

TEST(Serve, ClientAbortMidFrameOnlyEvictsThatSession)
{
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 2;
    Server server(factory, cfg);
    server.start();

    // An aborter hard-closes mid-frame; a well-behaved session running
    // at the same time must still complete.
    TestClient aborter;
    ASSERT_TRUE(aborter.connect(server.port()));
    {
        std::vector<uint8_t> wire;
        auto some = randomBits(16 * 8, 71);
        encodeFrame(wire, FrameType::Data, some);
        // Send only half the frame, then drop the connection.
        sendAll(aborter.sock.get(), wire.data(), wire.size() / 2);
        aborter.sock = SockFd();  // close
    }

    auto input = randomBits(512 * 8, 72);
    auto expect = soloRun(factory, input);
    TestClient good;
    good.run(server.port(), input);
    EXPECT_TRUE(good.sawEnd);
    EXPECT_EQ(good.out, expect);

    EXPECT_TRUE(waitFor([&] {
        Server::Counters sc = server.counters();
        return sc.evicted == 1 && sc.completed == 1;
    }));
    server.stop();
}

// ------------------------------------------------ serving observability

TEST(Serve, AggregatesSessionTrafficIntoRegistry)
{
    auto& reg = metrics::Registry::global();
    auto rxb0 = reg.counter("server.rx.bytes").value();
    auto txf0 = reg.counter("server.tx.frames").value();

    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 1;
    Server server(factory, cfg);
    server.start();

    auto input = randomBits(256 * 8, 81);
    TestClient c;
    c.run(server.port(), input);
    ASSERT_TRUE(c.sawEnd);
    EXPECT_TRUE(waitFor([&] { return server.counters().completed == 1; }));
    server.stop();

    // Close aggregated the per-session counters: at least the input
    // payload plus framing went through rx, and Hello + Data + End out.
    EXPECT_GE(reg.counter("server.rx.bytes").value(),
              rxb0 + input.size());
    EXPECT_GE(reg.counter("server.tx.frames").value(), txf0 + 3);
}

// ------------------------------------------- checkpoint / drain / migrate

namespace {

uint32_t
readU32(const std::vector<uint8_t>& b, size_t off)
{
    uint32_t v = 0;
    std::memcpy(&v, b.data() + off, 4);
    return v;
}

uint64_t
readU64(const std::vector<uint8_t>& b, size_t off)
{
    uint64_t v = 0;
    std::memcpy(&v, b.data() + off, 8);
    return v;
}

/** Step a session until it parks (NeedInput) or finishes, collecting
 *  any output it produces along the way. */
StepResult
stepUntilParked(Session& s, std::vector<uint8_t>& out)
{
    for (int guard = 0; guard < 100000; ++guard) {
        StepResult r = s.step();
        std::vector<uint8_t> chunk;
        while (s.takeOutput(chunk, 64 * 1024) > 0) {
            out.insert(out.end(), chunk.begin(), chunk.end());
            chunk.clear();
        }
        if (r == StepResult::NeedInput || r == StepResult::Finished ||
            r == StepResult::Failed)
            return r;
    }
    ADD_FAILURE() << "session never parked";
    return StepResult::Failed;
}

/** Offer @p input from byte @p off on, interleaved with stepping as the
 *  server's I/O loop does, then end the input and step to completion. */
void
finishStream(Session& s, const std::vector<uint8_t>& input, size_t off,
             std::vector<uint8_t>& out)
{
    while (off < input.size()) {
        size_t did = 0;
        s.offerInput(input.data() + off, input.size() - off, did);
        off += did;
        if (off < input.size()) {
            ASSERT_NE(stepUntilParked(s, out), StepResult::Failed);
        }
    }
    s.endInput();
    ASSERT_EQ(stepUntilParked(s, out), StepResult::Finished);
    EXPECT_FALSE(s.completion().failed) << s.completion().failMessage;
}

} // namespace

TEST(Serve, SessionCheckpointRoundTripOffline)
{
    // The session-level migration contract, no sockets involved: park a
    // session mid-stream, serialize it (with both a queued backlog and
    // an I/O-side pending tail), restore into a FRESH session, finish
    // the stream there, and demand byte-identity with the solo run.
    auto factory = scramblerFactory();
    auto input = randomBits(4096 * 8, 44);
    auto expect = soloRun(factory, input);

    SessionConfig cfg;
    Session a(1, /*fd=*/-1, factory(1), cfg, FaultSpec{});
    const size_t w = a.inWidth();
    ASSERT_GT(w, 0u);
    ASSERT_EQ(input.size() % w, 0u);

    // Feed a prefix and run it to quiescence.
    const size_t fed = 1024 * w;
    size_t consumed = 0;
    ASSERT_TRUE(a.offerInput(input.data(), fed, consumed));
    ASSERT_EQ(consumed, fed);
    std::vector<uint8_t> outA;
    ASSERT_EQ(stepUntilParked(a, outA), StepResult::NeedInput);

    // Leave a backlog the worker never saw: some queued elements plus a
    // decoded-but-unqueued tail of one element.
    const size_t queued = 16 * w;
    ASSERT_TRUE(a.offerInput(input.data() + fed, queued, consumed));
    ASSERT_EQ(consumed, queued);
    const uint8_t* tail = input.data() + fed + queued;
    a.pendingIn.assign(tail, tail + w);

    std::vector<uint8_t> ck;
    std::string err;
    ASSERT_TRUE(a.checkpoint(ck, &err)) << err;

    // Header sanity: version, progress counters, backlog element count.
    ASSERT_GE(ck.size(), 28u);
    EXPECT_EQ(readU32(ck, 0), kSessionCheckpointVersion);
    const uint64_t ckConsumed = readU64(ck, 4);
    const uint64_t ckBacklog = readU64(ck, 20);
    EXPECT_EQ(ckConsumed, fed / w);
    EXPECT_EQ(ckBacklog, queued / w + 1);

    // Resume in a brand-new session: adopt, feed the rest, finish.
    Session b(2, /*fd=*/-1, factory(2), cfg, FaultSpec{});
    b.adoptCheckpoint(ck);
    std::vector<uint8_t> outB;
    // The bounded input queue backpressures a bulk feed: interleave
    // offering and stepping, exactly like the server's I/O loop does.
    size_t off = (static_cast<size_t>(ckConsumed + ckBacklog)) * w;
    ASSERT_LE(off, input.size());
    finishStream(b, input, off, outB);

    std::vector<uint8_t> got = outA;
    got.insert(got.end(), outB.begin(), outB.end());
    EXPECT_EQ(got, expect);
}

TEST(Serve, CheckpointMidWindowKeepsTheWindowsRest)
{
    // A session over its output high water parks in the middle of the
    // batch its queue source popped.  The checkpoint's backlog must
    // carry the rest of that batch ahead of the queue and the pending
    // tail, or the resumed stream skips it.
    auto factory = scramblerFactory();
    auto input = randomBits(2048 * 8, 47);
    auto expect = soloRun(factory, input);

    SessionConfig cfg;
    cfg.outHighWaterBytes = 1;  // park after every output run
    cfg.inQueueElems = 4096;
    Session a(1, /*fd=*/-1, factory(1), cfg, FaultSpec{});
    const size_t w = a.inWidth();
    const size_t fed = 1024;
    size_t consumed = 0;
    ASSERT_TRUE(a.offerInput(input.data(), fed * w, consumed));
    ASSERT_EQ(a.step(), StepResult::OutputFull);
    std::vector<uint8_t> outA;
    while (a.takeOutput(outA, SIZE_MAX) > 0) {
    }
    const uint8_t* tail = input.data() + fed * w;
    a.pendingIn.assign(tail, tail + w);

    std::vector<uint8_t> ck;
    std::string err;
    ASSERT_TRUE(a.checkpoint(ck, &err)) << err;
    const uint64_t ckConsumed = readU64(ck, 4);
    const uint64_t ckBacklog = readU64(ck, 20);
    EXPECT_GT(ckConsumed, 0u);
    EXPECT_LT(ckConsumed, kBatchElems) << "the session did not park "
                                          "mid-window";
    EXPECT_EQ(ckConsumed + ckBacklog, fed + 1);

    Session b(2, /*fd=*/-1, factory(2), SessionConfig{}, FaultSpec{});
    b.adoptCheckpoint(ck);
    std::vector<uint8_t> outB;
    finishStream(b, input, static_cast<size_t>(ckConsumed + ckBacklog) * w,
                 outB);
    std::vector<uint8_t> got = outA;
    got.insert(got.end(), outB.begin(), outB.end());
    EXPECT_EQ(got, expect);
}

namespace {

/**
 * Park a fresh session after @p fed input elements, queue @p queued more
 * that it never consumes, and serialize it into @p ck (collecting its
 * output in @p out).  Returns the byte offset of the first input element
 * the checkpoint does not cover.
 */
size_t
checkpointMidStream(const Server::PipelineFactory& factory,
                    const std::vector<uint8_t>& input, size_t fed,
                    size_t queued, std::vector<uint8_t>& out,
                    std::vector<uint8_t>& ck)
{
    Session a(1, /*fd=*/-1, factory(1), SessionConfig{}, FaultSpec{});
    const size_t w = a.inWidth();
    size_t consumed = 0;
    EXPECT_TRUE(a.offerInput(input.data(), fed * w, consumed));
    EXPECT_EQ(stepUntilParked(a, out), StepResult::NeedInput);
    EXPECT_TRUE(a.offerInput(input.data() + fed * w, queued * w, consumed));
    std::string err;
    EXPECT_TRUE(a.checkpoint(ck, &err)) << err;
    return (fed + queued) * w;
}

/** Delegates to a compiled tree, except that its @p failAt-th supply()
 *  throws, once: a transient fault inside the pipeline. */
class FlakyNode : public ExecNode
{
  public:
    FlakyNode(NodePtr inner, uint64_t failAt)
        : inner_(std::move(inner)), failAt_(failAt)
    {
        setInWidth(inner_->inWidth());
        setOutWidth(inner_->outWidth());
    }

    void start(ziria::Frame& f) override { inner_->start(f); }
    Status advance(ziria::Frame& f) override { return inner_->advance(f); }
    const uint8_t* out() const override { return inner_->out(); }
    void reset(ziria::Frame& f) override { inner_->reset(f); }

    void
    supply(ziria::Frame& f, const uint8_t* in) override
    {
        if (++supplied_ == failAt_)
            throw std::runtime_error("flaky supply");
        inner_->supply(f, in);
    }

    void
    snapshot(const ziria::Frame& f, StateWriter& w) const override
    {
        inner_->snapshot(f, w);
    }

    void restore(ziria::Frame& f, StateReader& r) override { inner_->restore(f, r); }

  private:
    NodePtr inner_;
    uint64_t failAt_;
    uint64_t supplied_ = 0;
};

/** The scrambler as the healing factory builds it, around a FlakyNode. */
std::unique_ptr<Pipeline>
flakyScrambler(uint64_t failAt)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    CompPtr c = optimizeComp(parseComp(kScramblerSrc), opt);
    FrameLayout layout;
    ExprCompiler ec(layout);
    BuildOptions bo;
    bo.autoLut = opt.autoLut;
    bo.lutLimits = opt.lut;
    auto root = std::make_unique<FlakyNode>(buildNode(c, ec, bo, nullptr),
                                            failAt);
    const size_t inW = root->inWidth(), outW = root->outWidth();
    auto p = std::make_unique<Pipeline>(std::move(root), layout.frameSize(),
                                        inW, outW);
    RestartPolicy rp;
    rp.mode = RestartMode::OnFailure;
    rp.maxRestarts = 2;
    rp.backoffInitialMs = 1;
    p->setRestartPolicy(rp);
    p->setCheckpoint(CheckpointPolicy{64});
    return p;
}

} // namespace

TEST(Serve, AdoptedRestoreRunsBeforeInputQueuedDuringABurst)
{
    // The I/O thread may adopt a Checkpoint while the session's first
    // burst is already inside its input pull, and queue the input that
    // follows the Checkpoint in the same pass.  That input must not be
    // consumed on fresh state: the restore runs first.  A stall@0 fault
    // sleeps before reading the queue, which holds the first step()
    // inside its pull while the test adopts and queues.  (Should the
    // burst start late or wake early, the test passes without racing.)
    auto factory = scramblerFactory();
    auto input = randomBits(512 * 8, 45);
    auto expect = soloRun(factory, input);
    std::vector<uint8_t> outA, ck;
    const size_t off = checkpointMidStream(factory, input, 128, 16, outA, ck);

    Session b(2, /*fd=*/-1, factory(2), SessionConfig{},
              FaultSpec::parse("stall@0:600"));
    std::thread burst([&] { (void)b.step(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    b.adoptCheckpoint(ck);
    size_t did = 0;
    EXPECT_TRUE(b.offerInput(input.data() + off, input.size() - off, did));
    EXPECT_EQ(did, input.size() - off);
    b.endInput();
    burst.join();

    std::vector<uint8_t> outB;
    ASSERT_EQ(stepUntilParked(b, outB), StepResult::Finished);
    EXPECT_FALSE(b.completion().failed) << b.completion().failMessage;
    std::vector<uint8_t> got = outA;
    got.insert(got.end(), outB.begin(), outB.end());
    EXPECT_EQ(got, expect);
}

TEST(Serve, SessionHealsAFaultWhileReplayingAnAdoptedBacklog)
{
    // A restored session replays the donor's backlog before any live
    // input.  A transient fault inside the pipeline part-way through
    // that replay must heal byte-identically: the adopted snapshot is
    // the restore point, and the backlog's un-replayed tail is carried
    // into the journal along with the re-fed prefix.
    auto factory = scramblerFactory();
    auto input = randomBits(512 * 8, 46);
    auto expect = soloRun(factory, input);
    std::vector<uint8_t> outA, ck;
    const size_t off = checkpointMidStream(factory, input, 128, 64, outA, ck);

    Session b(2, /*fd=*/-1, flakyScrambler(/*failAt=*/20), SessionConfig{},
              FaultSpec{});
    b.adoptCheckpoint(ck);
    size_t did = 0;
    EXPECT_TRUE(b.offerInput(input.data() + off, input.size() - off, did));
    b.endInput();
    std::vector<uint8_t> outB;
    ASSERT_EQ(stepUntilParked(b, outB), StepResult::Finished);
    EXPECT_FALSE(b.completion().failed) << b.completion().failMessage;
    EXPECT_EQ(b.restarts(), 1u);
    std::vector<uint8_t> got = outA;
    got.insert(got.end(), outB.begin(), outB.end());
    EXPECT_EQ(got, expect);
}

namespace {

/**
 * A client ahead of the last persist: keyed session A persists into
 * @p ck after 128 input elements, then delivers the output of 64 more.
 * @p held is everything the client holds.
 */
void
persistThenRunAhead(const Server::PipelineFactory& factory,
                    const std::vector<uint8_t>& input,
                    std::vector<uint8_t>& ck, std::vector<uint8_t>& held)
{
    Session a(1, /*fd=*/-1, factory(1), SessionConfig{}, FaultSpec{});
    a.beginRetention();
    const size_t w = a.inWidth();
    size_t did = 0;
    ASSERT_TRUE(a.offerInput(input.data(), 128 * w, did));
    ASSERT_EQ(stepUntilParked(a, held), StepResult::NeedInput);
    std::string err;
    ASSERT_TRUE(a.checkpoint(ck, &err)) << err;
    ASSERT_TRUE(a.offerInput(input.data() + 128 * w, 64 * w, did));
    ASSERT_EQ(stepUntilParked(a, held), StepResult::NeedInput);
}

} // namespace

TEST(Serve, DrainMidSuppressionDoesNotResendHeldOutput)
{
    // Session B resumes A's persist for the client that is ahead of it,
    // so B regenerates and swallows the outputs the client holds.  B is
    // drained while still swallowing: its payload must record what the
    // client holds, not what B's stepper emitted, or session C re-sends
    // held output.  Persisting B at the same point must re-attach too.
    auto factory = scramblerFactory();
    auto input = randomBits(512 * 8, 71);
    auto expect = soloRun(factory, input);
    std::vector<uint8_t> ck1, held;
    persistThenRunAhead(factory, input, ck1, held);

    Session b(2, /*fd=*/-1, factory(2), SessionConfig{}, FaultSpec{});
    const size_t w = b.inWidth();
    std::vector<uint8_t> resend, outB;
    uint64_t from = 0;
    ASSERT_EQ(b.adoptResume(ck1, held.size(), resend, from), "");
    EXPECT_TRUE(resend.empty());
    EXPECT_EQ(from, 128u);
    size_t did = 0;
    ASSERT_TRUE(b.offerInput(input.data() + from * w, 16 * w, did));
    ASSERT_EQ(stepUntilParked(b, outB), StepResult::NeedInput);
    EXPECT_TRUE(outB.empty()) << "B should still be swallowing";

    // Drain: B's client replays the Checkpoint payload into C.
    std::vector<uint8_t> ck;
    std::string err;
    ASSERT_TRUE(b.checkpoint(ck, &err)) << err;
    Session c(3, /*fd=*/-1, factory(3), SessionConfig{}, FaultSpec{});
    c.adoptCheckpoint(ck);
    std::vector<uint8_t> got = held;
    finishStream(c, input,
                 static_cast<size_t>(readU64(ck, 4) + readU64(ck, 20)) * w,
                 got);
    EXPECT_EQ(got, expect) << "drained session re-sent held output";

    // One more input, still swallowing; persist and re-attach into D.
    ASSERT_TRUE(b.offerInput(input.data() + (from + 16) * w, w, did));
    ASSERT_EQ(stepUntilParked(b, outB), StepResult::NeedInput);
    EXPECT_TRUE(outB.empty());
    ASSERT_TRUE(b.checkpoint(ck, &err)) << err;
    Session d(4, /*fd=*/-1, factory(4), SessionConfig{}, FaultSpec{});
    ASSERT_EQ(d.adoptResume(ck, held.size(), resend, from), "");
    EXPECT_TRUE(resend.empty());
    got = held;
    finishStream(d, input, from * w, got);
    EXPECT_EQ(got, expect) << "persisted session diverged on re-attach";
}

TEST(Serve, DurableGenerationWithSnapshotEmittedCountRestores)
{
    // The fixture is the payload session B of the test above persists
    // after its 17th re-sent input, as written when the header's count
    // was the snapshot's emitted count rather than the delivered one.
    // Durable generations of that form must still resume byte-identically.
    std::ifstream f(ZIRIA_TEST_DATA_DIR "/session/resume_ahead_persist.zck",
                    std::ios::binary);
    std::vector<uint8_t> ck((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    ASSERT_GE(ck.size(), 28u);
    EXPECT_EQ(readU32(ck, 0), kSessionCheckpointVersion);

    auto factory = scramblerFactory();
    auto input = randomBits(512 * 8, 71);
    auto expect = soloRun(factory, input);
    std::vector<uint8_t> ck1, held;
    persistThenRunAhead(factory, input, ck1, held);

    Session d(4, /*fd=*/-1, factory(4), SessionConfig{}, FaultSpec{});
    std::vector<uint8_t> resend;
    uint64_t from = 0;
    ASSERT_EQ(d.adoptResume(ck, held.size(), resend, from), "");
    EXPECT_TRUE(resend.empty());
    EXPECT_EQ(from, 145u);
    std::vector<uint8_t> got = held;
    finishStream(d, input, from * d.inWidth(), got);
    EXPECT_EQ(got, expect);
}

TEST(Serve, DrainEmitsCheckpointAndSecondServerResumes)
{
    // The full zero-loss migration story over TCP: server A is drained
    // mid-stream (SIGTERM path), hands the client a Checkpoint frame;
    // the client replays it as the FIRST frame to server B and streams
    // the remainder.  Concatenated output must be byte-identical to an
    // uninterrupted solo run.
    auto factory = scramblerFactory();
    auto input = randomBits(4096 * 8, 51);
    auto expect = soloRun(factory, input);

    auto& reg = metrics::Registry::global();
    uint64_t drained0 = reg.counter("server.drain.completed").value();
    uint64_t saved0 = reg.counter("server.migrations.saved").value();
    uint64_t restored0 = reg.counter("server.migrations.restored").value();

    ServerConfig cfg;
    cfg.workers = 2;
    Server serverA(factory, cfg);
    serverA.start();

    TestClient c1;
    ASSERT_TRUE(c1.connect(serverA.port()));
    const size_t w = c1.hello.inWidth;
    ASSERT_GT(w, 0u);
    const size_t half = (input.size() / 2 / w) * w;
    ASSERT_TRUE(c1.sendAllData(
        std::vector<uint8_t>(input.begin(),
                             input.begin() + static_cast<long>(half))));

    // Let the worker make some progress, then drain server A while the
    // stream is mid-flight (no End was sent).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::thread drainer([&] { serverA.drainStop(); });

    std::vector<uint8_t> out1, ck;
    Frame f;
    while (c1.readFrame(f)) {
        if (f.type == FrameType::Data)
            out1.insert(out1.end(), f.payload.begin(), f.payload.end());
        else if (f.type == FrameType::Checkpoint) {
            ck = f.payload;
            break;
        } else
            FAIL() << "unexpected frame type during drain";
    }
    drainer.join();
    ASSERT_FALSE(ck.empty()) << "drain never produced a Checkpoint frame";
    EXPECT_EQ(reg.counter("server.drain.completed").value(), drained0 + 1);
    EXPECT_EQ(reg.counter("server.migrations.saved").value(), saved0 + 1);

    // The header tells the migrating client where to resume the input.
    ASSERT_GE(ck.size(), 28u);
    ASSERT_EQ(readU32(ck, 0), kSessionCheckpointVersion);
    const size_t resumeOff =
        static_cast<size_t>(readU64(ck, 4) + readU64(ck, 20)) * w;
    ASSERT_LE(resumeOff, half);

    Server serverB(factory, cfg);
    serverB.start();
    TestClient c2;
    ASSERT_TRUE(c2.connect(serverB.port()));
    std::vector<uint8_t> wire;
    encodeFrame(wire, FrameType::Checkpoint, ck.data(), ck.size());
    ASSERT_TRUE(sendAll(c2.sock.get(), wire.data(), wire.size()));
    ASSERT_TRUE(c2.sendAllData(
        std::vector<uint8_t>(input.begin() + static_cast<long>(resumeOff),
                             input.end())));
    ASSERT_TRUE(c2.sendEnd());
    c2.drain();
    EXPECT_TRUE(c2.sawEnd);
    EXPECT_FALSE(c2.sawError) << c2.errorMsg;
    EXPECT_EQ(reg.counter("server.migrations.restored").value(),
              restored0 + 1);
    serverB.stop();

    std::vector<uint8_t> got = out1;
    got.insert(got.end(), c2.out.begin(), c2.out.end());
    EXPECT_EQ(got, expect) << "migrated stream diverged from solo run";
}

TEST(Serve, DrainFlushesOutputElementsWiderThanADataChunk)
{
    // Every output element is 68,000 bytes, wider than one 64 KiB Data
    // chunk.  The client reads nothing until the drain, so elements pile
    // up in the session's output buffer; the drain must flush all of
    // them ahead of the Checkpoint, which counts them as delivered.
    const char* src = R"(
let comp wide() =
    var a : arr[17000] int in
    repeat {
        seq { (x : int) <- take : int
            ; do { a[0] := x; a[16999] := a[16999] + x; }
            ; emit a
            }
    }

wide()
)";
    CompPtr program = parseComp(src);
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    Server::PipelineFactory factory = [program, opt](uint64_t) {
        return compilePipeline(program, opt, nullptr);
    };
    std::vector<uint8_t> input(256 * 4);
    for (size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<uint8_t>(i * 7 + 1);
    auto expect = soloRun(factory, input);

    ServerConfig cfg;
    cfg.workers = 1;
    Server serverA(factory, cfg);
    serverA.start();
    TestClient c1;
    ASSERT_TRUE(c1.connect(serverA.port()));
    ASSERT_GT(c1.hello.outWidth, 64u * 1024);
    ASSERT_TRUE(c1.sendAllData(input));
    // Far more output than the socket buffers hold: the session parks
    // over its high water with whole elements buffered.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::thread drainer([&] { serverA.drainStop(); });

    std::vector<uint8_t> out1, ck;
    Frame f;
    while (c1.readFrame(f)) {
        if (f.type == FrameType::Data)
            out1.insert(out1.end(), f.payload.begin(), f.payload.end());
        else if (f.type == FrameType::Checkpoint) {
            ck = f.payload;
            break;
        } else
            FAIL() << "unexpected frame type during drain";
    }
    drainer.join();
    ASSERT_FALSE(ck.empty()) << "drain never produced a Checkpoint frame";
    EXPECT_EQ(out1.size(), readU64(ck, 12) * c1.hello.outWidth)
        << "outputs counted as delivered never reached the client";

    Server serverB(factory, cfg);
    serverB.start();
    TestClient c2;
    ASSERT_TRUE(c2.connect(serverB.port()));
    std::vector<uint8_t> wire;
    encodeFrame(wire, FrameType::Checkpoint, ck.data(), ck.size());
    ASSERT_TRUE(sendAll(c2.sock.get(), wire.data(), wire.size()));
    const size_t resumeOff =
        static_cast<size_t>(readU64(ck, 4) + readU64(ck, 20)) * 4;
    ASSERT_LE(resumeOff, input.size());
    ASSERT_TRUE(c2.sendAllData(std::vector<uint8_t>(
        input.begin() + static_cast<long>(resumeOff), input.end())));
    ASSERT_TRUE(c2.sendEnd());
    c2.drain();
    EXPECT_TRUE(c2.sawEnd);
    EXPECT_FALSE(c2.sawError) << c2.errorMsg;
    serverB.stop();

    std::vector<uint8_t> got = out1;
    got.insert(got.end(), c2.out.begin(), c2.out.end());
    EXPECT_EQ(got, expect);
}

TEST(Serve, DrainLetsFinishedSessionsCompleteNaturally)
{
    // A session whose End is already in: drainStop must let it finish
    // and deliver the normal End-of-stream epilogue — not checkpoint it.
    auto factory = scramblerFactory();
    auto input = randomBits(1024 * 8, 62);
    auto expect = soloRun(factory, input);

    ServerConfig cfg;
    cfg.workers = 1;
    Server server(factory, cfg);
    server.start();

    auto& reg = metrics::Registry::global();
    uint64_t aborted0 = reg.counter("server.drain.aborted").value();

    TestClient c;
    ASSERT_TRUE(c.connect(server.port()));
    ASSERT_TRUE(c.sendAllData(input));
    ASSERT_TRUE(c.sendEnd());
    // Give the I/O loop time to read the End frame: a session whose end
    // of input is already in is "finishing naturally" and must be left
    // alone by the drain, not checkpointed.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread drainer([&] { server.drainStop(); });
    c.drain();
    drainer.join();
    EXPECT_TRUE(c.sawEnd);
    EXPECT_FALSE(c.sawError) << c.errorMsg;
    EXPECT_EQ(c.out, expect);
    EXPECT_EQ(reg.counter("server.drain.aborted").value(), aborted0);
}

TEST(Serve, CheckpointAfterSessionStartIsAProtocolError)
{
    // A Checkpoint restore is only valid as the client's FIRST frame;
    // after Data has been fed the restore would corrupt the stream.
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 1;
    Server server(factory, cfg);
    server.start();

    TestClient c;
    ASSERT_TRUE(c.connect(server.port()));
    auto some = randomBits(8 * c.hello.inWidth, 71);
    ASSERT_TRUE(c.sendData(some.data(), some.size()));
    std::vector<uint8_t> bogus(64, 0xab), wire;
    encodeFrame(wire, FrameType::Checkpoint, bogus.data(), bogus.size());
    ASSERT_TRUE(sendAll(c.sock.get(), wire.data(), wire.size()));
    c.drain();
    EXPECT_TRUE(c.sawError);
    EXPECT_NE(c.errorMsg.find("Checkpoint"), std::string::npos)
        << c.errorMsg;
    server.stop();
}

} // namespace
} // namespace serve
} // namespace ziria
