/**
 * @file
 * serve_churn: zserve under session churn.  An in-process Server with
 * two workers serves the paper's Figure 3 scrambler (--opt all, VM
 * backend) to four loopback TCP clients, each running sessions back to
 * back.  Session lengths come from a seeded mix of short sessions (a
 * few 512-element frames) and occasional long ones; each session keeps
 * at most kWindow frames in flight (closed loop).
 *
 * This is the only workload that compiles on the hot path (the server
 * calls the pipeline factory on its I/O thread for every accepted
 * session) and moves data through the wire codec, sockets and the
 * worker scheduler; the PHY kernels are not used.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "oracle.h"
#include "workload.h"
#include "zparse/parser.h"
#include "zserve/server.h"
#include "zserve/socket.h"
#include "zserve/wire.h"

namespace perfbench {
namespace {

using namespace ziria::serve;

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

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr uint64_t kFrameElems = 512;
constexpr uint64_t kWindow = 4;
constexpr int kSetupReps = 9;
/** Calibration chunks timed between two segments, server idle. */
constexpr int kCalibChunks = 15;
constexpr uint64_t kBlock = 10;  ///< sessions per client per segment
constexpr size_t kPlanPerClient = 500;
/** Largest element width the input pool is sized for (bits/element). */
constexpr size_t kMaxInWidth = 16;
constexpr uint32_t kLongMax = 96;
constexpr size_t kPoolBits = size_t{1} << 20;

struct SessionPlan
{
    uint32_t frames;
    uint32_t offset;  ///< first bit in the pool
};

struct Inputs
{
    std::vector<uint8_t> pool;  ///< random bits, one byte each
    std::vector<std::vector<SessionPlan>> clients;
};

/**
 * Session lengths: every block of ten sessions holds nine short ones of
 * 8, 9, ..., 16 frames and one long one of 48-96 frames, in a seeded
 * order.  Fixing each block's make-up keeps the work done in a run
 * from swinging with how many long sessions it happened to draw.
 * Shorter sessions would put about half of all frames behind another
 * session's compile, and the latency median would flip between the
 * two modes from run to run.
 */
Inputs
generate(uint64_t seed, Digest& digest)
{
    Rng rng(seed);
    Inputs in;
    in.pool.resize(kPoolBits);
    for (auto& b : in.pool)
        b = rng.bit();
    const size_t span = kLongMax * kFrameElems * kMaxInWidth;
    for (int c = 0; c < kClients; ++c) {
        std::vector<SessionPlan> plan;
        while (plan.size() < kPlanPerClient) {
            std::vector<uint32_t> block = {8, 9, 10, 11, 12, 13, 14, 15, 16};
            block.push_back(48 + static_cast<uint32_t>(rng.below(49)));
            for (size_t i = block.size(); i > 1; --i)
                std::swap(block[i - 1], block[rng.below(i)]);
            for (uint32_t frames : block) {
                uint32_t off =
                    static_cast<uint32_t>(rng.below(kPoolBits - span));
                plan.push_back({frames, off});
                digest.add(frames);
                digest.add(off);
            }
        }
        in.clients.push_back(std::move(plan));
    }
    digest.add(in.pool.data(), in.pool.size());
    return in;
}

/** What one client thread observed. */
struct ClientStats
{
    uint64_t sessions = 0;
    uint64_t failed = 0;
    uint64_t frameBits = 0;  ///< input bits per frame
    double loopSec = 0;      ///< time this client spent running sessions
    std::string firstFailure;
    std::vector<double> frameMs, openMs, drainMs;
    std::vector<uint8_t> lastIn, lastOut;  ///< for the self-check
};

/** Blocking reader of whole wire frames. */
class Reader
{
  public:
    explicit Reader(int fd) : fd_(fd) {}

    bool
    next(serve::Frame& f)
    {
        for (;;) {
            FrameParser::Result r = parser_.next(f);
            if (r == FrameParser::Result::Frame)
                return true;
            if (r == FrameParser::Result::Error)
                return false;
            long n = recvSome(fd_, buf_, sizeof buf_);
            if (n <= 0)
                return false;
            parser_.feed(buf_, static_cast<size_t>(n));
        }
    }

  private:
    int fd_;
    FrameParser parser_;
    uint8_t buf_[64 * 1024];
};

/** One session: connect, Hello, stream frames, End, drain, check. */
std::string
runSession(uint16_t port, const SessionPlan& plan, const Inputs& in,
           ClientStats& cs)
{
    uint64_t t0 = nowNs();
    SockFd sock;
    {
        Span s("zserve.client.connect");
        try {
            sock = connectTcp("127.0.0.1", port);
        } catch (const std::exception& e) {
            return std::string("connect: ") + e.what();
        }
    }
    auto reader = std::make_unique<Reader>(sock.get());
    serve::Frame f;
    HelloInfo hi;
    {
        Span s("zserve.client.hello");
        if (!reader->next(f))
            return "no Hello";
        if (f.type == FrameType::Error)
            return "refused: " +
                   std::string(f.payload.begin(), f.payload.end());
        if (f.type != FrameType::Hello || !decodeHello(f.payload, hi))
            return "bad Hello";
    }
    double openMs = static_cast<double>(nowNs() - t0) * 1e-6;
    if (hi.inWidth == 0 || hi.inWidth > kMaxInWidth || hi.outWidth == 0)
        return "unexpected element widths";

    const size_t frameBytes = kFrameElems * hi.inWidth;
    const uint8_t* input = in.pool.data() + plan.offset;
    const size_t inBytes = plan.frames * frameBytes;
    std::vector<uint8_t> out;
    out.reserve(inBytes);
    std::vector<uint64_t> sentNs(plan.frames);
    std::vector<double> frameMs;
    std::vector<uint8_t> wire;
    {
        Span s("zserve.client.frames");
        uint64_t sent = 0, done = 0;
        while (done < plan.frames) {
            while (sent < plan.frames && sent - done < kWindow) {
                wire.clear();
                encodeFrame(wire, FrameType::Data, input + sent * frameBytes,
                            frameBytes);
                sentNs[sent] = nowNs();
                if (!sendAll(sock.get(), wire.data(), wire.size()))
                    return "send failed";
                ++sent;
            }
            if (!reader->next(f))
                return "connection lost mid-session";
            if (f.type == FrameType::Error)
                return "server error: " +
                       std::string(f.payload.begin(), f.payload.end());
            if (f.type != FrameType::Data)
                continue;
            out.insert(out.end(), f.payload.begin(), f.payload.end());
            uint64_t now = nowNs();
            while (done < sent && out.size() >= (done + 1) * frameBytes) {
                frameMs.push_back(static_cast<double>(now - sentNs[done]) *
                                  1e-6);
                ++done;
            }
        }
    }
    double drainMs = 0;
    {
        Span s("zserve.client.drain");
        wire.clear();
        encodeFrame(wire, FrameType::End);
        uint64_t tEnd = nowNs();
        if (!sendAll(sock.get(), wire.data(), wire.size()))
            return "send End failed";
        for (;;) {
            if (!reader->next(f))
                return "connection lost before End";
            if (f.type == FrameType::Data)
                out.insert(out.end(), f.payload.begin(), f.payload.end());
            else if (f.type == FrameType::Error)
                return "server error at End";
            else if (f.type == FrameType::End)
                break;
        }
        drainMs = static_cast<double>(nowNs() - tEnd) * 1e-6;
    }
    sock.reset();

    std::vector<uint8_t> sentBits(input, input + inBytes);
    std::string why;
    {
        Span s("bench.oracle");
        why = checkScrambler(sentBits, out);
    }
    if (!why.empty())
        return why;
    cs.openMs.push_back(openMs);
    cs.drainMs.push_back(drainMs);
    cs.frameMs.insert(cs.frameMs.end(), frameMs.begin(), frameMs.end());
    cs.frameBits = frameBytes;
    cs.lastIn = std::move(sentBits);
    cs.lastOut = std::move(out);
    return "";
}

void
clientLoop(uint16_t port, const Inputs& in, int client, size_t first,
           uint64_t count, ClientStats* cs)
{
    Stopwatch sw;
    Span root("bench.harness");
    const auto& plan = in.clients[static_cast<size_t>(client)];
    while (cs->sessions < count) {
        const SessionPlan& sp = plan[(first + cs->sessions) % plan.size()];
        std::string why = runSession(port, sp, in, *cs);
        ++cs->sessions;
        if (!why.empty() && cs->failed++ == 0)
            cs->firstFailure = why;
    }
    cs->loopSec = sw.elapsedSec();
}

struct Pass
{
    std::vector<ClientStats> clients;
    double wallSec = 0;
};

/**
 * All clients at once, client i running @p counts[i] sessions from its
 * session @p next[i] on, and advancing @p next[i] past them.
 */
Pass
runPass(uint16_t port, const Inputs& in, const std::vector<uint64_t>& counts,
        std::vector<size_t>& next)
{
    Pass ps;
    ps.clients.resize(kClients);
    Stopwatch wall;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back(clientLoop, port, std::cref(in), c,
                             next[static_cast<size_t>(c)],
                             counts[static_cast<size_t>(c)],
                             &ps.clients[static_cast<size_t>(c)]);
    for (auto& t : threads)
        t.join();
    ps.wallSec = wall.elapsedSec();
    for (int c = 0; c < kClients; ++c)
        next[static_cast<size_t>(c)] +=
            ps.clients[static_cast<size_t>(c)].sessions;
    return ps;
}

/** Wait until every accepted session has been closed by the server. */
void
quiesce(const Server& server)
{
    for (int i = 0; i < 5000 && server.counters().active != 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/** The per-session compile, timed on the server's I/O thread. */
struct FactoryLog
{
    std::mutex mu;
    std::vector<double> ms;
};

const std::vector<std::string> kServerCounters = {
    "server.sched.queued_ns", "server.sched.parked_ns",
    "server.sched.running_ns", "server.rx.bytes", "server.tx.bytes",
};

} // namespace

Result
runServeChurn(const Args& a)
{
    Result r;
    Digest digest;
    Inputs in = generate(a.seed, digest);

    CompilerOptions copt = CompilerOptions::forLevel(OptLevel::All);
    copt.backend = Backend::Vm;
    Calibration calib;
    MemoryWalk walk;
    CompileLog log;
    FactoryLog factory;
    double parseMs = 0;
    SetupTime setup;
    auto served = medianSetup(kSetupReps, calib, &setup, [&] {
        Stopwatch sw;
        CompPtr prog = parseComp(kScramblerSrc);
        parseMs = sw.elapsedSec() * 1e3;
        log.beginSet();
        log.pipeline(prog, copt);
        ServerConfig cfg;
        cfg.workers = kWorkers;
        cfg.maxSessions = 64;
        auto server = std::make_unique<Server>(
            [prog, copt, &factory](uint64_t) {
                Span span("zserve.factory");
                Stopwatch t;
                auto p = compilePipeline(prog, copt);
                std::lock_guard<std::mutex> lk(factory.mu);
                factory.ms.push_back(t.elapsedSec() * 1e3);
                return p;
            },
            cfg);
        server->start();
        return server;
    });
    r.e2e["setup_s"] = setup.sec;
    Server& server = *served;
    const uint16_t port = server.port();

    // Warm-up: two sessions per client; measuring then starts over at
    // the first block.
    std::vector<size_t> next(kClients, 0);
    runPass(port, in, std::vector<uint64_t>(kClients, 2), next);
    next.assign(kClients, 0);
    quiesce(server);
    {
        std::lock_guard<std::mutex> lk(factory.mu);
        factory.ms.clear();
    }

    CounterDelta counters(kServerCounters);
    Server::Counters c0 = server.counters();
    // Segments of one block (ten sessions) per client, so every segment
    // does the same work, until the time is up.  The server idles between
    // segments while the calibration kernel and the memory walk are
    // timed; a segment is taken against the mean of the units on either
    // side.  A traced run traces every second segment (an even number
    // run).
    std::vector<Pass> passes;
    double servedFrames = 0, servedSec = 0;
    double tracedClientSec = 0, untracedClientSec = 0;
    std::vector<double> units, segRel, segTail, relMs;
    bool selfCheck = true;
    auto idleUnit = [&] {
        return std::sqrt(calib.sample(kCalibChunks) *
                         walk.sample(kCalibChunks));
    };
    units.push_back(idleUnit());
    const std::vector<uint64_t> block(kClients, kBlock);
    Stopwatch sw;
    while ((a.trace && passes.size() % 2 == 1) ||
           sw.elapsedSec() < a.seconds) {
        const bool traced = a.trace && passes.size() % 2 == 1;
        Tracer::get().setEnabled(traced);
        passes.push_back(runPass(port, in, block, next));
        quiesce(server);
        Tracer::get().setEnabled(false);
        units.push_back(idleUnit());

        Pass& ps = passes.back();
        std::vector<double> ms;
        for (auto& c : ps.clients) {
            ms.insert(ms.end(), c.frameMs.begin(), c.frameMs.end());
            (traced ? tracedClientSec : untracedClientSec) += c.loopSec;
            // Check each client's last session now and drop it, so the
            // benchmark's own memory does not grow with the segment count
            // and move peak_rss_mb.
            selfCheck = selfCheck && !c.lastOut.empty() &&
                        !checkScrambler(c.lastIn, flipped(c.lastOut,
                                                          c.lastOut.size() /
                                                              2))
                             .empty();
            std::vector<uint8_t>().swap(c.lastIn);
            std::vector<uint8_t>().swap(c.lastOut);
        }
        double frames = static_cast<double>(ms.size());
        servedFrames += frames;
        servedSec += ps.wallSec;
        double unit = (units[units.size() - 2] + units.back()) / 2;
        segRel.push_back(frames * unit / ps.wallSec);
        for (double& m : ms) {
            m *= 1e-3 / unit;
            relMs.push_back(m);
        }
        segTail.push_back(tail(ms).value);
    }
    if (a.trace) {
        // Client threads run concurrently, so the accounting compares
        // summed client-thread time, traced against untraced.
        traceAccounting(r, untracedClientSec, tracedClientSec,
                        {"zserve.client.connect", "zserve.client.hello",
                         "zserve.client.frames", "zserve.client.drain"});
        auto totals = Tracer::get().totals();
        r.layer["zserve.client.connect_s"] =
            totals["zserve.client.connect"].durSec;
        r.layer["zserve.client.hello_s"] = totals["zserve.client.hello"].durSec;
        r.layer["zserve.client.frames_s"] =
            totals["zserve.client.frames"].durSec;
        r.layer["zserve.client.drain_s"] = totals["zserve.client.drain"].durSec;
    }
    quiesce(server);
    std::vector<double> d = counters.delta();
    Server::Counters c1 = server.counters();
    served.reset();  // joins the I/O thread and workers

    ClientStats all;
    for (const Pass& ps : passes)
        for (const auto& c : ps.clients) {
            r.attempted += c.sessions;
            r.failed += c.failed;
            all.frameBits = std::max(all.frameBits, c.frameBits);
            all.frameMs.insert(all.frameMs.end(), c.frameMs.begin(),
                               c.frameMs.end());
            all.openMs.insert(all.openMs.end(), c.openMs.begin(),
                              c.openMs.end());
            all.drainMs.insert(all.drainMs.end(), c.drainMs.begin(),
                               c.drainMs.end());
            if (all.firstFailure.empty())
                all.firstFailure = c.firstFailure;
        }
    r.selfCheckFired = selfCheck;

    log.fill(r);
    std::vector<double> factoryMs;
    {
        std::lock_guard<std::mutex> lk(factory.mu);
        factoryMs = factory.ms;
    }
    double factorySum = 0;
    for (double m : factoryMs)
        factorySum += m;
    r.layer["zparse.parse_ms"] = parseMs;
    r.layer["zserve.factory_ms_p50"] = median(factoryMs);
    r.layer["zserve.factory_ms_p99"] = tail(factoryMs).value;
    r.layer["zserve.factory_ms_sum"] = factorySum;
    r.layer["zserve.sched.queued_ns"] = d[0];
    r.layer["zserve.sched.parked_ns"] = d[1];
    r.layer["zserve.sched.running_ns"] = d[2];
    r.layer["zserve.rx_bytes"] = d[3];
    r.layer["zserve.tx_bytes"] = d[4];
    r.layer["zserve.sessions.accepted"] =
        static_cast<double>(c1.accepted - c0.accepted);
    r.layer["zserve.sessions.completed"] =
        static_cast<double>(c1.completed - c0.completed);
    r.layer["zserve.sessions.evicted"] =
        static_cast<double>(c1.evicted - c0.evicted);
    r.layer["zserve.sessions.rejected"] =
        static_cast<double>(c1.rejected - c0.rejected);
    r.layer["zserve.drain_ms"] = median(all.drainMs);

    double framesPerSec = servedFrames / servedSec;
    double elemsPerSec = framesPerSec * kFrameElems;
    Quantile frame99 = tail(all.frameMs);
    Quantile open99 = tail(all.openMs);
    double frame50 = median(all.frameMs);
    double open50 = median(all.openMs);
    double failRatio = r.attempted ? static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted)
                                   : 1;
    double goodput = framesPerSec * static_cast<double>(all.frameBits) / 1e6;
    r.e2e["throughput_rel"] = median(segRel);
    r.e2e["latency_p50_rel"] = median(relMs);
    // The tail of one segment's frames swings about 15% between segments
    // (which sessions' compiles bunch up on the I/O thread), and a
    // whole-run quantile follows the worst few segments; the median of
    // the segments' tails holds still.
    r.e2e["latency_p99_rel"] = median(segTail);
    r.layer["calib.chunk_us"] = median(calib.history()) * 1e6;
    r.layer["calib.walk_us"] = median(walk.history()) * 1e6;
    r.layer["e2e.goodput_mbps"] = goodput;
    r.layer["e2e.serve_elems_per_s"] = elemsPerSec;
    r.layer["e2e.frame_ms_p50"] = frame50;
    r.layer["e2e.frame_ms_p99"] = frame99.value;
    r.layer["e2e.session_open_ms_p50"] = open50;
    r.layer["e2e.session_open_ms_p99"] = open99.value;
    r.layer["e2e.fail_ratio"] = failRatio;

    r.nameValue("setup_s", setup.wallSec, "s",
                "parse + compile + server start, median of " +
                    std::to_string(kSetupReps));
    r.nameValue("serve_elems_per_s", elemsPerSec, "1/s",
                "input elements served / time under load");
    r.nameValue("frame_ms_p50", frame50, "ms", "send -> last output");
    r.nameValue("frame_ms_p99", frame99.value, "ms",
                "quantile " + std::to_string(frame99.q) + " of " +
                    std::to_string(frame99.n));
    r.nameValue("session_open_ms_p50", open50, "ms", "connect -> Hello");
    r.nameValue("session_open_ms_p99", open99.value, "ms",
                "quantile " + std::to_string(open99.q) + " of " +
                    std::to_string(open99.n));
    r.nameValue("fail_ratio", failRatio, "ratio", "failed / sessions");
    r.nameValue("goodput_mbps", goodput, "Mbit/s", "scrambled bits served");
    r.nameValue("calib.chunk_us", r.layer["calib.chunk_us"], "us",
                "calibration kernel, median chunk, server idle");
    r.nameValue("calib.walk_us", r.layer["calib.walk_us"], "us",
                "memory walk, median, server idle");

    r.envelope["backend"] = "vm";
    r.envelope["opt"] = "all";
    r.envelope["programs"] = "Figure 3 scrambler (zserve, 2 workers, "
                             "4 clients, window 4)";
    r.envelope["input_digest"] = digest.hex();
    if (!all.firstFailure.empty())
        r.envelope["first_failure"] = all.firstFailure;
    return r;
}

} // namespace perfbench
