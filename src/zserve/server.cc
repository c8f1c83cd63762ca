#include "zserve/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "support/log.h"
#include "support/metrics.h"
#include "support/timeline.h"
#include "support/timing.h"
#include "zexec/ckpt_store.h"

namespace ziria {
namespace serve {

namespace {

/** Poll period: also the resolution of idle/close/metrics timers. */
constexpr int kPollMs = 20;

/** Raw output bytes packed into one Data frame. */
constexpr size_t kDataChunk = 64 * 1024;

/** Keep at most about this much framed output staged per session. */
constexpr size_t kWireTarget = 128 * 1024;

/** Per-pass socket-write budget (fairness across sessions). */
constexpr size_t kWriteBudget = 1u << 20;

/** How long a closing session may linger flushing its trailer. */
constexpr uint64_t kCloseGraceNs = 3ull * 1000 * 1000 * 1000;

uint64_t
msToNs(double ms)
{
    return static_cast<uint64_t>(ms * 1e6);
}

/** Timeline track ids for session scheduler lanes (clear of the
 *  per-thread ids handed out by timeline::currentTrack()). */
constexpr uint32_t kSchedTrackBase = 1u << 16;

const char*
schedName(Session::Sched s)
{
    switch (s) {
      case Session::Sched::Parked: return "parked";
      case Session::Sched::Queued: return "queued";
      case Session::Sched::Running: return "running";
      case Session::Sched::Dead: return "dead";
    }
    return "?";
}

/**
 * Transition a session's scheduler state, charging the dwell in the
 * state being left to its per-state accumulator and emitting the left
 * state as a timeline slice.  Caller holds the scheduler mutex.
 */
void
schedMove(Session& s, Session::Sched next, uint64_t now)
{
    if (s.sched == next)
        return;
    uint64_t dur = now > s.schedEnteredNs ? now - s.schedEnteredNs : 0;
    switch (s.sched) {
      case Session::Sched::Parked: s.parkedNs += dur; break;
      case Session::Sched::Queued: s.queuedNs += dur; break;
      case Session::Sched::Running: s.runningNs += dur; break;
      case Session::Sched::Dead: break;
    }
    if (auto* rec = timeline::active(); rec && dur > 0) {
        if (s.schedTrack == 0) {
            s.schedTrack =
                kSchedTrackBase + static_cast<uint32_t>(s.id());
            rec->nameTrack(s.schedTrack, "session" +
                                             std::to_string(s.id()) +
                                             " sched");
        }
        rec->complete("sched", schedName(s.sched), s.schedEnteredNs,
                      dur, s.schedTrack);
    }
    s.sched = next;
    s.schedEnteredNs = now;
}

} // namespace

Server::Server(PipelineFactory factory, ServerConfig cfg)
    : factory_(std::move(factory)), cfg_(std::move(cfg))
{
    listen_ = listenTcp(cfg_.port);
    setNonBlocking(listen_.get());
    port_ = boundPort(listen_.get());

    // Touch every counter up front so a metrics dump shows zeros instead
    // of omitting the serving section entirely.
    auto& reg = metrics::Registry::global();
    reg.counter("server.sessions.accepted");
    reg.counter("server.sessions.rejected");
    reg.counter("server.sessions.evicted");
    reg.counter("server.sessions.completed");
    reg.counter("server.protocol_errors");
    reg.counter("server.rx.frames");
    reg.counter("server.rx.bytes");
    reg.counter("server.tx.frames");
    reg.counter("server.tx.bytes");
    reg.counter("server.sched.parked_ns");
    reg.counter("server.sched.queued_ns");
    reg.counter("server.sched.running_ns");
    reg.counter("server.drain.completed");
    reg.counter("server.drain.aborted");
    reg.counter("server.migrations.saved");
    reg.counter("server.migrations.restored");
    reg.counter("server.migrations.live_sent");
    reg.counter("server.migrations.live_received");
    reg.counter("server.migrations.live_failed");
    reg.counter("ziria.ckpt.disk.saved");
    reg.counter("ziria.ckpt.disk.loaded");
    reg.counter("ziria.ckpt.disk.quarantined");
    reg.counter("ziria.ckpt.disk.gc");
    reg.gauge("server.sessions.active");
    reg.gauge("server.sessions.compiling");
    reg.histogram("server.compile.wait_ns");

    if (!cfg_.ckptDir.empty())
        store_ = std::make_unique<CkptStore>(cfg_.ckptDir);
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (started_)
        return;
    stopping_.store(false);
    drainSwept_.store(false);
    started_ = true;
    ioThread_ = std::thread(&Server::ioLoop, this);
    compileThread_ = std::thread(&Server::compileLoop, this);
    int n = std::max(1, cfg_.workers);
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back(&Server::workerLoop, this);
}

void
Server::stop()
{
    if (!started_)
        return;
    stopping_.store(true);
    wake_.wake();
    {
        // Taken and dropped so a worker between its predicate check and
        // its sleep cannot miss the notify below.
        std::lock_guard<std::mutex> lk(schedMu_);
    }
    schedCv_.notify_all();
    {
        // Likewise for the compile thread.
        std::lock_guard<std::mutex> lk(compileMu_);
    }
    compileCv_.notify_all();
    if (ioThread_.joinable())
        ioThread_.join();
    schedCv_.notify_all();
    for (auto& w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    // A compile in progress runs to its end; its result is dropped.
    if (compileThread_.joinable())
        compileThread_.join();
    compileq_.clear();
    compiled_.clear();
    started_ = false;
}

void
Server::drainStop()
{
    if (!started_)
        return;
    draining_.store(true);
    wake_.wake();
    const uint64_t deadline =
        nowNs() + msToNs(std::max(cfg_.drainTimeoutMs, 0.0));
    while (nowNs() < deadline && !stopping_.load()) {
        // Until the I/O thread has swept the compiling connections, a
        // connection accepted just before the drain may still be
        // waiting for its pipeline with no session counted yet.
        if (drainSwept_.load() && counters().active == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        wake_.wake();  // keep the I/O loop turning the drain crank
    }
    stop();
}

Server::Counters
Server::counters() const
{
    Counters c;
    c.accepted = accepted_.load();
    c.rejected = rejected_.load();
    c.evicted = evicted_.load();
    c.completed = completed_.load();
    uint64_t closedTotal = c.evicted + c.completed;
    c.active = c.accepted > closedTotal ? c.accepted - closedTotal : 0;
    c.compiling = compilingCount_.load();
    return c;
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

void
Server::enqueue(const std::shared_ptr<Session>& s)
{
    bool notify = false;
    {
        std::lock_guard<std::mutex> lk(schedMu_);
        switch (s->sched) {
          case Session::Sched::Parked:
            schedMove(*s, Session::Sched::Queued, nowNs());
            runq_.push_back(s);
            notify = true;
            break;
          case Session::Sched::Running:
            // Wake arrived mid-burst: make the owning worker requeue the
            // session when its burst ends instead of parking it.
            s->again = true;
            break;
          case Session::Sched::Queued:
          case Session::Sched::Dead:
            break;
        }
    }
    if (notify)
        schedCv_.notify_one();
}

void
Server::workerLoop()
{
    for (;;) {
        std::shared_ptr<Session> s;
        {
            std::unique_lock<std::mutex> lk(schedMu_);
            schedCv_.wait(lk, [&] {
                return stopping_.load() || !runq_.empty();
            });
            if (stopping_.load())
                return;
            s = std::move(runq_.front());
            runq_.pop_front();
            if (s->sched == Session::Sched::Dead)
                continue;  // evicted while queued
            schedMove(*s, Session::Sched::Running, nowNs());
            s->again = false;
        }

        StepResult r = s->step();

        bool requeue = false;
        {
            std::lock_guard<std::mutex> lk(schedMu_);
            uint64_t now = nowNs();
            if (s->sched == Session::Sched::Dead) {
                // Evicted mid-step; stays dead.
            } else if (r == StepResult::Finished ||
                       r == StepResult::Failed) {
                schedMove(*s, Session::Sched::Dead, now);
            } else if (r == StepResult::Again || s->again) {
                schedMove(*s, Session::Sched::Queued, now);
                runq_.push_back(s);
                requeue = true;
            } else {
                schedMove(*s, Session::Sched::Parked, now);
            }
            s->again = false;
        }
        if (requeue)
            schedCv_.notify_one();
        // Output, queue space, or completion news for the I/O thread.
        wake_.wake();
    }
}

// ---------------------------------------------------------------------
// Compile thread
// ---------------------------------------------------------------------

/**
 * Build one pipeline per queued connection, in accept order, and post
 * each result for the I/O thread.  The I/O thread keeps the socket; this
 * thread sees only the session id.
 */
void
Server::compileLoop()
{
    for (;;) {
        Compiled c;
        {
            std::unique_lock<std::mutex> lk(compileMu_);
            compileCv_.wait(lk, [&] {
                return stopping_.load() || !compileq_.empty();
            });
            if (stopping_.load())
                return;
            c.id = compileq_.front();
            compileq_.pop_front();
        }
        try {
            c.pipe = factory_(c.id);
        } catch (const std::exception& e) {
            c.refuse = std::string("pipeline construction failed: ") +
                       e.what();
        } catch (...) {
            c.refuse = "pipeline construction failed";
        }
        if (c.refuse.empty() && !c.pipe)
            c.refuse = "pipeline construction failed";
        if (c.refuse.empty() && (c.pipe->inWidth() > kMaxPayload ||
                                 c.pipe->outWidth() > kMaxPayload))
            c.refuse = "element width exceeds the frame payload cap";
        {
            std::lock_guard<std::mutex> lk(compileMu_);
            compiled_.push_back(std::move(c));
        }
        wake_.wake();
    }
}

// ---------------------------------------------------------------------
// I/O thread
// ---------------------------------------------------------------------

void
Server::ioLoop()
{
    lastMetricsNs_ = nowNs();
    std::vector<pollfd> pfds;
    std::vector<int> fds;
    std::vector<std::shared_ptr<Session>> snap;

    while (!stopping_.load(std::memory_order_relaxed)) {
        const bool draining = draining_.load(std::memory_order_relaxed);

        // Quiesce-dependent work runs BEFORE the service pass: a worker
        // that parked a session wakes this loop, and at this point its
        // input queue is still empty, so the park is observable.  After
        // serviceSession refills the queues a saturated session goes
        // straight back to Queued and a persist/migration pass would
        // never catch it quiescent.
        if (!draining) {
            driveMigrations();  // resolve queued live migrations
            drivePersist();     // durable cadence for keyed sessions
        }

        // Service every session before sleeping: worker wakeups (new
        // output, completion) and retried input flushes land here.
        snap.clear();
        snap.reserve(sessions_.size());
        for (auto& kv : sessions_)
            snap.push_back(kv.second);
        for (auto& s : snap)
            serviceSession(s);  // may close sessions

        if (draining) {
            // Accepts stop with this pass (the listen socket is not
            // polled), so one sweep refuses every connection whose
            // pipeline has not come back.
            refuseCompiling();
            drainSwept_.store(true);
            driveDrain();  // checkpoint quiesced mid-stream sessions
        }

        pfds.clear();
        fds.clear();
        pfds.push_back(pollfd{wake_.readFd(), POLLIN, 0});
        pfds.push_back(pollfd{listen_.get(),
                              static_cast<short>(draining ? 0 : POLLIN),
                              0});
        for (auto& kv : sessions_) {
            auto& s = kv.second;
            short ev = 0;
            // Draining: no new input is read — mid-stream sessions are
            // checkpointed back to their clients instead.
            if (!s->closing && !s->inputEnded && !s->readPaused &&
                !draining)
                ev |= POLLIN;
            // Closing with unread client input pending: keep reading
            // (and discarding) so the kernel never answers with a RST.
            if (s->closing && s->drainOnClose && !s->inputEnded)
                ev |= POLLIN;
            if (s->outWire.size() > s->outWirePos)
                ev |= POLLOUT;
            pfds.push_back(pollfd{kv.first, ev, 0});
            fds.push_back(kv.first);
        }

        int pr = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                        kPollMs);
        if (stopping_.load(std::memory_order_relaxed))
            break;
        if (pr > 0) {
            if (pfds[0].revents & POLLIN)
                wake_.drain();
            if (pfds[1].revents & POLLIN)
                acceptPending();
            adoptCompiled();
            // Handlers may close sessions; fds freed here are not handed
            // out again until the next pass (accepts happened above), so
            // a by-fd re-lookup is a reliable liveness check.
            for (size_t i = 0; i < fds.size(); ++i) {
                short re = pfds[i + 2].revents;
                if (!re)
                    continue;
                auto it = sessions_.find(fds[i]);
                if (it == sessions_.end())
                    continue;
                std::shared_ptr<Session> s = it->second;
                if (re & (POLLERR | POLLNVAL)) {
                    s->evictOnClose = true;
                    closeNow(s);
                    continue;
                }
                if (re & (POLLIN | POLLHUP))
                    handleRead(s);
                auto it2 = sessions_.find(fds[i]);
                if (it2 == sessions_.end() || it2->second != s)
                    continue;
                if (re & POLLOUT)
                    handleWrite(s);
            }
        }
        sweep();
    }

    // Teardown: mark every session dead (workers drop them on sight),
    // unblock any stalled step, close the sockets.
    {
        std::lock_guard<std::mutex> lk(schedMu_);
        uint64_t now = nowNs();
        for (auto& kv : sessions_) {
            schedMove(*kv.second, Session::Sched::Dead, now);
            kv.second->again = false;
        }
        runq_.clear();
    }
    // Sessions still live at force-stop lost in-flight work; under a
    // drain that is the failure the counter exists to expose.
    if (draining_.load()) {
        for (auto& kv : sessions_)
            if (!kv.second->drainCounted)
                metrics::Registry::global()
                    .counter("server.drain.aborted")
                    .inc();
    }
    for (auto& kv : sessions_) {
        kv.second->cancel();
        ::close(kv.first);
    }
    sessions_.clear();
    for (auto& kv : compiling_)
        ::close(kv.second.fd);
    compiling_.clear();
    publishCompiling();
    metrics::Registry::global().gauge("server.sessions.active").set(0);
}

void
Server::acceptPending()
{
    for (;;) {
        sockaddr_in peer{};
        socklen_t plen = sizeof peer;
        int cfd = ::accept(listen_.get(),
                           reinterpret_cast<sockaddr*>(&peer), &plen);
        if (cfd < 0)
            break;  // EAGAIN (drained) or a transient error: next pass
        setNonBlocking(cfd);
        setNoDelay(cfd);

        // Connections still compiling hold their slot.
        if (sessions_.size() + compiling_.size() >= cfg_.maxSessions) {
            refuseConnection(cfd, "server full: session limit reached");
            continue;
        }
        const uint64_t id = nextId_++;
        compiling_[id] = PendingConn{cfd, nowNs()};
        {
            std::lock_guard<std::mutex> lk(compileMu_);
            compileq_.push_back(id);
        }
        compileCv_.notify_one();
    }
    publishCompiling();
}

/** Mirror compiling_.size() into counters() and the registry gauge. */
void
Server::publishCompiling()
{
    compilingCount_.store(compiling_.size());
    metrics::Registry::global()
        .gauge("server.sessions.compiling")
        .set(static_cast<double>(compiling_.size()));
}

/**
 * Turn every posted compile into a session (I/O thread): Hello and
 * scheduling as an accept did when it compiled inline, or the refusal's
 * Error frame.  A result whose connection a drain already refused is
 * dropped.
 */
void
Server::adoptCompiled()
{
    std::vector<Compiled> done;
    {
        std::lock_guard<std::mutex> lk(compileMu_);
        done.swap(compiled_);
    }
    if (done.empty())
        return;
    auto& reg = metrics::Registry::global();
    for (Compiled& c : done) {
        auto it = compiling_.find(c.id);
        if (it == compiling_.end())
            continue;
        const PendingConn pc = it->second;
        compiling_.erase(it);
        if (!c.refuse.empty()) {
            refuseConnection(pc.fd, c.refuse);
            continue;
        }

        FaultSpec fault;
        if (cfg_.fault.enabled() &&
            (cfg_.faultSession < 0 ||
             static_cast<int64_t>(c.id) == cfg_.faultSession))
            fault = cfg_.fault;

        auto s = std::make_shared<Session>(c.id, pc.fd, std::move(c.pipe),
                                           cfg_.session, fault);
        s->lastActivityNs = nowNs();
        s->schedEnteredNs = s->lastActivityNs;  // dwell clock starts now
        encodeHello(s->outWire, static_cast<uint32_t>(s->inWidth()),
                    static_cast<uint32_t>(s->outWidth()));
        ++s->txFrames;
        sessions_[pc.fd] = s;
        accepted_.fetch_add(1);
        reg.counter("server.sessions.accepted").inc();
        reg.observe("server.compile.wait_ns",
                    s->lastActivityNs - pc.acceptNs);
        // Source-style pipelines produce output with no input at all.
        enqueue(s);
    }
    reg.gauge("server.sessions.active")
        .set(static_cast<double>(sessions_.size()));
    publishCompiling();
}

/** Drain pass (I/O thread): refuse every connection still waiting for
 *  its pipeline; queued compiles are skipped, a running one's result is
 *  dropped. */
void
Server::refuseCompiling()
{
    if (compiling_.empty())
        return;
    {
        std::lock_guard<std::mutex> lk(compileMu_);
        compileq_.clear();
    }
    for (auto& kv : compiling_)
        refuseConnection(kv.second.fd,
                         "server draining: session not started");
    compiling_.clear();
    publishCompiling();
}

/** Answer a connection that gets no session with an Error frame and
 *  close it; counted in server.sessions.rejected. */
void
Server::refuseConnection(int fd, const std::string& msg)
{
    std::vector<uint8_t> wire;
    encodeError(wire, msg);
    // Nothing has been written to this socket yet, so its send buffer is
    // empty and one non-blocking send delivers this small frame (best
    // effort regardless).
    (void)!::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    ::close(fd);
    rejected_.fetch_add(1);
    metrics::Registry::global().counter("server.sessions.rejected").inc();
}

void
Server::tryFlushPending(const std::shared_ptr<Session>& s)
{
    if (s->closing || s->queueClosed)
        return;
    if (s->quiescing) {
        // A persist or migration is waiting for this session to park:
        // hold input back so the worker drains the queue and quiesces.
        // Anything already pending keeps the socket read-paused.
        if (s->pendingPos < s->pendingIn.size())
            s->readPaused = true;
        return;
    }
    if (s->pendingPos < s->pendingIn.size()) {
        size_t consumed = 0;
        s->offerInput(s->pendingIn.data() + s->pendingPos,
                      s->pendingIn.size() - s->pendingPos, consumed);
        s->pendingPos += consumed;
        if (consumed > 0)
            enqueue(s);
    }
    if (s->pendingPos >= s->pendingIn.size()) {
        s->pendingIn.clear();
        s->pendingPos = 0;
        s->readPaused = false;
        if (s->inputEnded) {
            s->queueClosed = true;
            s->endInput();
            enqueue(s);  // let the worker observe end of input
        }
    } else {
        s->readPaused = true;  // queue full: TCP backpressure
    }
}

void
Server::processFrames(const std::shared_ptr<Session>& s)
{
    Frame f;
    while (!s->closing && !s->readPaused) {
        FrameParser::Result r = s->parser.next(f);
        if (r == FrameParser::Result::NeedMore)
            return;
        if (r == FrameParser::Result::Error) {
            protocolError(s, s->parser.error());
            return;
        }
        switch (f.type) {
          case FrameType::Data: {
            if (s->inputEnded) {
                protocolError(s, "Data frame after End");
                return;
            }
            size_t inW = s->inWidth();
            if (inW == 0) {
                protocolError(s, "pipeline takes no input");
                return;
            }
            if (f.payload.empty() || f.payload.size() % inW != 0) {
                protocolError(
                    s, "Data payload of " +
                           std::to_string(f.payload.size()) +
                           " byte(s) is not a positive multiple of the " +
                           std::to_string(inW) + "-byte element width");
                return;
            }
            ++s->rxFrames;
            s->sawData = true;
            s->pendingIn.insert(s->pendingIn.end(), f.payload.begin(),
                                f.payload.end());
            tryFlushPending(s);
            break;
          }
          case FrameType::Checkpoint: {
            // Migration restore: must be the first thing the client
            // says, before the pipeline has been fed anything.
            if (s->streamStarted()) {
                protocolError(s, "Checkpoint frame after session start");
                return;
            }
            if (s->inWidth() == 0) {
                // A source-style pipeline starts emitting on accept;
                // restoring over it would duplicate delivered output.
                protocolError(
                    s, "checkpoint restore into a source-style pipeline");
                return;
            }
            if (f.payload.empty()) {
                protocolError(s, "empty Checkpoint payload");
                return;
            }
            ++s->rxFrames;
            s->restoredFromCkpt = true;
            s->adoptCheckpoint(std::move(f.payload));
            enqueue(s);  // worker applies the restore and resumes
            break;
          }
          case FrameType::End:
            s->inputEnded = true;
            tryFlushPending(s);
            break;
          case FrameType::Stat: {
            if (!f.payload.empty()) {
                protocolError(s, "Stat request with a payload");
                return;
            }
            ++s->rxFrames;
            std::string json = statJson(s);
            if (json.size() > kMaxPayload)
                json = "{\"error\":\"stat document exceeds the frame "
                       "payload cap\"}";
            encodeFrame(s->outWire, FrameType::Stat,
                        reinterpret_cast<const uint8_t*>(json.data()),
                        json.size());
            ++s->txFrames;
            break;
          }
          case FrameType::Error:
            // Client abort: nothing useful to send back.
            s->evictOnClose = true;
            closeNow(s);
            return;
          case FrameType::Hello:
            handleAttach(s, f);
            if (s->closing)
                return;  // attach rejected
            break;
          case FrameType::Migrate:
            handleMigrate(s, f);
            if (s->closing)
                return;  // transfer answered (orderly close) or rejected
            break;
          case FrameType::Halt:
            protocolError(s, std::string("unexpected ") +
                                 frameTypeName(f.type) +
                                 " frame from client");
            return;
        }
    }
}

/**
 * Client -> server attach Hello (I/O thread): bind this connection to a
 * durable session key and resume from retained state — a migration
 * checkpoint adopted from a peer first, else the newest valid disk
 * generation — resending or suppressing output so the client-side
 * concatenated stream is byte-identical.  A fresh key arms output
 * retention so a later persist / re-attach / migration has a tail.
 */
void
Server::handleAttach(const std::shared_ptr<Session>& s, Frame& f)
{
    if (s->streamStarted()) {
        protocolError(s, "attach Hello after session start");
        return;
    }
    if (s->stagedData) {
        // An emit-before-take pipeline already put Data on the wire, so
        // the retained-output accounting can't be anchored; the client
        // must attach before the pipeline outruns it.
        protocolError(s, "attach Hello raced with pipeline output");
        return;
    }
    std::string key;
    uint64_t received = 0;
    if (!decodeAttachHello(f.payload, key, received)) {
        protocolError(s, "malformed attach Hello");
        return;
    }
    if (s->inWidth() == 0) {
        protocolError(s, "session attach to a source-style pipeline");
        return;
    }
    if (findByKey(key, s.get())) {
        protocolError(s, "session key is already live on this server");
        return;
    }
    ++s->rxFrames;
    s->attached = true;
    s->sessionKey = key;

    // A migration handed over live takes precedence over whatever the
    // disk store last persisted (the adoption is strictly newer).
    std::vector<uint8_t> ckpt;
    bool have = false;
    auto it = pendingAdoptions_.find(key);
    if (it != pendingAdoptions_.end()) {
        ckpt = std::move(it->second.payload);
        pendingAdoptions_.erase(it);
        have = true;
    } else if (store_) {
        have = store_->load(key, ckpt);
    }

    uint64_t resumeElems = 0;
    std::vector<uint8_t> resend;
    if (have) {
        std::string err = s->adoptResume(ckpt, received, resend,
                                         resumeElems);
        if (!err.empty()) {
            protocolError(s, "session resume failed: " + err);
            return;
        }
        s->restoredFromCkpt = true;
    } else {
        if (received != 0) {
            protocolError(s, "no retained state for this session key "
                             "but the client has already received "
                             "output");
            return;
        }
        s->beginRetention();
    }
    encodeHelloResume(s->outWire, static_cast<uint32_t>(s->inWidth()),
                      static_cast<uint32_t>(s->outWidth()), resumeElems);
    ++s->txFrames;
    // Restage the retained tail the re-attaching client is missing.
    size_t pos = 0;
    while (pos < resend.size()) {
        size_t n = std::min(resend.size() - pos, kDataChunk);
        stageData(s, resend.data() + pos, n);
        pos += n;
    }
    if (have)
        enqueue(s);  // worker applies the restore before stepping
}

/**
 * Migrate frames from a connected peer (I/O thread).  A Request (from
 * an operator client) queues a MigrationJob that driveMigrations
 * resolves; a Transfer (from the source server of a live migration)
 * stashes the checkpoint for its data client's re-attach and closes the
 * transfer channel; anything else is a protocol violation.
 */
void
Server::handleMigrate(const std::shared_ptr<Session>& s, Frame& f)
{
    auto& reg = metrics::Registry::global();
    if (f.payload.empty()) {
        protocolError(s, "empty Migrate payload");
        return;
    }
    ++s->rxFrames;
    switch (static_cast<MigrateSub>(f.payload[0])) {
      case MigrateSub::Request: {
        std::string key, host;
        uint16_t port = 0;
        if (!decodeMigrateRequest(f.payload, key, host, port)) {
            protocolError(s, "malformed Migrate request");
            return;
        }
        MigrationJob job;
        job.key = key;
        job.host = host;
        job.port = port;
        job.operatorFd = s->fd();
        job.deadlineNs =
            nowNs() + msToNs(std::max(cfg_.migrateTimeoutMs, 1.0));
        migrations_.push_back(std::move(job));
        return;  // the Ack is sent when the job resolves
      }
      case MigrateSub::Transfer: {
        if (s->streamStarted()) {
            protocolError(s, "Migrate transfer after session start");
            return;
        }
        std::string key;
        std::vector<uint8_t> ckpt;
        std::string reject;
        if (!decodeMigrateTransfer(f.payload, key, ckpt))
            reject = "malformed Migrate transfer";
        else if (findByKey(key, s.get()))
            reject = "session key is already live on this server";
        else if (pendingAdoptions_.count(key))
            reject = "an adoption for this key is already pending";
        else {
            reject = s->checkContinuation(ckpt);
            if (!reject.empty())
                reject = "invalid session checkpoint: " + reject;
        }
        encodeMigrateAck(s->outWire, reject.empty(),
                         reject.empty() ? "adopted" : reject);
        ++s->txFrames;
        if (reject.empty()) {
            PendingAdoption ad;
            ad.payload = std::move(ckpt);
            ad.stampNs = nowNs();
            pendingAdoptions_[key] = std::move(ad);
            reg.counter("server.migrations.live_received").inc();
        }
        // Either way the transfer channel is done: orderly close.
        encodeFrame(s->outWire, FrameType::End);
        ++s->txFrames;
        s->closing = true;
        s->closeDeadlineNs = nowNs() + kCloseGraceNs;
        s->cancel();
        return;
      }
      default:
        protocolError(s, "unexpected Migrate subtype from client");
        return;
    }
}

std::shared_ptr<Session>
Server::findByKey(const std::string& key, const Session* skip)
{
    if (key.empty())
        return nullptr;
    for (auto& kv : sessions_) {
        auto& s = kv.second;
        if (s.get() != skip && !s->closing && s->sessionKey == key)
            return s;
    }
    return nullptr;
}

void
Server::handleRead(const std::shared_ptr<Session>& s)
{
    if (s->closing) {
        if (!s->drainOnClose || s->inputEnded)
            return;
        // Discard whatever the client is still sending; its bytes are
        // covered by the migrated/checkpointed state.  EOF means the
        // client has seen the trailer and hung up.
        uint8_t junk[64 * 1024];
        for (;;) {
            long n = recvSome(s->fd(), junk, sizeof junk);
            if (n > 0)
                continue;
            if (n == 0 || n == -2) {
                s->inputEnded = true;
                if (s->outWire.size() == s->outWirePos)
                    closeNow(s);
            }
            return;
        }
    }
    if (s->inputEnded || s->readPaused)
        return;
    uint8_t buf[64 * 1024];
    long n = recvSome(s->fd(), buf, sizeof buf);
    if (n > 0) {
        s->rxBytes += static_cast<uint64_t>(n);
        s->lastActivityNs = nowNs();
        s->parser.feed(buf, static_cast<size_t>(n));
        processFrames(s);
    } else if (n == 0) {
        if (s->parser.midFrame()) {
            protocolError(s, "connection closed mid-frame");
            return;
        }
        // Orderly half-close counts as End: drain and answer.
        s->inputEnded = true;
        tryFlushPending(s);
    } else if (n == -2) {
        s->evictOnClose = true;
        closeNow(s);
    }
}

void
Server::handleWrite(const std::shared_ptr<Session>& s)
{
    size_t budget = kWriteBudget;
    for (;;) {
        if (s->outWire.size() == s->outWirePos) {
            s->outWire.clear();
            s->outWirePos = 0;
            serviceSession(s);  // refill from raw output / queue trailer
            if (s->closing && s->outWire.empty())
                return;  // serviceSession closed it (or nothing left)
            if (s->outWire.empty())
                return;
        }
        if (budget == 0)
            return;  // fairness: yield to the other sessions
        size_t avail = s->outWire.size() - s->outWirePos;
        size_t len = std::min(avail, budget);
        ssize_t n = ::send(s->fd(), s->outWire.data() + s->outWirePos,
                           len, MSG_NOSIGNAL);
        if (n > 0) {
            s->outWirePos += static_cast<size_t>(n);
            s->txBytes += static_cast<uint64_t>(n);
            // Advance the delivered-payload watermark past every staged
            // Data frame the kernel has now fully accepted.
            const uint64_t sentBefore = s->sentPayloadAbs;
            while (!s->txMarks.empty() &&
                   s->txMarks.front().first <= s->txBytes) {
                s->sentPayloadAbs = s->txMarks.front().second;
                s->txMarks.pop_front();
            }
            // Without a store nothing persists the retained tail, so it
            // need not reach back past the watermark.
            if (!store_ && s->sentPayloadAbs != sentBefore)
                s->trimRetained(s->sentPayloadAbs);
            s->lastActivityNs = nowNs();
            budget -= std::min(budget, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n < 0 && errno == EINTR)
            continue;
        // Peer went away mid-stream.
        s->evictOnClose = true;
        closeNow(s);
        return;
    }
}

/**
 * Stage one outbound Data frame, recording (for keyed sessions) the
 * absolute wire offset at which its payload ends so handleWrite can
 * advance the delivered-payload watermark as the kernel accepts bytes.
 */
void
Server::stageData(const std::shared_ptr<Session>& s, const uint8_t* data,
                  size_t n)
{
    encodeFrame(s->outWire, FrameType::Data, data, n);
    ++s->txFrames;
    s->stagedData = true;
    if (!s->sessionKey.empty()) {
        s->stagedPayloadAbs += n;
        s->txMarks.emplace_back(
            s->txBytes + (s->outWire.size() - s->outWirePos),
            s->stagedPayloadAbs);
    }
}

/** Stage buffered output as Data frames of up to kDataChunk (or one
 *  wider element) while under @p wire_cap unsent wire bytes; returns
 *  whether anything was staged. */
bool
Server::stageOutput(const std::shared_ptr<Session>& s, size_t wire_cap)
{
    const size_t chunk = std::max(kDataChunk, s->outWidth());
    bool staged = false;
    std::vector<uint8_t> payload;
    while (s->outWire.size() - s->outWirePos < wire_cap &&
           s->takeOutput(payload, chunk) > 0) {
        stageData(s, payload.data(), payload.size());
        payload.clear();
        staged = true;
    }
    return staged;
}

void
Server::serviceSession(const std::shared_ptr<Session>& s)
{
    // Re-lookup: a session may already have been closed this pass.
    auto it = sessions_.find(s->fd());
    if (it == sessions_.end() || it->second != s)
        return;

    tryFlushPending(s);

    // A read pause can strand complete frames (including the client's
    // End) inside the parser with the kernel buffer already drained, so
    // no POLLIN edge will ever replay them: resume parsing here.
    if (!s->closing && !s->readPaused)
        processFrames(s);
    auto it2 = sessions_.find(s->fd());
    if (it2 == sessions_.end() || it2->second != s)
        return;  // processFrames closed it (protocol error / client abort)

    // Move raw output elements into framed wire bytes (bounded staging).
    if (s->outWirePos > 0 && s->outWire.size() == s->outWirePos) {
        s->outWire.clear();
        s->outWirePos = 0;
    }
    if (stageOutput(s, kWireTarget))
        enqueue(s);  // raw space freed: un-park an OutputFull worker

    // Once the worker is done and the raw buffer is empty, append the
    // trailer after any staged Data bytes.
    if (!s->closing) {
        Session::Completion c = s->completion();
        if (c.finished && s->outputAvailable() == 0) {
            if (c.failed) {
                encodeError(s->outWire, c.failMessage.empty()
                                            ? "session failed"
                                            : c.failMessage);
                ++s->txFrames;
                s->evictOnClose = true;
            } else {
                if (c.halted && !c.ctrl.empty()) {
                    encodeFrame(s->outWire, FrameType::Halt, c.ctrl);
                    ++s->txFrames;
                }
                encodeFrame(s->outWire, FrameType::End);
                ++s->txFrames;
            }
            s->closing = true;
            s->closeDeadlineNs = nowNs() + kCloseGraceNs;
        }
    }

    if (s->closing && s->outWire.size() == s->outWirePos) {
        if (s->drainOnClose && !s->inputEnded) {
            // Trailer fully handed to the kernel but the client may
            // still be mid-send: half-close our side and linger,
            // discarding input, until the client hangs up (or the
            // close deadline forces the issue in sweep()).
            if (!s->txShutdown) {
                s->txShutdown = true;
                ::shutdown(s->fd(), SHUT_WR);
            }
            return;
        }
        closeNow(s);
    }
}

void
Server::protocolError(const std::shared_ptr<Session>& s,
                      const std::string& msg)
{
    metrics::Registry::global().counter("server.protocol_errors").inc();
    if (s->closing)
        return;
    encodeError(s->outWire, msg);
    ++s->txFrames;
    s->evictOnClose = true;
    s->closing = true;
    s->closeDeadlineNs = nowNs() + kCloseGraceNs;
    s->cancel();  // stop the worker side; input is moot now
}

void
Server::beginClose(const std::shared_ptr<Session>& s, bool evict,
                   const std::string& errMsg)
{
    if (s->closing)
        return;
    if (!errMsg.empty()) {
        encodeError(s->outWire, errMsg);
        ++s->txFrames;
    }
    s->evictOnClose = evict;
    s->closing = true;
    s->closeDeadlineNs = nowNs() + kCloseGraceNs;
    s->cancel();
}

void
Server::closeNow(const std::shared_ptr<Session>& s)
{
    auto it = sessions_.find(s->fd());
    if (it == sessions_.end() || it->second != s)
        return;  // already closed
    uint64_t parkedNs = 0, queuedNs = 0, runningNs = 0;
    {
        std::lock_guard<std::mutex> lk(schedMu_);
        schedMove(*s, Session::Sched::Dead, nowNs());
        s->again = false;
        parkedNs = s->parkedNs;
        queuedNs = s->queuedNs;
        runningNs = s->runningNs;
    }
    s->cancel();
    ::close(s->fd());
    sessions_.erase(it);

    // A keyed session that ran to orderly completion needs no resume;
    // an evicted or disconnected one keeps its disk generations so the
    // client can re-attach.  (A migrated-away session was already
    // removed by migrateNow; remove() is idempotent.)
    if (store_ && !s->sessionKey.empty() && !s->evictOnClose) {
        Session::Completion c = s->completion();
        if (c.finished && !c.failed)
            store_->remove(s->sessionKey);
    }

    auto& reg = metrics::Registry::global();
    reg.counter("server.rx.frames").add(s->rxFrames);
    reg.counter("server.rx.bytes").add(s->rxBytes);
    reg.counter("server.tx.frames").add(s->txFrames);
    reg.counter("server.tx.bytes").add(s->txBytes);
    reg.counter("server.sched.parked_ns").add(parkedNs);
    reg.counter("server.sched.queued_ns").add(queuedNs);
    reg.counter("server.sched.running_ns").add(runningNs);
    if (auto* sp = s->spans()) {
        // The session is Dead so no new burst starts; a worker still
        // finishing one serializes with us on the tracker's own mutex.
        sp->flush();
        sp->mergeInto(reg, "server.latency");
    }
    if (s->evictOnClose) {
        evicted_.fetch_add(1);
        reg.counter("server.sessions.evicted").inc();
    } else {
        completed_.fetch_add(1);
        reg.counter("server.sessions.completed").inc();
    }
    // A session closing during a drain is charged to the drain outcome
    // (unless driveDrain already charged it when checkpointing).
    if (draining_.load(std::memory_order_relaxed) && !s->drainCounted) {
        s->drainCounted = true;
        reg.counter(s->evictOnClose ? "server.drain.aborted"
                                    : "server.drain.completed")
            .inc();
    }
    reg.gauge("server.sessions.active")
        .set(static_cast<double>(sessions_.size()));
}

std::string
Server::statJson(const std::shared_ptr<Session>& s)
{
    metrics::JsonWriter w;
    w.beginObject();
    w.field("ts_ns", nowNs());

    Counters c = counters();
    w.beginObject("server");
    w.field("accepted", c.accepted);
    w.field("rejected", c.rejected);
    w.field("evicted", c.evicted);
    w.field("completed", c.completed);
    w.field("active", c.active);
    w.field("compiling", c.compiling);
    w.field("workers", static_cast<uint64_t>(std::max(1, cfg_.workers)));
    w.endObject();

    w.beginObject("session");
    w.field("id", s->id());
    w.field("rx_frames", s->rxFrames);
    w.field("rx_bytes", s->rxBytes);
    w.field("tx_frames", s->txFrames);
    w.field("tx_bytes", s->txBytes);
    w.field("restarts", static_cast<uint64_t>(s->restarts()));
    uint64_t parkedNs = 0, queuedNs = 0, runningNs = 0;
    {
        // Charge the still-open dwell so the numbers always sum to the
        // session's age, even between transitions.
        std::lock_guard<std::mutex> lk(schedMu_);
        uint64_t now = nowNs();
        uint64_t dur = now > s->schedEnteredNs
                           ? now - s->schedEnteredNs : 0;
        parkedNs = s->parkedNs;
        queuedNs = s->queuedNs;
        runningNs = s->runningNs;
        switch (s->sched) {
          case Session::Sched::Parked: parkedNs += dur; break;
          case Session::Sched::Queued: queuedNs += dur; break;
          case Session::Sched::Running: runningNs += dur; break;
          case Session::Sched::Dead: break;
        }
    }
    w.field("sched_parked_ns", parkedNs);
    w.field("sched_queued_ns", queuedNs);
    w.field("sched_running_ns", runningNs);
    if (auto* sp = s->spans()) {
        sp->flush();  // close spans whose output already left
        sp->writeJson(w, "latency");
    }
    w.endObject();

    w.rawField("registry",
               metrics::toJson(metrics::Registry::global()));
    w.endObject();
    return w.str();
}

/**
 * One drain pass (I/O thread, only while draining): sessions whose
 * input already ended keep stepping to completion through the normal
 * service path; every other session is quiesced and serialized into a
 * wire Checkpoint frame so its client can resume against another
 * server with zero data loss.  A session whose worker is still running
 * or queued is skipped and retried next pass — the scheduler parks it
 * as soon as its input queue drains (no new input is read during a
 * drain).
 */
void
Server::driveDrain()
{
    std::vector<std::shared_ptr<Session>> snap;
    snap.reserve(sessions_.size());
    for (auto& kv : sessions_)
        snap.push_back(kv.second);

    for (auto& s : snap) {
        if (s->closing || s->inputEnded)
            continue;  // finishing naturally (serviceSession flushes it)

        // Quiesce: only a Parked session has no worker touching its
        // pipeline; Dead blocks any future enqueue.
        {
            std::lock_guard<std::mutex> lk(schedMu_);
            if (s->sched != Session::Sched::Parked)
                continue;  // retry next pass
            schedMove(*s, Session::Sched::Dead, nowNs());
            s->again = false;
        }

        // Flush every buffered output element into Data frames ahead of
        // the checkpoint; the wire target does not apply to a drain.
        stageOutput(s, SIZE_MAX);

        // The client reads every staged Data frame before the
        // Checkpoint frame, so a keyed session retains no tail past it.
        s->prevPersistSentAbs = s->stagedPayloadAbs;
        std::vector<uint8_t> ck;
        std::string err;
        bool ok = s->checkpoint(ck, &err);
        if (ok && ck.size() > kMaxCkptPayload) {
            ok = false;
            err = "session checkpoint of " + std::to_string(ck.size()) +
                  " byte(s) exceeds the frame payload cap";
        }
        auto& reg = metrics::Registry::global();
        if (ok) {
            encodeFrame(s->outWire, FrameType::Checkpoint, ck);
            ++s->txFrames;
            reg.counter("server.drain.completed").inc();
            reg.counter("server.migrations.saved").inc();
        } else {
            encodeError(s->outWire, "drain checkpoint failed: " + err);
            ++s->txFrames;
            s->evictOnClose = true;
            reg.counter("server.drain.aborted").inc();
        }
        s->drainCounted = true;
        s->closing = true;
        // Same RST hazard as a live migration: the client may still
        // hold unsent input the drain will never read.
        s->drainOnClose = true;
        s->closeDeadlineNs = nowNs() + kCloseGraceNs;
    }
}

/**
 * Whether @p s is Parked (I/O thread), which it stays until this thread
 * enqueues it again.  A session that is not gets its further input held
 * back (tryFlushPending) so the worker drains its queue and parks — a
 * saturated session would otherwise never be caught quiescent — and the
 * caller retries on a later pass.
 */
bool
Server::quiesced(Session& s)
{
    {
        std::lock_guard<std::mutex> lk(schedMu_);
        if (s.sched == Session::Sched::Parked)
            return true;
    }
    s.quiescing = true;
    return false;
}

/**
 * Periodic durable persist (I/O thread): every keyed session observed
 * Parked — and a Parked session stays Parked for the duration, because
 * this thread is the only enqueue() caller — is snapshotted
 * non-destructively and written to the disk store.  Throttled by the
 * configured cadence and skipped when neither the consumed count nor
 * the delivered-output watermark moved since the last persist.
 */
void
Server::drivePersist()
{
    if (!store_)
        return;
    const uint64_t now = nowNs();
    const uint64_t interval = msToNs(std::max(cfg_.ckptIntervalMs, 1.0));
    for (auto& kv : sessions_) {
        auto& s = kv.second;
        if (s->sessionKey.empty() || s->closing)
            continue;
        if (now - s->lastPersistNs < interval)
            continue;
        if (!quiesced(*s))
            continue;  // due but busy
        s->quiescing = false;
        s->lastPersistNs = now;
        uint64_t consumed = s->quiescentConsumed();
        if (consumed == s->lastPersistConsumed &&
            s->sentPayloadAbs == s->prevPersistSentAbs)
            continue;  // no progress worth persisting
        std::vector<uint8_t> ck;
        std::string err;
        if (!s->checkpoint(ck, &err)) {
            // Includes the restore-not-yet-applied window right after a
            // resume attach; harmless — the disk state is still newest.
            continue;
        }
        if (!store_->save(s->sessionKey, ck, &err))
            ZIRIA_LOG(Warn, "ckpt: save failed for key ", s->sessionKey,
                      " (", err, ")");
        else
            s->lastPersistConsumed = consumed;
    }
}

namespace {

/**
 * Blocking-with-deadline frame read over a connected peer socket
 * (migration handshake; I/O thread).  Returns false and fills @p err on
 * timeout, close, or protocol error.
 */
bool
readPeerFrame(int fd, FrameParser& parser, uint64_t deadline_ns, Frame& f,
              std::string* err)
{
    for (;;) {
        FrameParser::Result r = parser.next(f);
        if (r == FrameParser::Result::Frame)
            return true;
        if (r == FrameParser::Result::Error) {
            *err = parser.error();
            return false;
        }
        uint64_t now = nowNs();
        if (now >= deadline_ns) {
            *err = "peer handshake timed out";
            return false;
        }
        pollfd p{fd, POLLIN, 0};
        int pr = ::poll(&p, 1,
                        static_cast<int>((deadline_ns - now) / 1000000) + 1);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            *err = "peer poll failed";
            return false;
        }
        if (pr == 0)
            continue;  // deadline check above terminates
        uint8_t buf[64 * 1024];
        long n = recvSome(fd, buf, sizeof buf);
        if (n > 0)
            parser.feed(buf, static_cast<size_t>(n));
        else if (n == 0) {
            *err = "peer closed during handshake";
            return false;
        } else if (n == -2) {
            *err = "peer read error";
            return false;
        }
    }
}

} // namespace

/**
 * Hand one quiesced keyed session to a peer server: checkpoint in
 * place (non-destructively), connect, exchange greeting / Transfer /
 * Ack, and on success redirect the data client and retire the local
 * session as completed.  Any failure leaves the session running
 * exactly as it was — nothing was drained or destroyed.  Returns an
 * error message, empty on success.
 */
std::string
Server::migrateNow(const std::shared_ptr<Session>& s,
                   const MigrationJob& job)
{
    std::vector<uint8_t> ck;
    std::string err;
    if (!s->checkpoint(ck, &err))
        return "checkpoint failed: " + err;
    if (ck.size() > kMaxCkptPayload)
        return "session checkpoint of " + std::to_string(ck.size()) +
               " byte(s) exceeds the frame payload cap";

    SockFd peer;
    try {
        peer = connectTcp(job.host, job.port);
    } catch (const std::exception& e) {
        return std::string("peer connect failed: ") + e.what();
    }
    FrameParser parser;
    Frame f;
    if (!readPeerFrame(peer.get(), parser, job.deadlineNs, f, &err))
        return "peer greeting: " + err;
    HelloInfo hello;
    if (f.type != FrameType::Hello || !decodeHello(f.payload, hello))
        return "peer did not greet with a Hello frame";
    if (hello.inWidth != s->inWidth() || hello.outWidth != s->outWidth())
        return "peer pipeline widths do not match";

    std::vector<uint8_t> wire;
    encodeMigrateTransfer(wire, job.key, ck);
    if (!sendAll(peer.get(), wire.data(), wire.size()))
        return "peer send failed";
    if (!readPeerFrame(peer.get(), parser, job.deadlineNs, f, &err))
        return "peer ack: " + err;
    bool ok = false;
    std::string msg;
    if (f.type != FrameType::Migrate || !decodeMigrateAck(f.payload, ok, msg))
        return "peer answered with something other than a Migrate Ack";
    if (!ok)
        return "peer rejected the migration: " + msg;

    // Committed: flush remaining buffered output (all of it is inside
    // the checkpoint's retained window, so a duplicate delivery on the
    // peer is impossible — the client's received count covers it), then
    // redirect the data client and retire the session as completed.
    stageOutput(s, SIZE_MAX);
    encodeMigrateRedirect(s->outWire, job.host, job.port);
    ++s->txFrames;
    encodeFrame(s->outWire, FrameType::End);
    ++s->txFrames;
    s->closing = true;
    // The client may still be streaming input we will never read; a
    // plain close() with unread bytes in the receive queue answers
    // with a RST that destroys the Redirect in flight.  Drain-and-
    // discard until the client sees the trailer and closes its side.
    s->drainOnClose = true;
    s->closeDeadlineNs = nowNs() + kCloseGraceNs;
    s->cancel();
    if (store_)
        store_->remove(job.key);
    metrics::Registry::global()
        .counter("server.migrations.live_sent")
        .inc();
    return {};
}

/**
 * Resolve queued migration jobs (I/O thread): wait for the target
 * session to quiesce at a park (retrying every pass until the job
 * deadline), run the peer handshake, and answer the operator with a
 * Migrate Ack.  A failed job leaves the session untouched and bumps
 * server.migrations.live_failed.
 */
void
Server::driveMigrations()
{
    if (migrations_.empty())
        return;
    auto& reg = metrics::Registry::global();
    for (size_t i = 0; i < migrations_.size();) {
        MigrationJob& job = migrations_[i];
        std::shared_ptr<Session> target = findByKey(job.key);
        std::string fail;
        bool done = false;
        if (!target) {
            fail = "no live session with key '" + job.key + "'";
            done = true;
        } else if (nowNs() >= job.deadlineNs) {
            fail = "timed out waiting for the session to quiesce";
            done = true;
        } else if (quiesced(*target)) {
            fail = migrateNow(target, job);
            done = true;
        }
        if (!done) {
            ++i;
            continue;
        }
        if (target)
            target->quiescing = false;
        if (!fail.empty())
            reg.counter("server.migrations.live_failed").inc();
        auto it = sessions_.find(job.operatorFd);
        if (it != sessions_.end() && !it->second->closing) {
            encodeMigrateAck(it->second->outWire, fail.empty(),
                             fail.empty() ? "migrated" : fail);
            ++it->second->txFrames;
        }
        migrations_.erase(migrations_.begin() +
                          static_cast<long>(i));
    }
}

void
Server::sweep()
{
    uint64_t now = nowNs();
    std::vector<std::shared_ptr<Session>> doomed;
    for (auto& kv : sessions_) {
        auto& s = kv.second;
        if (s->closing) {
            if (now >= s->closeDeadlineNs)
                doomed.push_back(s);
        } else if (cfg_.idleTimeoutMs > 0 &&
                   now - s->lastActivityNs >
                       msToNs(cfg_.idleTimeoutMs)) {
            beginClose(s, /*evict=*/true, "idle timeout");
        }
    }
    for (auto& s : doomed)
        closeNow(s);

    // Adopted migration checkpoints whose data client never re-attached
    // are dropped after a grace period (the disk store, if any, still
    // has the source server's last persist).
    constexpr uint64_t kAdoptionTtlNs = 30ull * 1000 * 1000 * 1000;
    for (auto it = pendingAdoptions_.begin();
         it != pendingAdoptions_.end();) {
        if (now - it->second.stampNs > kAdoptionTtlNs)
            it = pendingAdoptions_.erase(it);
        else
            ++it;
    }

    if (cfg_.metricsIntervalMs > 0 &&
        now - lastMetricsNs_ >= msToNs(cfg_.metricsIntervalMs)) {
        lastMetricsNs_ = now;
        dumpMetrics();
    }
}

void
Server::dumpMetrics()
{
    metrics::JsonWriter w;
    w.beginObject();
    w.field("ts_ns", nowNs());
    w.rawField("registry",
               metrics::toJson(metrics::Registry::global()));
    w.endObject();
    const std::string& json = w.str();
    if (cfg_.metricsPath.empty()) {
        std::fprintf(stderr, "%s\n", json.c_str());
        return;
    }
    // Write the whole document to a sibling temp file and rename it into
    // place: a reader polling metricsPath sees either the previous
    // snapshot or the new one, never a torn or half-appended line.
    std::string tmp = cfg_.metricsPath + ".tmp";
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (!f)
            return;
        f << json << "\n";
        f.flush();
        if (!f)
            return;
    }
    std::rename(tmp.c_str(), cfg_.metricsPath.c_str());
}

} // namespace serve
} // namespace ziria
