/**
 * @file
 * The zserve server: a TCP accept loop, a poll()-based I/O thread, one
 * compile thread building each new session's pipeline, and an N-thread
 * worker pool stepping every live session's pipeline cooperatively
 * (round-robin run queue, bounded quantum per burst).
 *
 * Division of labor:
 *  - the I/O thread owns every socket: it accepts connections (with
 *    admission control — over the session cap a client is refused with
 *    a protocol Error frame), decodes inbound wire frames into each
 *    session's bounded input queue, frames buffered output back onto
 *    the wire, applies idle timeouts, and closes finished sessions.  It
 *    never compiles: an accepted connection gets its session id and is
 *    queued for the compile thread, and its socket is not polled until
 *    the pipeline is back (the kernel buffers anything sent early);
 *  - the compile thread calls the pipeline factory for one queued
 *    connection at a time, in accept order, and posts the pipeline (or
 *    the refusal) back to the I/O thread, which then creates the
 *    Session and sends Hello (or an Error frame).  A cold compile thus
 *    delays only the sessions queued behind it, never a live session's
 *    frames;
 *  - workers pull Ready sessions off one shared run queue and step each
 *    for one quantum; a session that blocks (input empty / output full)
 *    parks until the I/O thread re-schedules it.  The scheduler state
 *    machine (Parked/Queued/Running + a re-arm bit) guarantees a session
 *    is stepped by at most one worker at a time and that a wakeup
 *    arriving mid-burst is never lost.
 *
 * Faults stay session-local: a session whose pipeline throws is either
 * re-armed in place (its own RestartSupervisor, per-session budget) or
 * evicted with an Error frame — its neighbors' queues, pipelines and
 * sockets are untouched (tests/test_serve.cpp asserts byte-identical
 * neighbor output under injected faults).
 *
 * Observability: `server.sessions.{accepted,rejected,evicted,completed}`
 * counters, the `server.sessions.{active,compiling}` gauges and the
 * accept-to-Hello histogram `server.compile.wait_ns` in the global
 * metric registry, per-session byte/frame counters aggregated into
 * `server.{rx,tx}.{frames,bytes}` on close, and an optional periodic
 * JSON dump (a `{"ts_ns":...,"registry":{...}}` document replaced
 * atomically via temp-file + rename so a tailing reader never sees a
 * torn write).  With SessionConfig::trackLatency on, every session's
 * frame spans merge into `server.latency.*` on close and its scheduler
 * dwell (time Parked/Queued/Running, accounted at every transition)
 * into `server.sched.{parked,queued,running}_ns`; a client can sample
 * all of it live with a Stat frame (docs/SERVING.md).
 */
#ifndef ZIRIA_ZSERVE_SERVER_H
#define ZIRIA_ZSERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "zserve/session.h"
#include "zserve/socket.h"

namespace ziria {

class CkptStore;

namespace serve {

/** Server-wide configuration. */
struct ServerConfig
{
    uint16_t port = 0;          ///< 0 = kernel-assigned (see Server::port)
    int workers = 2;            ///< stepping threads
    size_t maxSessions = 64;    ///< admission cap (reject above)
    double idleTimeoutMs = 0;   ///< evict silent sessions (0 = never)
    double drainTimeoutMs = 5000;  ///< drainStop() bound before force-stop
    double metricsIntervalMs = 0;  ///< periodic registry JSON dump
    std::string metricsPath;    ///< dump target ("" = stderr)
    std::string ckptDir;        ///< durable checkpoint store ("" = off)
    double ckptIntervalMs = 200;  ///< keyed-session persist cadence
    double migrateTimeoutMs = 5000;  ///< quiesce + peer-exchange bound
    SessionConfig session;      ///< per-session knobs
    FaultSpec fault;            ///< injected per-session fault (tests)
    int64_t faultSession = -1;  ///< session index to fault (-1 = all)
};

class Server
{
  public:
    /** Build one pipeline instance for a new session. */
    using PipelineFactory =
        std::function<std::unique_ptr<Pipeline>(uint64_t session_id)>;

    /** Binds and listens immediately; port() is valid after this. */
    Server(PipelineFactory factory, ServerConfig cfg);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Spawn the I/O thread and the worker pool. */
    void start();

    /** Stop accepting, cancel live sessions, close connections still
     *  waiting for their pipeline, join every thread (a compile in
     *  progress runs to its end first). */
    void stop();

    /**
     * Graceful shutdown (SIGTERM semantics; docs/ROBUSTNESS.md,
     * "Checkpointing & migration"): stop admitting new sessions, let
     * sessions whose input already ended finish stepping and flush
     * (server.drain.completed), serialize every mid-stream session into
     * a wire Checkpoint frame for the client to resume elsewhere (also
     * drain.completed — zero data loss), then stop().  Sessions still
     * live when ServerConfig::drainTimeoutMs elapses are force-closed
     * and counted in server.drain.aborted, as is any session whose
     * checkpoint cannot be built or exceeds the payload cap.  A
     * connection whose pipeline is not built yet is refused with an
     * Error frame ("server draining") and counted as rejected; its
     * compile is skipped, or its result discarded if already running.
     */
    void drainStop();

    uint16_t port() const { return port_; }

    /** Aggregate session accounting (monotonic since construction). */
    struct Counters
    {
        uint64_t accepted = 0;
        uint64_t rejected = 0;   ///< refused at admission (session cap)
        uint64_t evicted = 0;    ///< abnormal close (fault, protocol,
                                 ///< idle timeout, client abort)
        uint64_t completed = 0;  ///< orderly close (End delivered)
        uint64_t active = 0;     ///< live right now
        uint64_t compiling = 0;  ///< accepted, waiting for a pipeline
    };
    Counters counters() const;

  private:
    /** A client-requested live migration being driven by the I/O
     *  thread: waits for the keyed session to quiesce at a park, then
     *  checkpoints it and hands the state to the peer server. */
    struct MigrationJob
    {
        std::string key;
        std::string host;
        uint16_t port = 0;
        int operatorFd = -1;  ///< who gets the Migrate Ack
        uint64_t deadlineNs = 0;
    };

    /** A migration checkpoint received from a peer, waiting for its
     *  data client to re-attach (preferred over the disk store). */
    struct PendingAdoption
    {
        std::vector<uint8_t> payload;
        uint64_t stampNs = 0;
    };

    /** An accepted connection waiting for its pipeline. */
    struct PendingConn
    {
        int fd = -1;
        uint64_t acceptNs = 0;
    };

    /** A finished compile, posted by the compile thread: a pipeline,
     *  or the message the connection is refused with. */
    struct Compiled
    {
        uint64_t id = 0;
        std::unique_ptr<Pipeline> pipe;
        std::string refuse;
    };

    void ioLoop();
    void workerLoop();
    void compileLoop();
    void enqueue(const std::shared_ptr<Session>& s);

    // All of the below run on the I/O thread only.
    void acceptPending();
    void adoptCompiled();
    void refuseCompiling();
    void refuseConnection(int fd, const std::string& msg);
    void publishCompiling();
    void handleRead(const std::shared_ptr<Session>& s);
    void handleWrite(const std::shared_ptr<Session>& s);
    void processFrames(const std::shared_ptr<Session>& s);
    void tryFlushPending(const std::shared_ptr<Session>& s);
    void serviceSession(const std::shared_ptr<Session>& s);
    void protocolError(const std::shared_ptr<Session>& s,
                       const std::string& msg);
    void beginClose(const std::shared_ptr<Session>& s, bool evict,
                    const std::string& errMsg);
    void closeNow(const std::shared_ptr<Session>& s);
    void driveDrain();
    void sweep();
    void dumpMetrics();
    std::string statJson(const std::shared_ptr<Session>& s);
    void stageData(const std::shared_ptr<Session>& s, const uint8_t* data,
                   size_t n);
    bool stageOutput(const std::shared_ptr<Session>& s, size_t wire_cap);
    void handleAttach(const std::shared_ptr<Session>& s, Frame& f);
    void handleMigrate(const std::shared_ptr<Session>& s, Frame& f);
    bool quiesced(Session& s);
    void drivePersist();
    void driveMigrations();
    std::string migrateNow(const std::shared_ptr<Session>& s,
                           const MigrationJob& job);
    std::shared_ptr<Session> findByKey(const std::string& key,
                                       const Session* skip = nullptr);

    PipelineFactory factory_;
    ServerConfig cfg_;
    SockFd listen_;
    uint16_t port_ = 0;
    Wakeup wake_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};
    /** Set by the I/O thread once a drain pass has refused every
     *  connection still compiling; no accept follows it. */
    std::atomic<bool> drainSwept_{false};
    bool started_ = false;
    std::thread ioThread_;
    std::thread compileThread_;
    std::vector<std::thread> workers_;

    // Sessions keyed by fd; owned by the I/O thread (workers hold
    // shared_ptrs through the run queue only).
    std::map<int, std::shared_ptr<Session>> sessions_;
    uint64_t nextId_ = 0;
    uint64_t lastMetricsNs_ = 0;
    // Connections waiting for their pipeline, by session id.
    std::map<uint64_t, PendingConn> compiling_;

    // Compile thread hand-off: ids in, pipelines or refusals out.
    std::mutex compileMu_;
    std::condition_variable compileCv_;
    std::deque<uint64_t> compileq_;
    std::vector<Compiled> compiled_;

    // Durable checkpoints & live migration (I/O thread only).
    std::unique_ptr<CkptStore> store_;
    std::vector<MigrationJob> migrations_;
    std::map<std::string, PendingAdoption> pendingAdoptions_;

    // Scheduler: one shared run queue.
    mutable std::mutex schedMu_;
    std::condition_variable schedCv_;
    std::deque<std::shared_ptr<Session>> runq_;

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> evicted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> compilingCount_{0};
};

} // namespace serve
} // namespace ziria

#endif // ZIRIA_ZSERVE_SERVER_H
