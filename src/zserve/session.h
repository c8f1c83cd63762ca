/**
 * @file
 * One serving session: a client connection bound to its own compiled
 * pipeline instance, stepped cooperatively by the server's worker pool.
 *
 * The paper's tick/proc model is what makes this cheap: a compiled
 * pipeline is a re-enterable state machine that advances in constant
 * space, so a session parked on an empty input queue or a full output
 * buffer costs nothing until the I/O thread re-schedules it — hundreds
 * of sessions multiplex over a handful of worker threads with no thread
 * per session.
 *
 * Threading contract (enforced by the Server, audited for TSan):
 *  - I/O-thread-only state: the socket fd, frame parser, pending input
 *    bytes, read-pause flag, wire-output buffer, activity clock,
 *    per-session byte/frame counters;
 *  - worker-only state: the pipeline and its supervised stepper, the
 *    queue-backed source and its fault decorator, the restart
 *    supervisor (at most one worker steps a session at a time — the
 *    scheduler state machine guarantees it);
 *  - shared, internally synchronized: the bounded SpscQueue of decoded
 *    input elements (producer = I/O thread, consumer = worker) — this
 *    is the per-session backpressure: queue full -> reads pause -> TCP
 *    pushes back on the client;
 *  - shared under mu: the raw output-element buffer (worker appends,
 *    I/O thread drains into Data frames) and the completion flags;
 *  - shared under the Server's scheduler mutex: the scheduling state.
 *
 * Per-session fault tolerance: an optional FaultSpec (reusing the
 * FaultySource decorator unchanged) injects deterministic faults into
 * one session's input, and the RestartPolicy and CheckpointPolicy of the
 * pipeline the factory built give each session its own
 * RestartSupervisor and checkpoint carry — a faulted session heals in
 * place exactly as a solo Pipeline::run does (byte-identically when a
 * cadence is set) or is evicted with an Error frame, while its
 * neighbors' pipelines, queues, and sockets are untouched.
 */
#ifndef ZIRIA_ZSERVE_SESSION_H
#define ZIRIA_ZSERVE_SESSION_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/spsc_queue.h"
#include "zexec/faultpoint.h"
#include "zexec/pipeline.h"
#include "zexec/queue_io.h"
#include "zexec/span.h"
#include "zexec/stepper.h"
#include "zexec/supervisor.h"
#include "zserve/wire.h"

namespace ziria {
namespace serve {

/**
 * Layout version of the session continuation payload that a drain
 * Checkpoint frame, a durable persist and a live migration all carry
 * (docs/ROBUSTNESS.md, "Session migration and drain").  The header's
 * output count is *delivered*, the outputs the downstream already
 * holds; a restore swallows those its snapshot regenerates, and the
 * retained output tail ends there.
 */
constexpr uint32_t kSessionCheckpointVersion = 2;

/** Per-session tuning knobs (shared by every session of one server). */
struct SessionConfig
{
    size_t inQueueElems = 1024;   ///< bounded input queue (backpressure)
    size_t outHighWaterBytes = 256 * 1024;  ///< pause stepping above this
    uint64_t stepQuantum = 8192;  ///< Stepper::drive budget per burst
    bool trackLatency = false;    ///< allocate a per-session SpanTracker
    SpanConfig span;              ///< its frame size / ratio / SLO budget
};

/** What a worker burst decided about a session (scheduler verdict). */
enum class StepResult : uint8_t
{
    Again,       ///< quantum spent, more work ready — requeue
    NeedInput,   ///< input queue empty — park until the I/O thread feeds
    OutputFull,  ///< output buffer over high water — park until drained
    Finished,    ///< input drained or computation halted — flush & close
    Failed,      ///< failure with restart budget spent — evict
};

class Session
{
  public:
    Session(uint64_t id, int fd, std::unique_ptr<Pipeline> pipe,
            const SessionConfig& cfg, const FaultSpec& fault);
    ~Session();

    uint64_t id() const { return id_; }
    int fd() const { return fd_; }
    size_t inWidth() const { return inW_; }
    size_t outWidth() const { return outW_; }

    // ---- worker side ------------------------------------------------

    /** Step the pipeline for up to one quantum; see StepResult. */
    StepResult step();

    /** Restarts this session has consumed (worker/test side). */
    uint32_t restarts() const { return restarts_.load(); }

    /**
     * Frame-span tracker, or null when SessionConfig::trackLatency is
     * off.  onInput fires on the I/O thread (offerInput), onOutput on
     * the worker (step), which matches the tracker's SPSC contract;
     * spans therefore measure true end-to-end session latency including
     * queue dwell and scheduler parking.
     */
    SpanTracker* spans() const { return spans_.get(); }

    // ---- I/O-thread side --------------------------------------------

    /**
     * Queue decoded Data-payload bytes for the pipeline.  Returns false
     * when the bounded queue filled first — the caller must retry the
     * remaining bytes later and pause socket reads (backpressure);
     * @p consumed reports how many bytes were accepted either way.
     */
    bool offerInput(const uint8_t* data, size_t n, size_t& consumed);

    /** Mark end of input (End frame / orderly half-close). */
    void endInput() { inQ_.close(); }

    /** Move up to @p max_bytes of buffered output into @p out. */
    size_t takeOutput(std::vector<uint8_t>& out, size_t max_bytes);

    /** Bytes of output currently buffered. */
    size_t outputAvailable();

    /** Completion state snapshot (all under the output mutex). */
    struct Completion
    {
        bool finished = false;  ///< worker is done stepping
        bool failed = false;    ///< ... because of an unrecoverable fault
        bool halted = false;    ///< pipeline returned a control value
        std::string failMessage;
        std::vector<uint8_t> ctrl;
    };
    Completion completion();

    /** Unblock a worker stuck in a stall fault / queue wait (teardown). */
    void cancel();

    // ---- checkpoint / migration (docs/ROBUSTNESS.md) ----------------

    /**
     * Serialize this session's continuation into @p out (the payload
     * described at kSessionCheckpointVersion): the pipeline snapshot,
     * the unconsumed input backlog (input still to replay, the rest of
     * the batch the queue source popped, the queue, then the I/O
     * thread's decoded-but-unqueued pendingIn bytes), the
     * delivered output count and the retained output tail — empty when
     * retention is off.  The session keeps running unchanged if the
     * payload is never restored (periodic persists, rejected
     * migrations); the retained tail is trimmed to the sent watermark
     * of the previous call.
     *
     * Caller contract: I/O thread, session parked or dead (the I/O
     * thread is the only enqueue() caller, so a session it observes
     * Parked stays Parked for the duration) — the worker-owned pipeline
     * state is read directly.  Returns false and fills @p err when the
     * state cannot be serialized.
     */
    bool checkpoint(std::vector<uint8_t>& out, std::string* err);

    /**
     * Stash a client-supplied Checkpoint payload (I/O thread side); the
     * worker applies it at the start of its next step() — restoring the
     * pipeline and queueing the backlog for replay — before any queued
     * element is processed.  A malformed payload fails the session
     * (Error frame) instead of throwing.
     */
    void adoptCheckpoint(std::vector<uint8_t> payload);

    /** Fully parse and check a continuation payload against this
     *  session's element widths; returns an error, empty when valid. */
    std::string checkContinuation(const std::vector<uint8_t>& payload) const;

    // ---- durable checkpoints / live migration -----------------------

    /**
     * Adopt a continuation for a re-attaching client that has already
     * received @p client_received output bytes.  Validates the payload,
     * primes the worker-side restore (snapshot + backlog + suppression
     * of the regenerated outputs the client holds), arms output
     * retention, and fills @p resend with the retained bytes the I/O
     * thread must restage (when the client is behind delivered) and
     * @p resume_elems with the input element the client should resume
     * sending from.  Returns an error message, empty on success.
     */
    std::string adoptResume(const std::vector<uint8_t>& payload,
                            uint64_t client_received,
                            std::vector<uint8_t>& resend,
                            uint64_t& resume_elems);

    /** Arm output retention for a fresh keyed session (base 0). */
    void beginRetention();

    /**
     * Drop retained output below absolute byte @p abs (I/O thread).  A
     * server with no checkpoint store calls it as the sent watermark
     * advances: only a live migration reads its tail, and that client
     * receives every byte up to the watermark before its Redirect.
     */
    void trimRetained(uint64_t abs);

    /** Input elements consumed; only valid while the session is
     *  quiesced (persist-cadence throttling on the I/O thread). */
    uint64_t
    quiescentConsumed() const
    {
        return pipe_->stepper().stepper().consumed();
    }

    // ---- I/O-thread-owned bookkeeping (unshared; see file comment) --

    FrameParser parser;             ///< inbound wire decoder
    std::vector<uint8_t> pendingIn; ///< payload bytes not yet queued
    size_t pendingPos = 0;
    bool readPaused = false;        ///< POLLIN off while the queue is full
    bool inputEnded = false;        ///< End seen (no more Data accepted)
    bool queueClosed = false;       ///< endInput() delivered to the queue
    bool closing = false;           ///< trailer queued; close when drained
    bool evictOnClose = false;      ///< count as evicted, not completed
    bool sawData = false;           ///< a Data frame arrived
    bool stagedData = false;        ///< a Data frame was staged outbound
                                    ///< (an attach must come before any)
    bool restoredFromCkpt = false;  ///< a Checkpoint was adopted already
    bool drainCounted = false;      ///< drain.{completed,aborted} charged
    bool drainOnClose = false;      ///< discard unread client input while
                                    ///< closing (avoids a RST that would
                                    ///< destroy the in-flight trailer)
    bool txShutdown = false;        ///< SHUT_WR sent after trailer flush
    uint64_t closeDeadlineNs = 0;   ///< force-close bound once closing
    uint64_t lastActivityNs = 0;    ///< socket traffic clock (idle timer)
    std::vector<uint8_t> outWire;   ///< framed bytes ready to send
    size_t outWirePos = 0;
    uint64_t rxFrames = 0, rxBytes = 0, txFrames = 0, txBytes = 0;

    // Durable-session bookkeeping (I/O thread only; meaningful once a
    // key is attached).  The tx marks map "payload bytes of staged Data
    // frames" to absolute wire offsets so sentPayloadAbs advances as
    // handleWrite drains outWire; the previous persist's value becomes
    // the next retained-tail base (one-cadence lag guards against
    // kernel-buffer loss on a hard kill).
    std::string sessionKey;         ///< empty = keyless (not persisted)
    bool attached = false;          ///< an attach Hello was accepted
    bool quiescing = false;         ///< hold input back until the worker
                                    ///< parks (due persist / migration)
    uint64_t stagedPayloadAbs = 0;  ///< Data payload bytes staged
    uint64_t sentPayloadAbs = 0;    ///< ... fully handed to the kernel
    uint64_t prevPersistSentAbs = 0;
    uint64_t lastPersistNs = 0;     ///< persist-cadence throttle
    uint64_t lastPersistConsumed = 0;
    std::deque<std::pair<uint64_t, uint64_t>> txMarks;  ///< {wireAbsEnd,
                                    ///<  payloadAbsEnd} per staged frame

    /** Whether the stream has begun: a Checkpoint, attach or Migrate
     *  transfer is only valid before any of these. */
    bool
    streamStarted() const
    {
        return sawData || inputEnded || restoredFromCkpt || attached;
    }

    // ---- scheduler state (guarded by the Server's scheduler mutex) --

    enum class Sched : uint8_t { Parked, Queued, Running, Dead };
    Sched sched = Sched::Parked;
    bool again = false;  ///< wake arrived while Running — requeue

    // Scheduler-dwell accounting (also under the scheduler mutex): time
    // spent in each state, advanced at every transition by the server.
    uint64_t schedEnteredNs = 0;  ///< when the current state was entered
    uint64_t parkedNs = 0;
    uint64_t queuedNs = 0;
    uint64_t runningNs = 0;
    uint32_t schedTrack = 0;      ///< timeline track id (0 = unnamed)

  private:
    uint64_t id_;
    int fd_;
    std::unique_ptr<Pipeline> pipe_;
    size_t inW_;
    size_t outW_;
    SessionConfig cfg_;

    SpscQueue inQ_;

    // Set by the I/O thread with an adopted checkpoint, cleared by the
    // worker when it applies it; QueueSource holds input back meanwhile.
    std::atomic<bool> restorePending_{false};

    // Worker-only stepping machinery.
    QueueSource qsrc_;
    FaultSpec fault_;
    FaultySource fsrc_;   // identity pass-through when fault_.kind==None
    RestartSupervisor sup_;
    std::atomic<uint32_t> restarts_{0};
    std::unique_ptr<SpanTracker> spans_;

    /** Apply the adopted checkpoint (worker side); returns an error
     *  message, empty on success. */
    std::string applyCheckpoint();
    class RawSink;  ///< step()'s OutputSink: appends to outRaw_

    // Output buffer shared worker -> I/O thread.
    std::mutex mu_;
    std::vector<uint8_t> outRaw_;
    size_t outRawPos_ = 0;
    Completion done_;
    std::vector<uint8_t> pendingCkpt_;  ///< stash from adoptCheckpoint
    uint64_t pendingLead_ = 0;  ///< outputs the client holds beyond the
                                ///< stash's delivered count
    // Retained output tail for durable checkpoints: every delivered
    // output element is also appended here (only when retainOut_), and
    // checkpoint() trims it to the lagged sent watermark (trimRetained()
    // to the live one on a storeless server).  Covers
    // [outTailBase_, delivered bytes) contiguously.
    bool retainOut_ = false;
    std::vector<uint8_t> outTail_;
    uint64_t outTailBase_ = 0;
};

} // namespace serve
} // namespace ziria

#endif // ZIRIA_ZSERVE_SESSION_H
