#include "zserve/session.h"

#include "support/metrics.h"
#include "zexec/snapshot.h"

namespace ziria {
namespace serve {

namespace {

/** A session checkpoint payload of either version. */
struct Continuation
{
    uint64_t consumed = 0;
    uint64_t emitted = 0;
    std::vector<uint8_t> snap;
    std::vector<uint8_t> backlog;
    uint64_t tailBase = 0;      ///< output offset of tail (v1: emitted)
    std::vector<uint8_t> tail;  ///< retained output (durable version)
};

/** Parse and check @p payload against the pipeline's element widths;
 *  returns an error message, empty on success. */
std::string
readContinuation(const std::vector<uint8_t>& payload, size_t inW,
                 size_t outW, Continuation& c)
{
    uint64_t backlogElems;
    try {
        StateReader r(payload.data(), payload.size());
        uint32_t ver = r.u32();
        if (ver != kSessionCheckpointVersion &&
            ver != kSessionCheckpointVersionDurable)
            return "unsupported session checkpoint version " +
                   std::to_string(ver);
        c.consumed = r.u64();
        c.emitted = r.u64();
        backlogElems = r.u64();
        c.snap = r.blob();
        c.backlog = r.blob();
        c.tailBase = c.emitted * outW;
        if (ver == kSessionCheckpointVersionDurable) {
            c.tailBase = r.u64();
            c.tail = r.blob();
        }
    } catch (const std::exception& e) {
        return e.what();
    }
    if (c.tailBase + c.tail.size() != c.emitted * outW)
        return "checkpoint output tail is inconsistent";
    if (inW ? c.backlog.size() % inW != 0 : !c.backlog.empty())
        return "checkpoint backlog is not element-aligned";
    if (inW && c.backlog.size() / inW != backlogElems)
        return "checkpoint backlog count disagrees with header";
    return {};
}

} // namespace

Session::Session(uint64_t id, int fd, std::unique_ptr<Pipeline> pipe,
                 const SessionConfig& cfg, const FaultSpec& fault)
    : id_(id), fd_(fd), pipe_(std::move(pipe)),
      inW_(pipe_->inWidth()), outW_(pipe_->outWidth()), cfg_(cfg),
      inQ_(inW_ ? inW_ : 1, cfg.inQueueElems),
      qsrc_(inQ_, inW_, restorePending_), fault_(fault),
      fsrc_(qsrc_, fault), sup_(pipe_->restartPolicy())
{
    if (cfg.trackLatency) {
        SpanConfig sc = cfg.span;
        sc.name = "session" + std::to_string(id);
        spans_ = std::make_unique<SpanTracker>(sc);
    }
    // The pipeline's own policies, as in a solo run.  Spans are stamped
    // at ingress (offerInput) and delivery (step), so the stepping loop
    // only re-bases them after a heal.
    pipe_->configureStepper();
    pipe_->stepper().setSpans(spans_.get(), /*stamp=*/false);
}

Session::~Session() = default;

bool
Session::offerInput(const uint8_t* data, size_t n, size_t& consumed)
{
    consumed = 0;
    const size_t elems = inW_ ? n / inW_ : 0;
    if (elems == 0)
        return true;
    // One locked transfer for the whole payload; what does not fit is
    // retried by the caller once the worker drained some.
    size_t done = 0;
    QueueWait w = inQ_.pushSpan(data, elems, 0, &done);
    consumed = done * inW_;
    // Spans open at ingress so queue dwell and scheduler parking are
    // part of the measured end-to-end latency.
    if (spans_)
        for (size_t i = 0; i < done; ++i)
            spans_->onInput();
    return w == QueueWait::Ready && done == elems;
}

size_t
Session::outputAvailable()
{
    std::lock_guard<std::mutex> lk(mu_);
    return outRaw_.size() - outRawPos_;
}

size_t
Session::takeOutput(std::vector<uint8_t>& out, size_t max_bytes)
{
    std::lock_guard<std::mutex> lk(mu_);
    size_t avail = outRaw_.size() - outRawPos_;
    size_t take = std::min(avail, max_bytes);
    if (outW_ > 0)
        take -= take % outW_;  // whole elements only
    if (take == 0)
        return 0;
    out.insert(out.end(), outRaw_.begin() + static_cast<long>(outRawPos_),
               outRaw_.begin() + static_cast<long>(outRawPos_ + take));
    outRawPos_ += take;
    if (outRawPos_ == outRaw_.size()) {
        outRaw_.clear();
        outRawPos_ = 0;
    }
    return take;
}

Session::Completion
Session::completion()
{
    std::lock_guard<std::mutex> lk(mu_);
    return done_;
}

void
Session::cancel()
{
    fsrc_.cancel();  // unblocks a stall fault; also cancels the queue
    inQ_.cancel();
}

bool
Session::writeContinuation(StateWriter& w, uint32_t version,
                           const uint8_t* pending, size_t pending_len,
                           std::string* err)
{
    // The caller holds the session quiesced, so the worker-owned
    // pipeline state is safe to read from the I/O thread.  Before an
    // adopted restore is applied the pipeline still holds fresh-start
    // state, which must not be persisted (or migrated) over real state.
    if (restorePending_.load(std::memory_order_acquire)) {
        if (err)
            *err = "adopted restore not yet applied";
        return false;
    }
    const SupervisedStepper& ss = pipe_->stepper();
    const uint64_t consumed = ss.stepper().consumed();
    const uint64_t emitted = ss.stepper().emitted();
    std::vector<uint8_t> snap;
    if (ss.started()) {
        try {
            snap = takeSnapshot(pipe_->root(), pipe_->frame(), consumed,
                                emitted);
        } catch (const std::exception& e) {
            if (err)
                *err = e.what();
            return false;
        }
    }

    // Unconsumed input, oldest first, without draining anything: input
    // the carry has yet to replay, a peek of the queue, then the I/O
    // thread's decoded-but-unqueued remainder.
    std::vector<uint8_t> backlog = ss.unreplayed();
    if (inW_)
        inQ_.peekAll(backlog);
    backlog.insert(backlog.end(), pending, pending + pending_len);

    // The target rejects a backlog that is not a whole number of input
    // elements.  The wire protocol only admits whole-element Data
    // payloads; if a partial tail ever reaches us, fail so the caller
    // counts the drain or persist as aborted.
    if (inW_ ? backlog.size() % inW_ != 0 : !backlog.empty()) {
        if (err)
            *err = "input backlog is not element-aligned";
        return false;
    }

    w.u32(version);
    w.u64(consumed);
    w.u64(emitted);
    w.u64(inW_ ? backlog.size() / inW_ : 0);
    w.blob(snap.data(), snap.size());
    w.blob(backlog.data(), backlog.size());
    return true;
}

bool
Session::checkpoint(std::vector<uint8_t>& out, const uint8_t* pending_tail,
                    size_t pending_len, std::string* err)
{
    StateWriter w;
    if (!writeContinuation(w, kSessionCheckpointVersion, pending_tail,
                           pending_len, err))
        return false;
    out = w.take();
    metrics::Registry::global().counter("server.migrations.saved").inc();
    return true;
}

void
Session::adoptCheckpoint(std::vector<uint8_t> payload)
{
    std::lock_guard<std::mutex> lk(mu_);
    pendingCkpt_ = std::move(payload);
    restorePending_.store(true, std::memory_order_release);
}

bool
Session::persistCheckpoint(std::vector<uint8_t>& out, std::string* err)
{
    // I/O thread, session parked (see the header contract).
    StateWriter w;
    if (!writeContinuation(w, kSessionCheckpointVersionDurable,
                           pendingIn.data() + pendingPos,
                           pendingIn.size() - pendingPos, err))
        return false;

    const uint64_t emittedB = pipe_->stepper().stepper().emitted() * outW_;
    std::vector<uint8_t> tail;
    uint64_t base;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Tail base: the sent watermark as of the *previous* persist —
        // bytes handed to the kernel a cadence ago are long delivered,
        // so a re-attaching client's received count can't be below it.
        base = prevPersistSentAbs;
        if (base < outTailBase_)
            base = outTailBase_;
        if (base >= emittedB || emittedB < outTailBase_) {
            // Mid-suppression (the retained window starts past the
            // snapshot) or nothing emitted since the base: an empty
            // tail anchored at the snapshot is consistent — a client
            // ahead of it takes the suppression path on re-attach.
            base = emittedB;
            tail.clear();
        } else {
            size_t drop = static_cast<size_t>(base - outTailBase_);
            outTail_.erase(outTail_.begin(),
                           outTail_.begin() + static_cast<long>(drop));
            outTailBase_ = base;
            if (outTailBase_ + outTail_.size() != emittedB) {
                if (err)
                    *err = "retained output tail is inconsistent";
                return false;
            }
            tail = outTail_;
        }
    }

    w.u64(base);
    w.blob(tail.data(), tail.size());
    out = w.take();
    prevPersistSentAbs = sentPayloadAbs;
    return true;
}

std::string
Session::adoptResume(const std::vector<uint8_t>& payload,
                     uint64_t client_received, std::vector<uint8_t>& resend,
                     uint64_t& resume_elems)
{
    resend.clear();
    Continuation c;  // the snapshot itself is applied worker-side
    std::string err = readContinuation(payload, inW_, outW_, c);
    if (!err.empty())
        return err;
    const uint64_t emittedB = c.emitted * outW_;
    uint64_t suppress = 0;
    if (client_received < c.tailBase)
        return "client resume point precedes the retained output window";
    if (client_received > emittedB) {
        suppress = client_received - emittedB;
        if (outW_ == 0 || suppress % outW_ != 0)
            return "client resume point is not element-aligned";
    } else {
        resend.assign(c.tail.begin() +
                          static_cast<long>(client_received - c.tailBase),
                      c.tail.end());
    }
    resume_elems = c.consumed + (inW_ ? c.backlog.size() / inW_ : 0);

    {
        std::lock_guard<std::mutex> lk(mu_);
        pendingCkpt_ = payload;
        pendingSuppress_ = suppress;
        restorePending_.store(true, std::memory_order_release);
        retainOut_ = true;
        outTailBase_ = client_received;
        outTail_ = resend;
        // Anything an emit-before-take pipeline produced before the
        // attach arrived is regenerated by the restore; the caller
        // guarantees none of it was staged to the wire.
        outRaw_.clear();
        outRawPos_ = 0;
    }
    stagedPayloadAbs = client_received;
    sentPayloadAbs = client_received;
    prevPersistSentAbs = client_received;
    return {};
}

void
Session::beginRetention()
{
    std::lock_guard<std::mutex> lk(mu_);
    retainOut_ = true;
    // An emit-before-take pipeline may have produced output before the
    // attach Hello arrived; the caller guarantees none of it was staged
    // to the wire yet, so seeding the tail from the raw buffer keeps the
    // retained window anchored at absolute offset 0.
    outTail_.assign(outRaw_.begin(), outRaw_.end());
    outTailBase_ = 0;
}

std::string
Session::applyCheckpoint()
{
    std::vector<uint8_t> payload;
    uint64_t suppress;
    {
        std::lock_guard<std::mutex> lk(mu_);
        payload = std::move(pendingCkpt_);
        pendingCkpt_.clear();
        suppress = pendingSuppress_;
        pendingSuppress_ = 0;
        restorePending_.store(false, std::memory_order_relaxed);
    }
    Continuation c;
    std::string err = readContinuation(payload, inW_, outW_, c);
    if (!err.empty())
        return err;
    // Input the queue source held back while the restore was pending
    // follows the donor's backlog.
    qsrc_.takeHeld(c.backlog);
    try {
        // An empty snapshot means the donor never started stepping; the
        // backlog alone reconstructs the session.
        pipe_->stepper().seed(c.snap, std::move(c.backlog),
                              outW_ ? suppress / outW_ : 0);
    } catch (const std::exception& e) {
        return e.what();
    }
    metrics::Registry::global().counter("server.migrations.restored").inc();
    return {};
}

StepResult
Session::step()
{
    SupervisedStepper& ss = pipe_->stepper();
    // A restore adopted on the I/O thread is applied here, before any
    // stepping, so the restored state is never mixed with fresh-start
    // progress.
    if (restorePending_.load(std::memory_order_acquire)) {
        std::string err = applyCheckpoint();
        if (!err.empty()) {
            std::lock_guard<std::mutex> lk(mu_);
            done_.finished = true;
            done_.failed = true;
            done_.failMessage = "checkpoint restore failed: " + err;
            return StepResult::Failed;
        }
    }
    if (!ss.started())
        ss.begin();
    // The fault decorator sits between the queue and the stepper, exactly
    // where it sits between a capture file and a pipeline in zirrun.
    InputSource& src =
        fault_.enabled() ? static_cast<InputSource&>(fsrc_) : qsrc_;
    auto pull = [&](const uint8_t** p) {
        *p = src.next();
        if (*p)
            return Feed::Ready;
        // A Truncate fault ends the stream without consulting the queue,
        // so the queue-source state would be stale for that one case.
        if (fault_.kind == FaultSpec::Kind::Truncate &&
            fsrc_.ticks() >= fault_.tick)
            return Feed::End;
        return qsrc_.state();
    };
    bool overHighWater = false;
    auto push = [&](const uint8_t* elem) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            outRaw_.insert(outRaw_.end(), elem, elem + outW_);
            if (retainOut_)
                outTail_.insert(outTail_.end(), elem, elem + outW_);
            overHighWater =
                outRaw_.size() - outRawPos_ >= cfg_.outHighWaterBytes;
        }
        // Outside mu_: span completion may take the tracker's own lock
        // (and emit a timeline event) — keep the lock graph flat.
        if (spans_)
            spans_->onOutput();
        return !overHighWater;
    };

    try {
        StepOutcome oc = ss.drive(pull, push, cfg_.stepQuantum);
        switch (oc) {
          case StepOutcome::Budget:
            return StepResult::Again;
          case StepOutcome::NeedInput:
            return StepResult::NeedInput;
          case StepOutcome::SinkFull:
            return StepResult::OutputFull;
          case StepOutcome::EndOfInput: {
            if (spans_)
                spans_->flush();
            std::lock_guard<std::mutex> lk(mu_);
            done_.finished = true;
            return StepResult::Finished;
          }
          case StepOutcome::Halted: {
            if (spans_)
                spans_->flush();
            std::lock_guard<std::mutex> lk(mu_);
            done_.finished = true;
            done_.halted = true;
            done_.ctrl = ss.stepper().ctrl();
            return StepResult::Finished;
          }
        }
        return StepResult::Again;  // unreachable
    } catch (const std::exception&) {
        StageFailure f = RestartSupervisor::caught(
            "session" + std::to_string(id_), "server.session.failures");
        if (sup_.onFailure(f)) {
            // Heal in place exactly as a solo run does: restore the last
            // checkpoint and replay the journal (or, without a cadence,
            // reset to a frame boundary); the live queue and the output
            // already buffered are kept.
            ss.heal();
            fsrc_.rearm();
            restarts_.fetch_add(1);
            metrics::Registry::global()
                .counter("server.session.restarts")
                .inc();
            return StepResult::Again;
        }
        std::lock_guard<std::mutex> lk(mu_);
        done_.finished = true;
        done_.failed = true;
        done_.failMessage = f.message;
        if (f.restartsExhausted)
            done_.failMessage +=
                " (after " + std::to_string(f.restarts.size()) +
                " restart(s))";
        return StepResult::Failed;
    }
}

} // namespace serve
} // namespace ziria
