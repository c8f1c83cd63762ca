#include "zserve/session.h"

#include <algorithm>

#include "support/metrics.h"
#include "zexec/snapshot.h"

namespace ziria {
namespace serve {

namespace {

/** A session continuation payload (see kSessionCheckpointVersion). */
struct Continuation
{
    uint64_t consumed = 0;
    uint64_t delivered = 0;     ///< outputs the downstream holds
    uint64_t snapEmitted = 0;   ///< outputs the snapshot itself emitted
    std::vector<uint8_t> snap;
    std::vector<uint8_t> backlog;
    uint64_t tailBase = 0;      ///< output byte offset of tail
    std::vector<uint8_t> tail;  ///< retained output up to delivered
};

/** Parse and check @p payload against the pipeline's element widths;
 *  returns an error message, empty on success. */
std::string
readContinuation(const std::vector<uint8_t>& payload, size_t inW,
                 size_t outW, Continuation& c)
{
    uint64_t backlogElems;
    SnapshotInfo info;  // an empty snapshot: the donor never stepped
    try {
        StateReader r(payload.data(), payload.size());
        uint32_t ver = r.u32();
        if (ver != kSessionCheckpointVersion)
            return "unsupported session checkpoint version " +
                   std::to_string(ver);
        c.consumed = r.u64();
        c.delivered = r.u64();
        backlogElems = r.u64();
        c.snap = r.blob();
        c.backlog = r.blob();
        c.tailBase = r.u64();
        c.tail = r.blob();
        if (!r.atEnd())
            return "trailing bytes after the session checkpoint";
        StateReader sr(c.snap);
        if (!c.snap.empty())
            info = readSnapshotHeader(sr);
    } catch (const std::exception& e) {
        return e.what();
    }
    c.snapEmitted = info.emitted;
    if (c.consumed != info.consumed)
        return "checkpoint consumed count disagrees with its snapshot";
    // Fewer delivered outputs than the snapshot emitted would make the
    // restore re-send output the client already holds.
    if (c.delivered < c.snapEmitted)
        return "checkpoint delivered count precedes its snapshot";
    if (c.tailBase + c.tail.size() != c.delivered * outW)
        return "checkpoint output tail is inconsistent";
    if (inW ? c.backlog.size() % inW != 0 : !c.backlog.empty())
        return "checkpoint backlog is not element-aligned";
    if (inW && c.backlog.size() / inW != backlogElems)
        return "checkpoint backlog count disagrees with header";
    return {};
}

} // namespace

/** step()'s sink: output runs go to the raw buffer (and the retained
 *  tail); full() once the buffer reaches the high water. */
class Session::RawSink final : public OutputSink
{
  public:
    explicit RawSink(Session& s) : s_(s) {}

    void
    putRun(const uint8_t* e, size_t n, size_t width) override
    {
        std::lock_guard<std::mutex> lk(s_.mu_);
        s_.outRaw_.insert(s_.outRaw_.end(), e, e + n * width);
        if (s_.retainOut_)
            s_.outTail_.insert(s_.outTail_.end(), e, e + n * width);
        full_ = s_.outRaw_.size() - s_.outRawPos_ >=
                s_.cfg_.outHighWaterBytes;
    }

    bool full() const override { return full_; }

  private:
    Session& s_;
    bool full_ = false;
};

Session::Session(uint64_t id, int fd, std::unique_ptr<Pipeline> pipe,
                 const SessionConfig& cfg, const FaultSpec& fault)
    : id_(id), fd_(fd), pipe_(std::move(pipe)),
      inW_(pipe_->inWidth()), outW_(pipe_->outWidth()), cfg_(cfg),
      inQ_(inW_ ? inW_ : 1, cfg.inQueueElems),
      qsrc_(inQ_, QueuePoll{0}, &restorePending_), fault_(fault),
      fsrc_(qsrc_, fault), sup_(pipe_->restartPolicy())
{
    if (cfg.trackLatency) {
        SpanConfig sc = cfg.span;
        sc.name = "session" + std::to_string(id);
        spans_ = std::make_unique<SpanTracker>(sc);
    }
    if (!inW_)
        inQ_.close();  // the pipeline takes no input
    // The pipeline's own policies, as in a solo run.
    pipe_->configureStepper();
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
        spans_->onInput(done);
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
Session::checkpoint(std::vector<uint8_t>& out, std::string* err)
{
    auto fail = [err](const std::string& m) {
        if (err)
            *err = m;
        return false;
    };
    // The caller holds the session quiesced, so the worker-owned
    // pipeline state is safe to read from the I/O thread.  Before an
    // adopted restore is applied the pipeline still holds fresh-start
    // state, which must not be persisted (or migrated) over real state.
    if (restorePending_.load(std::memory_order_acquire))
        return fail("adopted restore not yet applied");
    const SupervisedStepper& ss = pipe_->stepper();
    const uint64_t consumed = ss.stepper().consumed();
    const uint64_t delivered = ss.delivered();
    std::vector<uint8_t> snap;
    if (ss.started()) {
        try {
            snap = takeSnapshot(pipe_->root(), pipe_->frame(),
                                FrameRange::whole(pipe_->frame()),
                                consumed, ss.stepper().emitted());
        } catch (const std::exception& e) {
            return fail(e.what());
        }
    }

    // Unconsumed input, oldest first, without draining anything: input
    // the carry has yet to replay, the rest of the batch the queue
    // source popped, a peek of the queue, then the I/O thread's
    // decoded-but-unqueued remainder.
    std::vector<uint8_t> backlog = ss.unreplayed();
    qsrc_.appendRest(backlog);
    if (inW_)
        inQ_.peekAll(backlog);
    backlog.insert(backlog.end(),
                   pendingIn.begin() + static_cast<long>(pendingPos),
                   pendingIn.end());

    // The target rejects a backlog that is not a whole number of input
    // elements.  The wire protocol only admits whole-element Data
    // payloads; if a partial tail ever reaches us, fail so the caller
    // counts the drain or persist as aborted.
    if (inW_ ? backlog.size() % inW_ != 0 : !backlog.empty())
        return fail("input backlog is not element-aligned");

    // The retained tail ends at delivered.  Its base is the sent
    // watermark as of the *previous* call — bytes handed to the kernel
    // a cadence ago are long delivered, so a re-attaching client's
    // received count can't be below it.  Without retention the tail is
    // empty.
    const uint64_t deliveredB = delivered * outW_;
    uint64_t base = deliveredB;
    std::vector<uint8_t> tail;
    if (retainOut_) {
        std::lock_guard<std::mutex> lk(mu_);
        if (outTailBase_ + outTail_.size() != deliveredB ||
            prevPersistSentAbs > deliveredB)
            return fail("retained output tail is inconsistent");
        base = std::max(prevPersistSentAbs, outTailBase_);
        outTail_.erase(outTail_.begin(),
                       outTail_.begin() +
                           static_cast<long>(base - outTailBase_));
        outTailBase_ = base;
        tail = outTail_;
    }

    StateWriter w;
    w.u32(kSessionCheckpointVersion);
    w.u64(consumed);
    w.u64(delivered);
    w.u64(inW_ ? backlog.size() / inW_ : 0);
    w.blob(snap.data(), snap.size());
    w.blob(backlog.data(), backlog.size());
    w.u64(base);
    w.blob(tail.data(), tail.size());
    out = w.take();
    prevPersistSentAbs = sentPayloadAbs;
    return true;
}

void
Session::adoptCheckpoint(std::vector<uint8_t> payload)
{
    std::lock_guard<std::mutex> lk(mu_);
    pendingCkpt_ = std::move(payload);
    restorePending_.store(true, std::memory_order_release);
}

std::string
Session::checkContinuation(const std::vector<uint8_t>& payload) const
{
    Continuation c;
    return readContinuation(payload, inW_, outW_, c);
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
    const uint64_t deliveredB = c.delivered * outW_;
    uint64_t lead = 0;
    if (client_received < c.tailBase)
        return "client resume point precedes the retained output window";
    if (client_received > deliveredB) {
        lead = client_received - deliveredB;
        if (outW_ == 0 || lead % outW_ != 0)
            return "client resume point is not element-aligned";
        lead /= outW_;
    } else {
        resend.assign(c.tail.begin() +
                          static_cast<long>(client_received - c.tailBase),
                      c.tail.end());
    }
    resume_elems = c.consumed + (inW_ ? c.backlog.size() / inW_ : 0);

    {
        std::lock_guard<std::mutex> lk(mu_);
        pendingCkpt_ = payload;
        pendingLead_ = lead;
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

void
Session::trimRetained(uint64_t abs)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!retainOut_ || abs <= outTailBase_)
        return;
    const uint64_t n =
        std::min<uint64_t>(abs - outTailBase_, outTail_.size());
    outTail_.erase(outTail_.begin(),
                   outTail_.begin() + static_cast<long>(n));
    outTailBase_ += n;
}

std::string
Session::applyCheckpoint()
{
    std::vector<uint8_t> payload;
    uint64_t lead;
    {
        std::lock_guard<std::mutex> lk(mu_);
        payload = std::move(pendingCkpt_);
        pendingCkpt_.clear();
        lead = pendingLead_;
        pendingLead_ = 0;
        restorePending_.store(false, std::memory_order_relaxed);
    }
    Continuation c;
    std::string err = readContinuation(payload, inW_, outW_, c);
    if (!err.empty())
        return err;
    // Input the queue source held back while the restore was pending
    // follows the donor's backlog.
    qsrc_.appendRest(c.backlog, /*consume=*/true);
    try {
        // An empty snapshot means the donor never started stepping; the
        // backlog alone reconstructs the session.  The downstream holds
        // every output up to delivered, plus a re-attaching client's
        // lead beyond it.
        pipe_->stepper().seed(c.snap, std::move(c.backlog),
                              c.delivered - c.snapEmitted + lead);
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
    // Spans open at ingress (offerInput) and close here, as output is
    // buffered.  An output run holds at most the high water's worth.
    RawSink sink(*this);
    RunIo io{fault_.enabled() ? static_cast<InputSource&>(fsrc_) : qsrc_,
             sink, ss.stepper(), outW_};
    io.cap = std::max<size_t>(
        cfg_.outHighWaterBytes / std::max<size_t>(outW_, 1), 1);
    io.outSpans = spans_.get();
    try {
        StepOutcome oc = ss.drive(io, cfg_.stepQuantum);
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
            if (spans_)
                spans_->onRestart();
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
