/**
 * @file
 * Queue-backed endpoints over an SpscQueue: a `|>>>|` stage reads its
 * upstream queue through a QueueSource and writes its downstream one
 * through a QueueSink, and a served session reads its input through a
 * QueueSource.  Both move whole batches, and both keep what a torn-down
 * drive left them for the next drive to take first.
 */
#ifndef ZIRIA_ZEXEC_QUEUE_IO_H
#define ZIRIA_ZEXEC_QUEUE_IO_H

#include <atomic>
#include <vector>

#include "support/spsc_queue.h"
#include "support/timing.h"
#include "zexec/pipeline.h"

namespace ziria {

/** Elements per queue transfer: enough that the lock and the wake-up
 *  are noise next to the stages' compute, few enough to stay in cache. */
constexpr size_t kBatchElems = 256;

/** How a queue endpoint waits for its queue. */
struct QueuePoll
{
    long sliceMs = -1;  ///< one wait's bound (-1 = block, 0 = never wait)
    const std::atomic<bool>* abort = nullptr;  ///< polled between slices
    uint64_t* waitNs = nullptr;  ///< adds up time spent waiting (null: off)

    /** Retry the timed transfer @p xfer while it times out, unless the
     *  slice is 0 or the abort flag is set. */
    template <typename Xfer>
    QueueWait
    operator()(Xfer xfer) const
    {
        const uint64_t t0 = waitNs ? nowNs() : 0;
        QueueWait w;
        while ((w = xfer(sliceMs)) == QueueWait::Timeout && sliceMs != 0 &&
               !(abort && abort->load(std::memory_order_relaxed))) {
        }
        if (waitNs)
            *waitNs += nowNs() - t0;
        return w;
    }
};

/**
 * Reads a queue a batch at a time: a window is the unconsumed rest of
 * the last batch popped (up to kBatchElems), and the next is popped once
 * it is used up.  No window is End when the queue is closed and drained,
 * cancelled, or given up on abort (tornDown() for the last two), and
 * Empty when a slice of 0 found it dry or while @p hold is set (a
 * session's adopted checkpoint not yet applied; the batch is kept).
 */
class QueueSource : public InputSource
{
  public:
    QueueSource(SpscQueue& q, QueuePoll p,
                const std::atomic<bool>* hold = nullptr)
        : poll(p), q_(q), batch_(kBatchElems * q.elemWidth()), hold_(hold)
    {
    }

    const uint8_t*
    window(size_t* n) override
    {
        if (pos_ == len_) {
            QueueWait w = poll([&](long ms) {
                return q_.popSpan(batch_.data(), kBatchElems, ms, &len_);
            });
            pos_ = 0;
            empty_ = w == QueueWait::Timeout && poll.sliceMs == 0;
            tornDown_ = w != QueueWait::Ready && w != QueueWait::Closed &&
                        !empty_;
            if (w != QueueWait::Ready)
                return nullptr;
        }
        // Checked after the pop, which orders it against the I/O
        // thread's adopt-then-enqueue.
        if ((empty_ = hold_ && hold_->load(std::memory_order_acquire)))
            return nullptr;
        *n = len_ - pos_;
        return batch_.data() + pos_ * q_.elemWidth();
    }

    void commit(size_t n) override { pos_ += n; }
    Feed state() const override { return empty_ ? Feed::Empty : Feed::End; }
    bool tornDown() const { return tornDown_; }

    /** Append the popped, unconsumed rest to @p out (@p consume: and
     *  drop it). */
    void
    appendRest(std::vector<uint8_t>& out, bool consume = false)
    {
        const size_t w = q_.elemWidth();
        out.insert(out.end(), batch_.begin() + pos_ * w,
                   batch_.begin() + len_ * w);
        pos_ = consume ? len_ : pos_;
    }

    QueuePoll poll;

  private:
    SpscQueue& q_;
    std::vector<uint8_t> batch_;
    size_t pos_ = 0;  ///< batch_[pos_, len_) is the rest (in elements)
    size_t len_ = 0;
    const std::atomic<bool>* hold_;
    bool empty_ = false;
    bool tornDown_ = false;
};

/**
 * Writes a queue a run at a time.  When the queue is cancelled or the
 * abort flag is seen mid-run, the unpushed rest is kept, full() reports
 * the teardown, and flush() pushes it first on the next drive.
 */
class QueueSink : public OutputSink
{
  public:
    QueueSink(SpscQueue& q, QueuePoll p) : poll(p), q_(q) {}

    bool full() const override { return !held_.empty(); }

    void
    putRun(const uint8_t* e, size_t n, size_t) override
    {
        const size_t off = held_.empty() ? push(e, n) : 0;
        held_.insert(held_.end(), e + off * q_.elemWidth(),
                     e + n * q_.elemWidth());
    }

    /** Push what a teardown left; false when torn down again first. */
    bool
    flush()
    {
        const size_t w = q_.elemWidth();
        const size_t sent = push(held_.data(), held_.size() / w);
        held_.erase(held_.begin(),
                    held_.begin() + static_cast<long>(sent * w));
        return held_.empty();
    }

    QueuePoll poll;

  private:
    /** Push @p n elements; returns how many went before a teardown. */
    size_t
    push(const uint8_t* e, size_t n)
    {
        size_t off = 0, done = 0;
        while (off < n &&
               poll([&](long ms) {
                   return q_.pushSpan(e + off * q_.elemWidth(), n - off, ms,
                                      &done);
               }) == QueueWait::Ready)
            off += done;
        return off;
    }

    SpscQueue& q_;
    std::vector<uint8_t> held_;  ///< outputs a teardown left unpushed
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_QUEUE_IO_H
