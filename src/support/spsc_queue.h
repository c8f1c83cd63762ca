/**
 * @file
 * Bounded single-producer/single-consumer byte-element ring buffer.
 *
 * This is the interthread queue inserted by the `|>>>|` combinator
 * (Section 2.6 of the paper: pipeline parallelization introduces interthread
 * queues between components placed on different cores).  Elements are
 * fixed-width byte records; the queue supports batched push/pop, close
 * (end-of-stream from the producer) and cancel (early termination requested
 * by the consumer, e.g. when a downstream computer halts).
 *
 * Termination properties (relied on by the ThreadedPipeline supervisor):
 *  - close() and cancel() wake EVERY blocked waiter on both sides, so a
 *    peer that exits — cleanly or by throwing — can always unblock the
 *    other end with one call, never leaving it parked forever;
 *  - pushSpan()/popSpan() (and their one-element forms pushWait()/
 *    popWait()) bound any individual wait, letting stage drive loops poll
 *    an abort flag between slices instead of trusting that a wake-up will
 *    ever arrive.
 */
#ifndef ZIRIA_SUPPORT_SPSC_QUEUE_H
#define ZIRIA_SUPPORT_SPSC_QUEUE_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

namespace ziria {

/** Outcome of a bounded queue wait. */
enum class QueueWait : uint8_t {
    Ready,      ///< element transferred
    Timeout,    ///< deadline elapsed; nothing transferred
    Closed,     ///< producer closed and the queue is drained (pop side)
    Cancelled,  ///< queue cancelled; nothing transferred
};

/**
 * Bounded SPSC queue of fixed-width elements.
 *
 * Implemented with a mutex + condition variables: the termination
 * properties above need sleeping waiters that close()/cancel() can wake
 * and waits that time out, which condition variables give directly, and
 * a stage thread that spins on an empty queue would take CPU from the
 * stage it waits on whenever threads outnumber cores.
 *
 * Every transfer is a span: one lock, one or two memcpys (the ring may
 * wrap) and one notify move a whole batch, so the lock and the wake-up
 * are paid per batch, not per element.  With ThreadedPipeline stages
 * moving up to a few hundred elements per call, the locking cost is
 * already small next to the stages' compute, which is why the mutex
 * stays; a lock-free ring would keep this interface.  pushWait() and
 * popWait() are the one-element spans, so each direction has a single
 * locked transfer path.
 */
class SpscQueue
{
  public:
    /**
     * @param elem_width Bytes per element (must be > 0).
     * @param capacity   Elements the ring can hold.
     */
    SpscQueue(size_t elem_width, size_t capacity)
        : width_(elem_width), cap_(capacity), buf_(elem_width * capacity)
    {
    }

    size_t elemWidth() const { return width_; }
    size_t capacity() const { return cap_; }

    /** Occupancy / stall telemetry (read after a run; see stats()). */
    struct Stats
    {
        uint64_t highWater = 0;   ///< max occupancy ever observed
        uint64_t pushStalls = 0;  ///< push calls that found the queue full
        uint64_t popStalls = 0;   ///< pop calls that found it empty
        uint64_t pushed = 0;      ///< elements
        uint64_t popped = 0;      ///< elements
    };

    /**
     * Push one element; blocks while full.
     * @return false if the queue was cancelled (element dropped).
     */
    bool
    push(const uint8_t* elem)
    {
        return pushWait(elem, -1) == QueueWait::Ready;
    }

    /** pushSpan() of one element. */
    QueueWait
    pushWait(const uint8_t* elem, long timeout_ms)
    {
        size_t done = 0;
        return pushSpan(elem, 1, timeout_ms, &done);
    }

    /**
     * Push up to @p n (>= 1) contiguous elements under one lock, waiting
     * at most @p timeout_ms (-1 = forever) for a free slot.  Moves as
     * many as fit into @p *done and returns Ready, even when that is
     * fewer than @p n; the caller pushes the rest with another call.
     * Timeout and Cancelled enqueue nothing.
     */
    QueueWait
    pushSpan(const uint8_t* elems, size_t n, long timeout_ms, size_t* done)
    {
        *done = 0;
        std::unique_lock<std::mutex> lk(mu_);
        if (size_ >= cap_ && !cancelled_)
            ++stats_.pushStalls;
        auto ready = [&] { return size_ < cap_ || cancelled_; };
        if (!waitFor(notFull_, lk, ready, timeout_ms))
            return QueueWait::Timeout;
        if (cancelled_)
            return QueueWait::Cancelled;
        const size_t k = std::min(n, cap_ - size_);
        const size_t pos = head_ % cap_;
        const size_t first = std::min(k, cap_ - pos);  // up to the wrap
        std::memcpy(&buf_[pos * width_], elems, first * width_);
        std::memcpy(buf_.data(), elems + first * width_,
                    (k - first) * width_);
        head_ += k;
        size_ += k;
        stats_.pushed += k;
        if (size_ > stats_.highWater)
            stats_.highWater = size_;
        lk.unlock();
        notEmpty_.notify_one();
        *done = k;
        return QueueWait::Ready;
    }

    /**
     * Pop one element; blocks while empty and not closed.
     * @return false on end-of-stream (closed and drained, or cancelled).
     */
    bool
    pop(uint8_t* elem)
    {
        return popWait(elem, -1) == QueueWait::Ready;
    }

    /** popSpan() of at most one element. */
    QueueWait
    popWait(uint8_t* elem, long timeout_ms)
    {
        size_t done = 0;
        return popSpan(elem, 1, timeout_ms, &done);
    }

    /**
     * Pop up to @p max (>= 1) elements into @p out under one lock,
     * waiting at most @p timeout_ms (-1 = forever) for at least one.
     * Moves min(@p max, queued) elements into @p *done and returns
     * Ready.  Returns Closed once the producer closed and the ring is
     * drained, Cancelled after cancel() (even with elements queued),
     * Timeout when the deadline elapses first; those move nothing.
     */
    QueueWait
    popSpan(uint8_t* out, size_t max, long timeout_ms, size_t* done)
    {
        *done = 0;
        std::unique_lock<std::mutex> lk(mu_);
        if (size_ == 0 && !closed_ && !cancelled_)
            ++stats_.popStalls;
        auto ready = [&] { return size_ > 0 || closed_ || cancelled_; };
        if (!waitFor(notEmpty_, lk, ready, timeout_ms))
            return QueueWait::Timeout;
        if (cancelled_)
            return QueueWait::Cancelled;
        if (size_ == 0)
            return QueueWait::Closed;
        const size_t k = std::min(max, size_);
        const size_t pos = tail_ % cap_;
        const size_t first = std::min(k, cap_ - pos);  // up to the wrap
        std::memcpy(out, &buf_[pos * width_], first * width_);
        std::memcpy(out + first * width_, buf_.data(),
                    (k - first) * width_);
        tail_ += k;
        size_ -= k;
        stats_.popped += k;
        lk.unlock();
        notFull_.notify_one();
        *done = k;
        return QueueWait::Ready;
    }

    /** Snapshot the telemetry counters. */
    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return stats_;
    }

    /**
     * Re-arm the queue for a restart attempt: clear the closed/cancelled
     * latches while KEEPING the queued backlog and the telemetry
     * (docs/ROBUSTNESS.md, "Threaded restart": no queue is dropped).
     * Caller must guarantee quiescence — no thread may be blocked on (or
     * racing into) the queue; the ThreadedPipeline supervisor only calls
     * this after every stage thread has been joined.
     */
    void
    uncancel()
    {
        std::lock_guard<std::mutex> lk(mu_);
        closed_ = false;
        cancelled_ = false;
    }

    /** Elements currently queued (telemetry / drain decisions). */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return size_;
    }

    /**
     * Copy the queued backlog, oldest first, without consuming it.
     * Used by durable checkpointing while the consumer is parked; the
     * backlog stays in place so the session keeps running unchanged if
     * the checkpoint is never restored (e.g. a rejected migration).
     */
    void
    peekAll(std::vector<uint8_t>& out) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (size_t i = 0; i < size_; ++i) {
            const uint8_t* p = &buf_[((tail_ + i) % cap_) * width_];
            out.insert(out.end(), p, p + width_);
        }
    }

    /** Producer signals end-of-stream; wakes every waiter. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    /**
     * Consumer (or the pipeline supervisor) requests early termination;
     * wakes every waiter on both sides.
     */
    void
    cancel()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            cancelled_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    bool
    cancelled() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return cancelled_;
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return closed_;
    }

  private:
    template <typename Pred>
    static bool
    waitFor(std::condition_variable& cv, std::unique_lock<std::mutex>& lk,
            Pred ready, long timeout_ms)
    {
        if (timeout_ms < 0) {
            cv.wait(lk, ready);
            return true;
        }
        return cv.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                           ready);
    }

    const size_t width_;
    const size_t cap_;
    std::vector<uint8_t> buf_;
    mutable std::mutex mu_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    size_t head_ = 0;
    size_t tail_ = 0;
    size_t size_ = 0;
    bool closed_ = false;
    bool cancelled_ = false;
    Stats stats_;
};

} // namespace ziria

#endif // ZIRIA_SUPPORT_SPSC_QUEUE_H
