/**
 * @file
 * Deterministic fault injection for pipeline endpoints.
 *
 * A FaultSpec names one fault — *what* goes wrong and at which element
 * tick — and FaultySource/FaultySink are decorators that impose it on an
 * InputSource/OutputSink.  Faults model what a real SDR front end does
 * to a receiver: captures truncate mid-stream, DMA rings stall for a
 * while, drivers drop samples (short reads), and glue code throws.
 *
 * Everything is seeded and tick-indexed, so a failing fault run replays
 * exactly.  The layer is pay-for-what-you-use: an unwrapped pipeline
 * contains no fault code at all (the decorators are separate objects,
 * never consulted on the normal path), which keeps the PR-1
 * zero-cost-when-off guarantee (scripts/check_overhead.sh) intact.
 */
#ifndef ZIRIA_ZEXEC_FAULTPOINT_H
#define ZIRIA_ZEXEC_FAULTPOINT_H

#include <atomic>
#include <cstdint>
#include <string>

#include "support/panic.h"
#include "support/rng.h"
#include "zexec/pipeline.h"

namespace ziria {

/** One injected fault: what happens and at which element tick. */
struct FaultSpec
{
    enum class Kind : uint8_t {
        None,       ///< no fault (decorators pass straight through)
        Truncate,   ///< end the stream at tick K (mid-stream truncation)
        Stall,      ///< block for stallMs at tick K (cancellable)
        Throw,      ///< throw InjectedFault at tick K
        ShortRead,  ///< from tick K on, randomly drop ~1/8 of elements
    };

    Kind kind = Kind::None;
    uint64_t tick = 0;     ///< element index at which the fault fires
    uint64_t stallMs = 0;  ///< Stall only: how long to block
    uint64_t seed = 1;     ///< ShortRead only: drop-pattern seed
    /** Throw/Stall only: how many times the fault fires (0 = every time
     *  the tick is reached — a *permanent* fault that defeats any
     *  restart policy).  The default of 1 makes the fault transient:
     *  after a restart the decorator does not re-fire, modelling a
     *  one-off glitch that a self-healing pipeline should absorb. */
    uint64_t count = 1;

    bool enabled() const { return kind != Kind::None; }

    /**
     * Parse a command-line spec:
     *   "truncate@K" | "throw@K[:N]" | "stall@K:MS[:N]" |
     *   "shortread@K:SEED"
     * (MS defaults to 1000, SEED to 1, the fire count N to 1; N=0 means
     * fire forever).  Throws FatalError on syntax errors — callers
     * surface it as a user error.
     */
    static FaultSpec parse(const std::string& s);

    /** Round-trippable display form ("truncate@128"). */
    std::string show() const;
};

/** The exception a Throw fault raises (distinguishable in tests). */
class InjectedFault : public FatalError
{
  public:
    explicit InjectedFault(const std::string& msg) : FatalError(msg) {}
};

/**
 * InputSource decorator applying one FaultSpec, a window at a time.
 * Windows are clipped at the fault tick, so Truncate, Throw and Stall
 * fire at the element index they name whatever the inner source's
 * window size, and ShortRead draws once per inner element from the
 * tick on (a drop ends the window before it), so a seed drops the same
 * elements however the drive takes its windows.  Stalls poll the cancel
 * flag every few ms, so a supervised teardown (InputSource::cancel)
 * unblocks the stage promptly instead of waiting out the stall.
 */
class FaultySource : public InputSource
{
  public:
    FaultySource(InputSource& inner, FaultSpec spec)
        : inner_(inner), spec_(spec), rng_(spec.seed)
    {
    }

    const uint8_t* window(size_t* n) override;
    void commit(size_t n) override;
    void cancel() override;

    /** End once the fault or a cancel ended the read, else the inner
     *  source's state (a queue source's Empty passes through). */
    Feed
    state() const override
    {
        return cancelled_.load(std::memory_order_relaxed) ||
                (spec_.kind == FaultSpec::Kind::Truncate && n_ >= spec_.tick)
            ? Feed::End
            : inner_.state();
    }

    /**
     * Clear the sticky cancel latch for a restart attempt.  The fault
     * clock (ticks) and the fired count survive: a transient fault that
     * already fired stays fired, so the restarted run reads on past it —
     * this is what makes `throw@K` cost one frame instead of looping the
     * supervisor forever.
     */
    void rearm() override;

    /** Times the fault has fired (Throw/Stall). */
    uint64_t fired() const { return fired_; }

  private:
    const uint8_t* shortRead(size_t* n);

    InputSource& inner_;
    FaultSpec spec_;
    uint64_t n_ = 0;  ///< elements committed: the fault clock
    uint64_t fired_ = 0;
    uint64_t stalledAt_ = UINT64_MAX;  ///< clock of the last whole stall
    size_t takes_ = 0;       ///< ShortRead: inner elements drawn as kept
    bool dropNext_ = false;  ///< ShortRead: the one after them is dropped
    std::atomic<bool> cancelled_{false};
    Rng rng_;
};

/**
 * OutputSink decorator applying one FaultSpec, a run at a time.
 * Truncate becomes a short *write*: the part of a run before tick K is
 * delivered and every element from K on is silently dropped (the
 * stream keeps flowing, the capture file is short).  Throw and Stall
 * fire on the run that reaches tick K, before any of it is taken, as
 * putRun()'s take-all-or-none rule asks.  A stall delays the run, never
 * drops it (cancel() cuts the sleep short).
 */
class FaultySink : public OutputSink
{
  public:
    FaultySink(OutputSink& inner, FaultSpec spec)
        : inner_(inner), spec_(spec)
    {
    }

    void putRun(const uint8_t* elems, size_t n, size_t width) override;
    bool full() const override { return inner_.full(); }
    void cancel() override;
    void rearm() override;  ///< see FaultySource::rearm()

    uint64_t ticks() const { return n_; }
    uint64_t dropped() const { return dropped_; }
    uint64_t fired() const { return fired_; }

  private:
    OutputSink& inner_;
    FaultSpec spec_;
    uint64_t n_ = 0;
    uint64_t dropped_ = 0;
    uint64_t fired_ = 0;
    std::atomic<bool> cancelled_{false};
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_FAULTPOINT_H
