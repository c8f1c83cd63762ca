/**
 * @file
 * Pipeline supervision: structured stage failures and the self-healing
 * restart policy (docs/ROBUSTNESS.md, "Recovery").
 *
 * PR 3 gave the runtime the *detection* half of fault tolerance — a
 * watchdog and a structured StageFailureError that tear a pipeline down
 * deterministically.  This header is the *recovery* half: a
 * RestartPolicy describes whether and how a failed run is re-armed and
 * retried (bounded attempts, exponential backoff), and a
 * RestartSupervisor does the shared bookkeeping for every driver (the
 * single-threaded Pipeline, the ThreadedPipeline executor, and each
 * zserve Session): deciding restartability, recording the attempt
 * history, emitting the `restart.*` metrics, and sleeping out the
 * backoff.
 *
 * The same long-lived-dataflow idea appears in StreamIt's persistent
 * stream graphs and Sora's always-on software radio: the antenna loop
 * must survive transient faults; only persistent ones may end the run.
 */
#ifndef ZIRIA_ZEXEC_SUPERVISOR_H
#define ZIRIA_ZEXEC_SUPERVISOR_H

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "support/panic.h"

namespace ziria {

/** Why a supervised stage (and with it the run) failed. */
enum class FailureCause : uint8_t {
    Exception,  ///< the stage's drive loop threw
    Stall,      ///< the watchdog saw no progress for the whole deadline
    Cancel,     ///< aborted as collateral of another stage's failure
};

/** Short lowercase name ("exception", "stall", "cancel"). */
const char* failureCauseName(FailureCause c);

/** Whether failed runs are retried in place. */
enum class RestartMode : uint8_t {
    Never,      ///< fail fast: the first StageFailure ends the run
    OnFailure,  ///< re-arm and retry Exception/Stall failures
};

/**
 * Bounded retry/backoff policy for a self-healing pipeline.
 *
 * With mode OnFailure, a run that fails with cause Exception or Stall
 * is re-armed and retried up to maxRestarts times; attempt k sleeps
 * backoffMsFor(k) first (exponential: initial * multiplier^(k-1),
 * capped at backoffCapMs).  Cause Cancel is never restartable — it is
 * collateral of another failure, which carries the blame.  A successful
 * run resets nothing: the budget is per run() call, not per process.
 */
struct RestartPolicy
{
    RestartMode mode = RestartMode::Never;
    uint32_t maxRestarts = 0;       ///< retry budget per run() call
    double backoffInitialMs = 10;   ///< sleep before the first retry
    double backoffMultiplier = 2.0; ///< growth factor per attempt
    double backoffCapMs = 1000;     ///< upper bound on any single sleep

    bool
    enabled() const
    {
        return mode == RestartMode::OnFailure && maxRestarts > 0;
    }

    /** Backoff before restart attempt @p attempt (1-based), in ms. */
    double backoffMsFor(uint32_t attempt) const;
};

/**
 * Frame-boundary checkpointing (docs/ROBUSTNESS.md, "Checkpointing &
 * migration").  With an interval of N, the supervised drivers snapshot
 * the complete pipeline state (zexec/snapshot.h) every N consumed input
 * elements and journal the raw input consumed since; a restart then
 * restores the last snapshot and replays the journal (suppressing the
 * already-delivered outputs) instead of resetting to zero, so the
 * post-restart output stream is byte-identical to an uninterrupted
 * run.  interval 0 disables checkpointing entirely: no snapshot, no
 * journal, no per-element cost (guarded by scripts/check_overhead.sh).
 */
struct CheckpointPolicy
{
    uint64_t interval = 0;  ///< input elements between snapshots; 0 = off

    bool enabled() const { return interval > 0; }
};

/** One entry in a failed run's restart history. */
struct RestartAttempt
{
    uint32_t attempt = 0;      ///< 1-based restart number
    size_t stage = 0;          ///< which stage failed before this restart
    FailureCause cause = FailureCause::Exception;
    std::string message;
    double backoffMs = 0;      ///< sleep taken before the retry
};

/** Structured description of a failed pipeline stage. */
struct StageFailure
{
    size_t stage = 0;            ///< index into the stage vector
    std::string path;            ///< stable node path ("stage2")
    FailureCause cause = FailureCause::Exception;
    std::string message;         ///< human-readable detail
    std::exception_ptr inner;    ///< original exception (Exception only)

    // Restart history (filled by RestartSupervisor when a policy was
    // active; empty on a fail-fast run).
    std::vector<RestartAttempt> restarts;  ///< the retries already spent
    bool restartsExhausted = false;  ///< the retry budget ran out
    double backoffMsTotal = 0;       ///< total sleep across all retries
};

/**
 * Exception raised when a pipeline run fails.  Derives from FatalError
 * so existing catch sites keep working; failure() carries the
 * structured record (stage index, node path, cause, restart history).
 */
class StageFailureError : public FatalError
{
  public:
    explicit StageFailureError(StageFailure f);

    const StageFailure& failure() const { return failure_; }

  private:
    StageFailure failure_;
};

/**
 * Per-run restart bookkeeping shared by every supervised driver.
 *
 * Usage: construct one per run() call (one per session); on each
 * StageFailure call onFailure(f).  If it returns true the failure was
 * consumed — history recorded, `restart.attempts` /
 * `restart.backoff_ms_total` bumped, the backoff slept — and the caller
 * should re-arm and retry.  If it returns false the run is over: f has
 * been augmented with the restart history (and restartsExhausted when
 * the budget ran out, bumping `restart.exhausted`), and the caller
 * should throw it.  run() is that loop for the blocking drivers.
 */
class RestartSupervisor
{
  public:
    explicit RestartSupervisor(RestartPolicy policy)
        : policy_(policy)
    {
    }

    bool onFailure(StageFailure& f);

    /**
     * Call @p attempt until it returns, passing each failure the policy
     * allows to @p rearm (which readies the driver for the next attempt)
     * and throwing the last one.  With restarts disabled, an exception
     * propagates unchanged.
     */
    template <typename Attempt, typename Rearm>
    auto
    run(Attempt&& attempt, Rearm&& rearm) -> decltype(attempt())
    {
        if (!policy_.enabled())
            return attempt();
        for (;;) {
            StageFailure f;
            try {
                return attempt();
            } catch (const std::exception&) {
                f = caught("root", "ziria.stage_failures");
            }
            if (!onFailure(f))
                throw StageFailureError(std::move(f));
            rearm(f);
        }
    }

    /** The std::exception being handled, as a StageFailure of stage 0
     *  at @p path (bumping metric @p counter), unless already one. */
    static StageFailure caught(const std::string& path,
                               const char* counter);

  private:
    RestartPolicy policy_;
    uint32_t attempts_ = 0;
    double backoffMsTotal_ = 0;
    std::vector<RestartAttempt> history_;
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_SUPERVISOR_H
