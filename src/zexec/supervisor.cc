#include "zexec/supervisor.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "support/log.h"
#include "support/metrics.h"
#include "support/timeline.h"
#include "support/timing.h"

namespace ziria {

const char*
failureCauseName(FailureCause c)
{
    switch (c) {
      case FailureCause::Exception: return "exception";
      case FailureCause::Stall: return "stall";
      case FailureCause::Cancel: return "cancel";
    }
    return "unknown";
}

double
RestartPolicy::backoffMsFor(uint32_t attempt) const
{
    if (attempt <= 1)
        return std::min(backoffInitialMs, backoffCapMs);
    double ms = backoffInitialMs;
    for (uint32_t i = 1; i < attempt; ++i) {
        ms *= backoffMultiplier;
        if (ms >= backoffCapMs)
            return backoffCapMs;
    }
    return std::min(ms, backoffCapMs);
}

namespace {

std::string
describeFailure(const StageFailure& f)
{
    std::ostringstream os;
    os << "pipeline stage " << f.stage << " (" << f.path
       << ") failed [" << failureCauseName(f.cause) << "]";
    if (!f.message.empty())
        os << ": " << f.message;
    if (f.restartsExhausted) {
        os << "; " << f.restarts.size()
           << " restart(s) exhausted after "
           << f.backoffMsTotal << " ms of backoff";
    }
    return os.str();
}

} // namespace

StageFailureError::StageFailureError(StageFailure f)
    : FatalError(describeFailure(f)), failure_(std::move(f))
{
}

StageFailure
RestartSupervisor::caught(const std::string& path, const char* counter)
{
    try {
        throw;
    } catch (const StageFailureError& e) {
        // Already structured (e.g. a nested driver rethrew); keep it.
        return e.failure();
    } catch (const std::exception& e) {
        StageFailure f;
        f.path = path;
        f.cause = FailureCause::Exception;
        f.message = e.what();
        f.inner = std::current_exception();
        metrics::Registry::global().counter(counter).inc();
        return f;
    }
}

bool
RestartSupervisor::onFailure(StageFailure& f)
{
    const bool restartable = policy_.enabled() &&
                             f.cause != FailureCause::Cancel;
    if (!restartable || attempts_ >= policy_.maxRestarts) {
        // The run is over: hand the history to the outgoing failure so
        // the thrown error narrates the whole recovery attempt.
        f.restarts = history_;
        f.backoffMsTotal = backoffMsTotal_;
        if (restartable) {
            f.restartsExhausted = true;
            metrics::Registry::global().counter("restart.exhausted").inc();
        }
        return false;
    }

    ++attempts_;
    const double backoff = policy_.backoffMsFor(attempts_);

    RestartAttempt rec;
    rec.attempt = attempts_;
    rec.stage = f.stage;
    rec.cause = f.cause;
    rec.message = f.message;
    rec.backoffMs = backoff;
    history_.push_back(std::move(rec));
    backoffMsTotal_ += backoff;

    auto& reg = metrics::Registry::global();
    reg.counter("restart.attempts").inc();
    reg.counter("restart.backoff_ms_total")
        .add(static_cast<uint64_t>(backoff));

    if (timeline::Recorder* r = timeline::active()) {
        r->instant("restart",
                   "restart " + f.path + " [" +
                       failureCauseName(f.cause) + "] attempt " +
                       std::to_string(attempts_),
                   nowNs(), timeline::currentTrack());
    }

    ZIRIA_LOG(Warn, "restart: stage ", f.stage, " (", f.path,
              ") failed [", failureCauseName(f.cause), "]: ", f.message,
              "; re-arming (attempt ", attempts_, "/",
              policy_.maxRestarts, ") after ", backoff, " ms");

    if (backoff > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
    }
    return true;
}

} // namespace ziria
