#include "zexec/stepper.h"

namespace ziria {

void
SupervisedStepper::begin()
{
    if (seeded_) {
        seeded_ = false;
        return;
    }
    stepper_.start(frame_);
    started_ = true;
    journal_.clear();
    replay_.clear();
    replayPos_ = suppress_ = delivered_ = snapConsumed_ = snapEmitted_ = 0;
    // Baseline snapshot, so even a failure before the first interval
    // restores and replays instead of resetting.
    snap_ = interval_ ? takeSnapshot(root_, frame_, cells_, 0, 0)
                      : std::vector<uint8_t>{};
}

SnapshotInfo
SupervisedStepper::seed(const std::vector<uint8_t>& snap,
                        std::vector<uint8_t> replay, uint64_t suppress)
{
    SnapshotInfo info;
    seeded_ = false;
    if (snap.empty()) {
        begin();
    } else {
        info = restoreSnapshot(root_, frame_, cells_, snap);
        stepper_.resume(info.consumed, info.emitted);
        started_ = true;
        journal_.clear();
        snapConsumed_ = info.consumed;
        snapEmitted_ = info.emitted;
        snap_ = interval_ ? snap : std::vector<uint8_t>{};
    }
    replay_ = std::move(replay);
    replayPos_ = 0;
    suppress_ = suppress;
    delivered_ = stepper_.emitted() + suppress;
    seeded_ = true;
    return info;
}

bool
SupervisedStepper::heal()
{
    bool restored = false;
    if (!snap_.empty()) {
        try {
            restoreSnapshot(root_, frame_, cells_, snap_);
            restored = true;
        } catch (const StateFormatError&) {
            // Worse than none: reset for the rest of this run.
            interval_ = 0;
            snap_.clear();
        }
    }
    if (restored) {
        // A failure mid-replay leaves only the re-fed prefix in the
        // journal: carry the un-replayed tail over too, or the healed
        // output would drop those elements.
        journal_.insert(journal_.end(),
                        replay_.begin() +
                            static_cast<std::ptrdiff_t>(replayPos_),
                        replay_.end());
        replay_.swap(journal_);
        replayPos_ = 0;
        suppress_ = delivered_ - snapEmitted_;
        stepper_.resume(snapConsumed_, snapEmitted_);
    } else {
        // Frame-boundary re-arm: partial node state is discarded, input
        // still queued for replay is kept, counters run on.
        root_.reset(frame_);
        stepper_.resume(stepper_.consumed(), stepper_.emitted());
    }
    journal_.clear();
    return restored;
}

void
SupervisedStepper::cadence()
{
    snapConsumed_ = stepper_.consumed();
    snapEmitted_ = stepper_.emitted();
    snap_ = takeSnapshot(root_, frame_, cells_, snapConsumed_,
                         snapEmitted_);
    journal_.clear();
    replay_.clear();
    replayPos_ = 0;
    if (onSnapshot_)
        onSnapshot_(snap_);
}

} // namespace ziria
