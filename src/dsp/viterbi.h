/**
 * @file
 * Streaming Viterbi decoder for the 802.11a K=7 convolutional code.
 *
 * Hard decisions with erasure support (value 2 contributes no branch
 * metric — how punctured positions are handled).  The decoder emits
 * decoded bits in blocks once its path memory exceeds the traceback
 * depth, matching the streaming behaviour the paper relies on (the
 * Viterbi block's output granularity is data dependent, which is why it
 * cannot be auto-vectorized and uses annotations instead).
 *
 * The add-compare-select step runs as a 16-bit SSE2 butterfly pass:
 * next state ns = j | u<<5 has exactly the two predecessors 2j and 2j+1,
 * so the 64 path metrics sit in eight 128-bit vectors, the even and odd
 * predecessors are split out with shifts and packs, and eight states
 * are decided per instruction (one movemask yields 16 decision bits).
 * Metrics are held relative to a tracked 32-bit base; the snapshot
 * format still records the absolute 32-bit metrics of the earlier
 * 32-bit pass, and restore() refuses a state the 16-bit form cannot
 * continue exactly.  That earlier pass was a plain C++ loop that g++
 * -O2 auto-vectorized only four 32-bit lanes wide, with unsigned min
 * and compare emulated; `BM_ViterbiPair` put it at 88-159 ns per step
 * against 21-34 ns for this one on a shared 4-vCPU VM (EXPERIMENTS.md
 * E13).
 */
#ifndef ZIRIA_DSP_VITERBI_H
#define ZIRIA_DSP_VITERBI_H

#include <cstdint>
#include <vector>

#include "dsp/conv_code.h"
#include "support/state_io.h"

namespace ziria {
namespace dsp {

/** Hard-decision Viterbi decoder with erasures. */
class ViterbiDecoder
{
  public:
    /**
     * @param traceback path-memory depth before bits are released
     * @param block     bits released per traceback
     */
    explicit ViterbiDecoder(int traceback = 128, int block = 64);

    void reset();

    /**
     * Consume one coded-bit pair on the rate-1/2 lattice (values 0, 1 or
     * 2 = erasure); decoded bits may be appended to @p out.
     */
    void inputPair(uint8_t a, uint8_t b, std::vector<uint8_t>& out);

    /** Decode all remaining path memory (end of packet). */
    void flush(std::vector<uint8_t>& out);

    /**
     * Serialize live decoder state: the 64 absolute path metrics as
     * u32 (2^29 = unreachable) and the decision memory, oldest first.
     */
    void snapshot(StateWriter& w) const;

    /**
     * Restore the state written by snapshot().  Throws StateFormatError
     * for a metric above 2^29, reachable metrics more than 2^14 apart,
     * no reachable state, or unreachable states next to a minimum so
     * close to the 2^20 normalization that they could outlive it.
     */
    void restore(StateReader& r);

  private:
    void traceback(int emit_count, std::vector<uint8_t>& out);
    /** Re-read the minimum: rebase the metrics, apply the 2^20
     *  normalization, and recompute slack_. */
    void settle();
    /** Set slack_ from the base and the largest reachable metric. */
    void setSlack(int max16);
    uint64_t&
    decisionAt(int t)
    {
        return ring_[(head_ + static_cast<size_t>(t)) & ringMask_];
    }

    int tb_;
    int block_;
    /**
     * Path metrics relative to base_: state s has the absolute metric
     * base_ + metric16_[s], or is unreachable at the 16-bit cap.
     */
    alignas(16) int16_t metric16_[convStates] = {};
    uint32_t base_ = 0;
    /** Steps that can neither cross the normalization threshold nor
     *  approach the 16-bit cap, so the minimum need not be read. */
    int slack_ = 0;
    /** Decision memory: one 64-bit word per step, oldest at head_. */
    std::vector<uint64_t> ring_;
    size_t ringMask_ = 0;
    size_t head_ = 0;
    int count_ = 0;
};

} // namespace dsp
} // namespace ziria

#endif // ZIRIA_DSP_VITERBI_H
