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
 * The add-compare-select step runs in butterfly form: next state
 * ns = j | u<<5 has exactly the two predecessors 2j and 2j+1, so one
 * flat, branch-free pass over j computes every survivor, its decision
 * bit and the running minimum.  g++ vectorizes that pass at -O2.
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
     * Serialize live decoder state (path metrics + decision memory).
     * The per-step scratch and the expected-bit masks are not written.
     */
    void snapshot(StateWriter& w) const;

    /** Restore the state written by snapshot(). */
    void restore(StateReader& r);

  private:
    void traceback(int emit_count, std::vector<uint8_t>& out);

    int tb_;
    int block_;
    uint32_t metric_[convStates] = {};
    uint32_t next_[convStates] = {};    ///< per-step scratch
    uint8_t decided_[convStates] = {};  ///< per-step scratch: 1 = odd won
    std::vector<uint64_t> decisions_;  ///< one 64-bit word per step
    /**
     * Expected output bits in butterfly order, as all-ones/zero masks:
     * index ns = j | u<<5, for the even (2j) and odd (2j+1) predecessor.
     */
    uint32_t expA0_[convStates], expB0_[convStates];
    uint32_t expA1_[convStates], expB1_[convStates];
};

} // namespace dsp
} // namespace ziria

#endif // ZIRIA_DSP_VITERBI_H
