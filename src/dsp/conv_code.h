/**
 * @file
 * The 802.11a convolutional code: K=7, rate-1/2 mother code with
 * generators g0 = 133 (octal) and g1 = 171 (octal), plus the standard
 * puncturing patterns for rates 2/3 and 3/4.
 */
#ifndef ZIRIA_DSP_CONV_CODE_H
#define ZIRIA_DSP_CONV_CODE_H

#include <cstdint>
#include <vector>

namespace ziria {
namespace dsp {

/** Coding rates of 802.11a. */
enum class CodingRate { Half, TwoThirds, ThreeQuarters };

/** Numerator/denominator of a coding rate. */
inline int
rateNumerator(CodingRate r)
{
    switch (r) {
      case CodingRate::Half: return 1;
      case CodingRate::TwoThirds: return 2;
      default: return 3;
    }
}

inline int
rateDenominator(CodingRate r)
{
    switch (r) {
      case CodingRate::Half: return 2;
      case CodingRate::TwoThirds: return 3;
      default: return 4;
    }
}

constexpr int convK = 7;          ///< constraint length
constexpr uint32_t convG0 = 0133; ///< generator A (octal)
constexpr uint32_t convG1 = 0171; ///< generator B (octal)
constexpr int convStates = 64;

/** Streaming convolutional encoder with puncturing. */
class ConvEncoder
{
  public:
    explicit ConvEncoder(CodingRate rate = CodingRate::Half);

    void reset();

    /** Encode one data bit; appends the surviving coded bits to @p out. */
    void encodeBit(uint8_t bit, std::vector<uint8_t>& out);

    /** Encode a whole bit vector. */
    std::vector<uint8_t> encode(const std::vector<uint8_t>& bits);

    uint32_t state() const { return state_; }

  private:
    CodingRate rate_;
    uint32_t state_ = 0;  ///< last 6 input bits, newest in bit 0
    int phase_ = 0;       ///< position in the puncturing period
};

/**
 * Re-insert erasures at punctured positions: maps a punctured coded
 * stream back to the rate-1/2 lattice.  Erasures are marked with the
 * value 2 (branch metrics ignore them).
 */
class Depuncturer
{
  public:
    explicit Depuncturer(CodingRate rate = CodingRate::Half);

    void reset();

    /** Feed one received coded bit; appends 1+ lattice bits to @p out. */
    void input(uint8_t bit, std::vector<uint8_t>& out);

    /**
     * Feed one received coded bit; writes its lattice bits to @p out and
     * returns how many (at most kMaxLattice).
     */
    int
    input(uint8_t bit, uint8_t* out)
    {
        int n = 0;
        // Fill stolen positions with erasures until the next kept slot.
        while (!keeps(phase_)) {
            out[n++] = 2;
            advance();
        }
        out[n++] = bit & 1u ? 1 : bit;
        advance();
        // Trailing erasures so pairs complete promptly.
        while (!keeps(phase_)) {
            out[n++] = 2;
            advance();
        }
        return n;
    }

    /** Most lattice bits one input() can produce. */
    static constexpr int kMaxLattice = 5;

    /** Puncture-pattern phase, exposed for checkpoint serialization. */
    int phase() const { return phase_; }
    void setPhase(int p) { phase_ = p; }

    /** Lattice positions per puncturing period (phases are below it). */
    int period() const { return period_; }

  private:
    bool keeps(int phase) const { return (keepMask_ >> phase) & 1u; }
    void advance() { phase_ = phase_ + 1 == period_ ? 0 : phase_ + 1; }

    int period_;
    uint32_t keepMask_ = 0;  ///< bit p set iff lattice phase p is sent
    int phase_ = 0;
};

/** Puncture-pattern query: is coded position @p i (A/B alternating on the
 *  rate-1/2 lattice) transmitted under @p rate? */
bool punctureKeeps(CodingRate rate, long lattice_pos);

} // namespace dsp
} // namespace ziria

#endif // ZIRIA_DSP_CONV_CODE_H
