#include "dsp/conv_code.h"

#include "support/bits.h"
#include "support/panic.h"

namespace ziria {
namespace dsp {

namespace {

/**
 * Puncture masks over the rate-1/2 lattice (A and B interleaved):
 *  2/3: A1 B1 A2 --  (period 4)
 *  3/4: A1 B1 A2 B3  (period 6, B2 and A3 stolen)
 */
const uint8_t kMask23[4] = {1, 1, 1, 0};
const uint8_t kMask34[6] = {1, 1, 1, 0, 0, 1};

} // namespace

bool
punctureKeeps(CodingRate rate, long lattice_pos)
{
    switch (rate) {
      case CodingRate::Half:
        return true;
      case CodingRate::TwoThirds:
        return kMask23[lattice_pos % 4] != 0;
      case CodingRate::ThreeQuarters:
        return kMask34[lattice_pos % 6] != 0;
    }
    return true;
}

ConvEncoder::ConvEncoder(CodingRate rate) : rate_(rate)
{
}

void
ConvEncoder::reset()
{
    state_ = 0;
    phase_ = 0;
}

void
ConvEncoder::encodeBit(uint8_t bit, std::vector<uint8_t>& out)
{
    // 7-bit window [u(t), u(t-1), ..., u(t-6)] in bits [6..0]; the state
    // keeps the six previous bits with the most recent in bit 5.
    uint32_t window = ((bit & 1u) << 6) | state_;
    uint8_t a = static_cast<uint8_t>(parity32(window & convG0));
    uint8_t b = static_cast<uint8_t>(parity32(window & convG1));

    int period = rate_ == CodingRate::Half
        ? 2
        : (rate_ == CodingRate::TwoThirds ? 4 : 6);
    if (punctureKeeps(rate_, phase_))
        out.push_back(a);
    phase_ = (phase_ + 1) % period;
    if (punctureKeeps(rate_, phase_))
        out.push_back(b);
    phase_ = (phase_ + 1) % period;

    state_ = (state_ >> 1) | ((bit & 1u) << 5);
}

std::vector<uint8_t>
ConvEncoder::encode(const std::vector<uint8_t>& bits)
{
    std::vector<uint8_t> out;
    out.reserve(bits.size() * 2);
    for (uint8_t b : bits)
        encodeBit(b, out);
    return out;
}

Depuncturer::Depuncturer(CodingRate rate)
    : period_(rate == CodingRate::Half
                  ? 2
                  : (rate == CodingRate::TwoThirds ? 4 : 6))
{
    for (int p = 0; p < period_; ++p) {
        if (punctureKeeps(rate, p))
            keepMask_ |= 1u << p;
    }
}

void
Depuncturer::reset()
{
    phase_ = 0;
}

void
Depuncturer::input(uint8_t bit, std::vector<uint8_t>& out)
{
    uint8_t lattice[kMaxLattice];
    const int n = input(bit, lattice);
    out.insert(out.end(), lattice, lattice + n);
}

} // namespace dsp
} // namespace ziria
