#include "dsp/viterbi.h"

#include <algorithm>
#include <cstring>

#include "support/bits.h"
#include "support/panic.h"

namespace ziria {
namespace dsp {

namespace {

constexpr uint32_t kInfMetric = 1u << 29;
constexpr int kHalf = convStates / 2;  ///< butterflies per step

/**
 * Cost of one received coded bit @p r against each expected value:
 * 1 on a mismatch, 0 on a match or an erasure (2).
 */
struct BitCost
{
    uint32_t c0;    ///< cost when 0 is expected
    uint32_t flip;  ///< c0 ^ (cost when 1 is expected)

    explicit BitCost(uint8_t r)
    {
        c0 = r != 2 && r != 0;
        flip = c0 ^ static_cast<uint32_t>(r != 2 && r != 1);
    }

    /** Cost against an expected-bit mask (0 or all ones). */
    uint32_t at(uint32_t mask) const { return c0 ^ (mask & flip); }
};

/**
 * Gather the low bit of 8 consecutive 0/1 bytes into one byte (byte i
 * lands in bit i): each byte's bit is shifted to position 56 + i by a
 * distinct multiplier term, and no two terms collide or carry.
 */
inline uint64_t
packFlags8(const uint8_t* p)
{
    uint64_t x;
    std::memcpy(&x, p, 8);
    return (x * 0x0102040810204080ull) >> 56;
}

} // namespace

ViterbiDecoder::ViterbiDecoder(int traceback, int block)
    : tb_(traceback), block_(block)
{
    ZIRIA_ASSERT(traceback > 0 && block > 0);
    // Next state ns = j | u<<5 is reached from 2j and 2j+1 on input u;
    // the encoder window is u<<6 | predecessor.
    auto mask = [](uint32_t window, uint32_t g) {
        return parity32(window & g) ? ~0u : 0u;
    };
    for (int ns = 0; ns < convStates; ++ns) {
        uint32_t j = static_cast<uint32_t>(ns % kHalf);
        uint32_t u = static_cast<uint32_t>(ns / kHalf);
        uint32_t even = (u << 6) | (2 * j);
        uint32_t odd = even | 1;
        expA0_[ns] = mask(even, convG0);
        expB0_[ns] = mask(even, convG1);
        expA1_[ns] = mask(odd, convG0);
        expB1_[ns] = mask(odd, convG1);
    }
    reset();
}

void
ViterbiDecoder::reset()
{
    std::fill(std::begin(metric_), std::end(metric_), kInfMetric);
    metric_[0] = 0;  // the encoder starts zeroed
    decisions_.clear();
}

void
ViterbiDecoder::inputPair(uint8_t a, uint8_t b, std::vector<uint8_t>& out)
{
    const BitCost ca(a), cb(b);

    // Add-compare-select, one butterfly per j.  The even predecessor is
    // taken first (capped at kInfMetric, so an unreachable one stays
    // unreachable); the odd one wins only on a strictly smaller cost,
    // and the decision bit records it (the dropped oldest bit).
    uint32_t minM = kInfMetric;
    auto acs = [&](int ns, uint32_t m0, uint32_t m1) {
        uint32_t p0 = std::min(m0 + ca.at(expA0_[ns]) + cb.at(expB0_[ns]),
                               kInfMetric);
        uint32_t p1 = m1 + ca.at(expA1_[ns]) + cb.at(expB1_[ns]);
        bool odd = p1 < p0;
        uint32_t v = odd ? p1 : p0;
        next_[ns] = v;
        decided_[ns] = odd;
        minM = std::min(minM, v);
    };
    for (int j = 0; j < kHalf; ++j) {
        const uint32_t m0 = metric_[2 * j];
        const uint32_t m1 = metric_[2 * j + 1];
        acs(j, m0, m1);
        acs(j + kHalf, m0, m1);
    }

    uint64_t word = 0;
    for (int g = 0; g < convStates / 8; ++g)
        word |= packFlags8(decided_ + 8 * g) << (8 * g);
    decisions_.push_back(word);

    // Normalize metrics occasionally so they never overflow.
    const uint32_t sub = minM > (1u << 20) ? minM : 0;
    for (int s = 0; s < convStates; ++s)
        metric_[s] = next_[s] - sub;

    if (static_cast<int>(decisions_.size()) >= tb_ + block_)
        traceback(block_, out);
}

void
ViterbiDecoder::traceback(int emit_count, std::vector<uint8_t>& out)
{
    // Start from the best current state and walk the whole history.
    int best = 0;
    for (int s = 1; s < convStates; ++s) {
        if (metric_[s] < metric_[best])
            best = s;
    }
    const int steps = static_cast<int>(decisions_.size());
    emit_count = std::min(emit_count, steps);
    int state = best;
    auto stepBack = [&](int t) {
        int dropped = static_cast<int>((decisions_[t] >> state) & 1);
        state = ((state << 1) & 0x3f) | dropped;
    };
    for (int t = steps - 1; t >= emit_count; --t)
        stepBack(t);
    // Release the oldest emit_count bits (the input at time t).
    const size_t base = out.size();
    out.resize(base + static_cast<size_t>(emit_count));
    for (int t = emit_count - 1; t >= 0; --t) {
        out[base + static_cast<size_t>(t)] =
            static_cast<uint8_t>(state >> 5);
        stepBack(t);
    }
    decisions_.erase(decisions_.begin(), decisions_.begin() + emit_count);
}

void
ViterbiDecoder::flush(std::vector<uint8_t>& out)
{
    if (!decisions_.empty())
        traceback(static_cast<int>(decisions_.size()), out);
}

void
ViterbiDecoder::snapshot(StateWriter& w) const
{
    w.bytes(metric_, sizeof(metric_));
    w.blob(decisions_.data(), decisions_.size() * sizeof(uint64_t));
}

void
ViterbiDecoder::restore(StateReader& r)
{
    r.bytes(metric_, sizeof(metric_));
    for (uint32_t m : metric_) {
        // A metric is either reachable (< kInfMetric) or kInfMetric; the
        // ACS pass adds branch costs to it without an overflow check.
        if (m > kInfMetric)
            throw StateFormatError("viterbi path metric out of range");
    }
    std::vector<uint8_t> raw = r.blob();
    if (raw.size() % sizeof(uint64_t) != 0)
        throw StateFormatError("viterbi decision memory misaligned");
    decisions_.resize(raw.size() / sizeof(uint64_t));
    if (!raw.empty())
        std::memcpy(decisions_.data(), raw.data(), raw.size());
}

} // namespace dsp
} // namespace ziria
