#include "dsp/viterbi.h"

#include <emmintrin.h>

#include <algorithm>
#include <cstring>

#include "support/panic.h"

namespace ziria {
namespace dsp {

namespace {

constexpr uint32_t kInfMetric = 1u << 29;  ///< unreachable, absolute
constexpr uint32_t kNormAbove = 1u << 20;  ///< normalization threshold
constexpr int16_t kCap16 = 0x7fff;         ///< unreachable, 16-bit
constexpr int kMaxStepCost = 2;            ///< two coded bits per step
/**
 * Largest reachable 16-bit metric after a settle() plus the growth of
 * its slack: the check step that follows still adds a branch cost and
 * must stay below kCap16.
 */
constexpr int kTop16 = kCap16 - 1 - kMaxStepCost;
/** Widest reachable-metric spread a restored state may carry. */
constexpr uint32_t kMaxSpread = 1u << 14;
/**
 * Steps an unreachable state can survive after a reset or restore:
 * after convK - 1 steps every state is reachable from any other.
 */
constexpr int kFillSteps = convK - 2;

/** Cost of received lattice value @p r when @p expected is sent: 1 on
 *  a mismatch, 0 on a match or an erasure (2). */
constexpr int
bitCost(uint8_t r, uint8_t expected)
{
    return r != 2 && r != expected;
}

constexpr uint8_t
parity(uint32_t x)
{
    uint8_t p = 0;
    for (; x != 0; x &= x - 1)
        p ^= 1;
    return p;
}

/** Lattice value class: 0, 1, erasure, or any other byte (which
 *  costs 1 against either expected bit). */
inline int
latticeClass(uint8_t r)
{
    return r < 3 ? r : 3;
}

/**
 * Branch costs of one step, indexed by the classes of its two lattice
 * values (4 * class(a) + class(b)).  c[k][q] holds, for j = 8q..8q+7,
 * the cost of the even predecessor 2j on input 0.  Both generators tap
 * bits 0 and 6 of the encoder window u<<6 | predecessor, so the odd
 * predecessor and input 1 each expect the complement of both bits and
 * cost cbar = S - c, where S sums the costs of both values of both bits.
 */
struct BranchCosts
{
    alignas(16) int16_t c[16][4][8];
    alignas(16) int16_t cbar[16][4][8];

    constexpr BranchCosts() : c(), cbar()
    {
        for (int k = 0; k < 16; ++k) {
            const auto a = static_cast<uint8_t>(k / 4);
            const auto b = static_cast<uint8_t>(k % 4);
            const int sum = bitCost(a, 0) + bitCost(a, 1) + bitCost(b, 0) +
                            bitCost(b, 1);
            for (uint32_t j = 0; j < convStates / 2; ++j) {
                const int cost = bitCost(a, parity((2 * j) & convG0)) +
                                 bitCost(b, parity((2 * j) & convG1));
                c[k][j / 8][j % 8] = static_cast<int16_t>(cost);
                cbar[k][j / 8][j % 8] = static_cast<int16_t>(sum - cost);
            }
        }
    }
};

constexpr BranchCosts kCosts;

/** Fold the eight lanes of @p v with @p op (a lane-wise min or max). */
template <class Op>
inline int
fold16(__m128i v, Op op)
{
    v = op(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = op(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
    v = op(v, _mm_shufflelo_epi16(v, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<int16_t>(_mm_cvtsi128_si32(v));
}

} // namespace

ViterbiDecoder::ViterbiDecoder(int traceback, int block)
    : tb_(traceback), block_(block)
{
    ZIRIA_ASSERT(traceback > 0 && block > 0);
    size_t cap = 1;
    while (cap < static_cast<size_t>(tb_ + block_))
        cap <<= 1;
    ring_.resize(cap);
    ringMask_ = cap - 1;
    reset();
}

void
ViterbiDecoder::reset()
{
    std::fill(std::begin(metric16_), std::end(metric16_), kCap16);
    metric16_[0] = 0;  // the encoder starts zeroed
    base_ = 0;
    head_ = 0;
    count_ = 0;
    setSlack(0);
}

void
ViterbiDecoder::inputPair(uint8_t a, uint8_t b, std::vector<uint8_t>& out)
{
    const int k = latticeClass(a) * 4 + latticeClass(b);
    const auto* cost = reinterpret_cast<const __m128i*>(kCosts.c[k]);
    const auto* costBar = reinterpret_cast<const __m128i*>(kCosts.cbar[k]);

    __m128i m[8];
    for (int v = 0; v < 8; ++v)
        m[v] = _mm_load_si128(
            reinterpret_cast<const __m128i*>(metric16_ + 8 * v));

    // Add-compare-select, eight butterflies per vector.  States
    // 16q..16q+15 hold the predecessors of j = 8q..8q+7; a mask or a
    // shift and a pack split them into even (2j) and odd (2j+1) (every
    // metric is a non-negative int16, so the saturating pack is exact).
    // The saturating adds keep an unreachable predecessor at kCap16,
    // and the odd one wins only on a strictly smaller cost; its decision
    // bit is the dropped oldest bit.
    const __m128i low16 = _mm_set1_epi32(0xffff);
    __m128i oddWins[8];  // states 8v..8v+7
    for (int q = 0; q < 4; ++q) {
        const __m128i lo = m[2 * q], hi = m[2 * q + 1];
        const __m128i even = _mm_packs_epi32(_mm_and_si128(lo, low16),
                                             _mm_and_si128(hi, low16));
        const __m128i odd =
            _mm_packs_epi32(_mm_srli_epi32(lo, 16), _mm_srli_epi32(hi, 16));
        const __m128i c = _mm_load_si128(cost + q);
        const __m128i cbar = _mm_load_si128(costBar + q);

        const __m128i p0u0 = _mm_adds_epi16(even, c);     // ns = j
        const __m128i p1u0 = _mm_adds_epi16(odd, cbar);
        const __m128i p0u1 = _mm_adds_epi16(even, cbar);  // ns = j + 32
        const __m128i p1u1 = _mm_adds_epi16(odd, c);
        oddWins[q] = _mm_cmplt_epi16(p1u0, p0u0);
        oddWins[q + 4] = _mm_cmplt_epi16(p1u1, p0u1);
        _mm_store_si128(reinterpret_cast<__m128i*>(metric16_ + 8 * q),
                        _mm_min_epi16(p0u0, p1u0));
        _mm_store_si128(
            reinterpret_cast<__m128i*>(metric16_ + 32 + 8 * q),
            _mm_min_epi16(p0u1, p1u1));
    }
    // One movemask per 16 states.
    uint64_t word = 0;
    for (int h = 0; h < 4; ++h) {
        const auto bits = static_cast<uint64_t>(_mm_movemask_epi8(
            _mm_packs_epi16(oddWins[2 * h], oddWins[2 * h + 1])));
        word |= bits << (16 * h);
    }
    decisionAt(count_++) = word;

    if (slack_-- == 0)
        settle();
    if (count_ >= tb_ + block_)
        traceback(block_, out);
}

void
ViterbiDecoder::settle()
{
    __m128i m[8];
    __m128i lo = _mm_set1_epi16(kCap16), hi = _mm_setzero_si128();
    for (int v = 0; v < 8; ++v) {
        m[v] = _mm_load_si128(
            reinterpret_cast<const __m128i*>(metric16_ + 8 * v));
        lo = _mm_min_epi16(lo, m[v]);
        hi = _mm_max_epi16(hi, m[v]);
    }
    const int min16 = fold16(
        lo, [](__m128i x, __m128i y) { return _mm_min_epi16(x, y); });
    const int max16 = fold16(
        hi, [](__m128i x, __m128i y) { return _mm_max_epi16(x, y); });
    // Every state is reachable by now: unreachable ones last at most
    // kFillSteps steps, and reset() and restore() leave at least that
    // much slack (restore() refuses a state where they would not).
    ZIRIA_ASSERT(max16 < kCap16, "viterbi settle with unreachable states");
    // The scalar pass subtracts the minimum from every metric once it
    // passes 2^20; below that the minimum just moves into the base.
    const uint32_t minAbs = base_ + static_cast<uint32_t>(min16);
    base_ = minAbs > kNormAbove ? 0 : minAbs;
    const __m128i sub = _mm_set1_epi16(static_cast<int16_t>(min16));
    for (int v = 0; v < 8; ++v) {
        _mm_store_si128(reinterpret_cast<__m128i*>(metric16_ + 8 * v),
                        _mm_sub_epi16(m[v], sub));
    }
    setSlack(max16 - min16);
}

void
ViterbiDecoder::setSlack(int max16)
{
    // The minimum starts at base_ and every metric grows by at most
    // kMaxStepCost per step.
    const long toNorm =
        (static_cast<long>(kNormAbove) - static_cast<long>(base_)) /
        kMaxStepCost;
    const long toCap = (kTop16 - max16) / kMaxStepCost;
    slack_ = static_cast<int>(std::max(0L, std::min(toNorm, toCap)));
}

void
ViterbiDecoder::traceback(int emit_count, std::vector<uint8_t>& out)
{
    // Start from the best current state and walk the whole history.
    int best = 0;
    for (int s = 1; s < convStates; ++s) {
        if (metric16_[s] < metric16_[best])
            best = s;
    }
    const int steps = count_;
    emit_count = std::min(emit_count, steps);
    int state = best;
    auto stepBack = [&](int t) {
        int dropped = static_cast<int>((decisionAt(t) >> state) & 1);
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
    head_ = (head_ + static_cast<size_t>(emit_count)) & ringMask_;
    count_ -= emit_count;
}

void
ViterbiDecoder::flush(std::vector<uint8_t>& out)
{
    if (count_ > 0)
        traceback(count_, out);
}

void
ViterbiDecoder::snapshot(StateWriter& w) const
{
    uint32_t metric[convStates];
    for (int s = 0; s < convStates; ++s) {
        metric[s] = metric16_[s] == kCap16
                        ? kInfMetric
                        : base_ + static_cast<uint32_t>(metric16_[s]);
    }
    w.bytes(metric, sizeof(metric));
    // The decision memory as one blob, oldest word first.
    const size_t n = static_cast<size_t>(count_);
    const size_t first = std::min(n, ring_.size() - head_);
    w.u64(n * sizeof(uint64_t));
    w.bytes(ring_.data() + head_, first * sizeof(uint64_t));
    w.bytes(ring_.data(), (n - first) * sizeof(uint64_t));
}

void
ViterbiDecoder::restore(StateReader& r)
{
    uint32_t metric[convStates];
    r.bytes(metric, sizeof(metric));
    uint32_t lo = kInfMetric, hi = 0;
    bool capped = false;
    for (uint32_t m : metric) {
        // A metric is either reachable (< kInfMetric) or kInfMetric.
        if (m > kInfMetric)
            throw StateFormatError("viterbi path metric out of range");
        if (m == kInfMetric) {
            capped = true;
        } else {
            lo = std::min(lo, m);
            hi = std::max(hi, m);
        }
    }
    // The 16-bit pass must continue this state exactly, or refuse it.
    if (lo == kInfMetric)
        throw StateFormatError("viterbi has no reachable state");
    if (hi - lo > kMaxSpread)
        throw StateFormatError("viterbi path metrics too far apart");
    if (hi >= kInfMetric - kMaxStepCost)
        throw StateFormatError("viterbi path metric too close to the cap");
    // Unreachable states must be gone before the first settle().
    if (capped && lo + kFillSteps * kMaxStepCost > kNormAbove)
        throw StateFormatError(
            "viterbi unreachable states would outlive a normalization");
    std::vector<uint8_t> raw = r.blob();
    if (raw.size() % sizeof(uint64_t) != 0)
        throw StateFormatError("viterbi decision memory misaligned");

    base_ = lo;
    for (int s = 0; s < convStates; ++s) {
        metric16_[s] = metric[s] == kInfMetric
                           ? kCap16
                           : static_cast<int16_t>(metric[s] - lo);
    }
    setSlack(static_cast<int>(hi - lo));
    const size_t n = raw.size() / sizeof(uint64_t);
    // A longer memory than this decoder keeps still decodes the same
    // way; the ring grows to hold it plus the next step.
    size_t cap = ring_.size();
    while (cap < n + 1)
        cap <<= 1;
    ring_.assign(cap, 0);
    ringMask_ = cap - 1;
    head_ = 0;
    count_ = static_cast<int>(n);
    if (n > 0)
        std::memcpy(ring_.data(), raw.data(), raw.size());
}

} // namespace dsp
} // namespace ziria
