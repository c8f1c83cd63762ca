#include "dsp/viterbi.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "dsp/isa.h"
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
    alignas(32) int16_t c[16][4][8];
    alignas(32) int16_t cbar[16][4][8];

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

/**
 * Add-compare-select of one step over @p metric with the costs of
 * lattice class @p k, eight butterflies per 128-bit vector; returns the
 * step's decision word (bit s set when state s keeps its odd
 * predecessor).
 */
inline uint64_t
acsSse2(int16_t* metric, int k)
{
    const auto* cost = reinterpret_cast<const __m128i*>(kCosts.c[k]);
    const auto* costBar = reinterpret_cast<const __m128i*>(kCosts.cbar[k]);

    __m128i m[8];
#pragma GCC unroll 8
    for (int v = 0; v < 8; ++v)
        m[v] = _mm_load_si128(reinterpret_cast<const __m128i*>(metric + 8 * v));

    // States 16q..16q+15 hold the predecessors of j = 8q..8q+7; a mask
    // or a shift and a pack split them into even (2j) and odd (2j+1)
    // (every metric is a non-negative int16, so the saturating pack is
    // exact).  The saturating adds keep an unreachable predecessor at
    // kCap16, and the odd one wins only on a strictly smaller cost; its
    // decision bit is the dropped oldest bit.
    const __m128i low16 = _mm_set1_epi32(0xffff);
    __m128i oddWins[8];  // states 8v..8v+7
#pragma GCC unroll 8
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
        _mm_store_si128(reinterpret_cast<__m128i*>(metric + 8 * q),
                        _mm_min_epi16(p0u0, p1u0));
        _mm_store_si128(reinterpret_cast<__m128i*>(metric + 32 + 8 * q),
                        _mm_min_epi16(p0u1, p1u1));
    }
    // One movemask per 16 states.
    uint64_t word = 0;
#pragma GCC unroll 8
    for (int h = 0; h < 4; ++h) {
        const auto bits = static_cast<uint64_t>(_mm_movemask_epi8(
            _mm_packs_epi16(oddWins[2 * h], oddWins[2 * h + 1])));
        word |= bits << (16 * h);
    }
    return word;
}

/**
 * acsSse2 with sixteen butterflies per 256-bit vector.  The packs work
 * within 128-bit lanes, so the predecessors are loaded lane-swapped
 * (states 0-7 | 16-23 and 8-15 | 24-31 for j = 0..15) and the packed
 * even and odd metrics come out in natural j order: no cross-lane
 * shuffle lies between one step's metrics and the next.
 */
__attribute__((target("avx2"))) uint64_t
acsAvx2(int16_t* metric, int k)
{
    const auto* cost = reinterpret_cast<const __m256i*>(kCosts.c[k]);
    const auto* costBar = reinterpret_cast<const __m256i*>(kCosts.cbar[k]);
    auto half = [metric](int s) {
        return reinterpret_cast<const __m128i*>(metric + s);
    };

    __m256i lo[2], hi[2];  // the predecessors of j = 16q..16q+15
#pragma GCC unroll 8
    for (int q = 0; q < 2; ++q) {
        lo[q] = _mm256_loadu2_m128i(half(32 * q + 16), half(32 * q));
        hi[q] = _mm256_loadu2_m128i(half(32 * q + 24), half(32 * q + 8));
    }

    const __m256i low16 = _mm256_set1_epi32(0xffff);
    __m256i oddWins[4];  // states 16v..16v+15
    __m256i next[4];
#pragma GCC unroll 8
    for (int q = 0; q < 2; ++q) {
        const __m256i even =
            _mm256_packs_epi32(_mm256_and_si256(lo[q], low16),
                               _mm256_and_si256(hi[q], low16));
        const __m256i odd = _mm256_packs_epi32(_mm256_srli_epi32(lo[q], 16),
                                               _mm256_srli_epi32(hi[q], 16));
        const __m256i c = _mm256_load_si256(cost + q);
        const __m256i cbar = _mm256_load_si256(costBar + q);

        const __m256i p0u0 = _mm256_adds_epi16(even, c);     // ns = j
        const __m256i p1u0 = _mm256_adds_epi16(odd, cbar);
        const __m256i p0u1 = _mm256_adds_epi16(even, cbar);  // ns = j + 32
        const __m256i p1u1 = _mm256_adds_epi16(odd, c);
        oddWins[q] = _mm256_cmpgt_epi16(p0u0, p1u0);
        oddWins[q + 2] = _mm256_cmpgt_epi16(p0u1, p1u1);
        next[q] = _mm256_min_epi16(p0u0, p1u0);
        next[q + 2] = _mm256_min_epi16(p0u1, p1u1);
    }
#pragma GCC unroll 8
    for (int v = 0; v < 4; ++v)
        _mm256_store_si256(reinterpret_cast<__m256i*>(metric + 16 * v),
                           next[v]);
    // One movemask per 32 states, the pack's lane order undone first.
    uint64_t word = 0;
#pragma GCC unroll 8
    for (int h = 0; h < 2; ++h) {
        const __m256i packed = _mm256_permute4x64_epi64(
            _mm256_packs_epi16(oddWins[2 * h], oddWins[2 * h + 1]),
            _MM_SHUFFLE(3, 1, 2, 0));
        word |= static_cast<uint64_t>(static_cast<uint32_t>(
                    _mm256_movemask_epi8(packed)))
                << (32 * h);
    }
    return word;
}

/**
 * Walk @p steps decision words back from state @p best, the newest word at
 * ring index (head + steps - 1) & mask, and write the input bit of each
 * of the oldest @p emit steps to @p bits.  Step t moves to the
 * predecessor state << 1 | dropped, with the dropped bit read from word
 * t at the current state.  The state's bits above the low six are left
 * to shift out: a 64-bit shift only reads its count's low six bits.
 */
void
walkBack(const uint64_t* ring, size_t mask, size_t head, int steps, int emit,
         int best, uint8_t* bits)
{
    uint32_t state = static_cast<uint32_t>(best);
    auto word = [&](int t) {
        return ring[(head + static_cast<size_t>(t)) & mask];
    };
    auto stepBack = [&](int t) {
        state = (state << 1) | ((word(t) >> (state & 63)) & 1);
    };
    // Two steps at once: step t - 1 reads bit s1 or s1 | 1 of its word,
    // with s1 = state << 1 known before step t resolves, so both
    // candidates load in parallel and step t's bit only selects one.
    auto stepBack2 = [&](int t) {
        const uint64_t pair = word(t - 1) >> ((state << 1) & 63);
        const auto dropped =
            static_cast<uint32_t>((word(t) >> (state & 63)) & 1);
        state = (state << 2) | (dropped << 1) |
                static_cast<uint32_t>((pair >> dropped) & 1);
    };
    int t = steps - 1;
    if ((steps - emit) % 2 != 0)
        stepBack(t--);
    for (; t >= emit; t -= 2)
        stepBack2(t);
    // The input at time t is the newest bit, bit 5, of the state after
    // step t.
    if (emit % 2 != 0) {
        bits[t] = static_cast<uint8_t>((state >> 5) & 1);
        stepBack(t--);
    }
    for (; t >= 0; t -= 2) {
        bits[t] = static_cast<uint8_t>((state >> 5) & 1);
        bits[t - 1] = static_cast<uint8_t>((state >> 4) & 1);
        stepBack2(t);
    }
}

/**
 * Lowest-numbered state with the smallest metric: a vector minimum,
 * then one compare and movemask per 16 states.
 */
inline int
bestState(const int16_t* metric)
{
    __m128i m[8];
    __m128i lo = _mm_set1_epi16(kCap16);
    for (int v = 0; v < 8; ++v) {
        m[v] = _mm_load_si128(reinterpret_cast<const __m128i*>(metric + 8 * v));
        lo = _mm_min_epi16(lo, m[v]);
    }
    const __m128i min = _mm_set1_epi16(static_cast<int16_t>(fold16(
        lo, [](__m128i x, __m128i y) { return _mm_min_epi16(x, y); })));
    uint64_t atMin = 0;
    for (int h = 0; h < 4; ++h) {
        const auto bits = static_cast<uint64_t>(_mm_movemask_epi8(
            _mm_packs_epi16(_mm_cmpeq_epi16(m[2 * h], min),
                            _mm_cmpeq_epi16(m[2 * h + 1], min))));
        atMin |= bits << (16 * h);
    }
    return __builtin_ctzll(atMin);
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
    decisionAt(count_++) = activeIsa() == Isa::Avx2 ? acsAvx2(metric16_, k)
                                                    : acsSse2(metric16_, k);
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
    const int steps = count_;
    emit_count = std::min(emit_count, steps);
    const size_t base = out.size();
    out.resize(base + static_cast<size_t>(emit_count));
    walkBack(ring_.data(), ringMask_, head_, steps, emit_count,
             bestState(metric16_), out.data() + base);
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
