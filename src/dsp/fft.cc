#include "dsp/fft.h"

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "dsp/isa.h"

#include "support/bits.h"
#include "support/panic.h"

namespace ziria {
namespace dsp {

Fft::Fft(int n) : n_(n)
{
    ZIRIA_ASSERT(n >= 2 && (n & (n - 1)) == 0, "FFT size must be 2^k");
    ZIRIA_ASSERT(n <= kMaxSize, "FFT size above kMaxSize");
    log2n_ = 0;
    while ((1 << log2n_) < n)
        ++log2n_;

    twiddle_.reserve(n - 1);
    for (int half = 1; half < n; half <<= 1) {
        const int tstep = n / (2 * half);
        for (int j = 0; j < half; ++j) {
            double ang = -2.0 * M_PI * (j * tstep) / n;
            twiddle_.push_back(
                {static_cast<int16_t>(std::lround(std::cos(ang) * 32767.0)),
                 static_cast<int16_t>(std::lround(std::sin(ang) * 32767.0))});
        }
    }
    bitrev_.resize(n);
    for (int i = 0; i < n; ++i)
        bitrev_[i] = static_cast<int>(
            reverseBits(static_cast<uint32_t>(i), log2n_));
}

template <bool Inverse, bool Scale>
void
Fft::run(const Complex16* in, Complex16* out) const
{
    // Work in 32-bit to keep butterfly headroom; narrow at the end.
    // A plain struct, so only the n_ entries written below are touched
    // (Complex32 would zero all kMaxSize of them).
    struct Acc
    {
        int32_t re, im;
    };
    Acc buf[kMaxSize];
    for (int i = 0; i < n_; ++i) {
        buf[bitrev_[i]].re = in[i].re;
        buf[bitrev_[i]].im = in[i].im;
    }

    for (int half = 1; half < n_; half <<= 1) {
        const Complex16* row = twiddle_.data() + (half - 1);
        for (int k = 0; k < n_; k += 2 * half) {
            for (int j = 0; j < half; ++j) {
                const int32_t wre = row[j].re;
                const int32_t wim = Inverse ? -row[j].im : row[j].im;
                Acc& a = buf[k + j];
                Acc& b = buf[k + j + half];
                // t = w * b, Q15 product renormalized with rounding.
                int64_t tre = (static_cast<int64_t>(wre) * b.re -
                               static_cast<int64_t>(wim) * b.im +
                               (1 << 14)) >> 15;
                int64_t tim = (static_cast<int64_t>(wre) * b.im +
                               static_cast<int64_t>(wim) * b.re +
                               (1 << 14)) >> 15;
                int64_t are = a.re;
                int64_t aim = a.im;
                int64_t xre = are + tre;
                int64_t xim = aim + tim;
                int64_t yre = are - tre;
                int64_t yim = aim - tim;
                if (Scale) {
                    // Round-to-nearest halving keeps the 1/N scaling
                    // unbiased across stages.
                    xre = (xre + 1) >> 1;
                    xim = (xim + 1) >> 1;
                    yre = (yre + 1) >> 1;
                    yim = (yim + 1) >> 1;
                }
                a.re = static_cast<int32_t>(xre);
                a.im = static_cast<int32_t>(xim);
                b.re = static_cast<int32_t>(yre);
                b.im = static_cast<int32_t>(yim);
            }
        }
    }

    auto sat = [](int32_t v) -> int16_t {
        if (v > 32767)
            return 32767;
        if (v < -32768)
            return -32768;
        return static_cast<int16_t>(v);
    };
    for (int i = 0; i < n_; ++i) {
        out[i].re = sat(buf[i].re);
        out[i].im = sat(buf[i].im);
    }
}

namespace {

/**
 * Four radix-2 butterflies on interleaved 32-bit (re, im) pairs, the
 * arithmetic of Fft::run lane for lane: the Q15 products are exact in
 * 64 bits (_mm256_mul_epi32 reads each pair's even lane), rounded with
 * +2^14 and shifted by 15.  A logical shift keeps the same low 32 bits
 * an arithmetic one would, and those are all the scalar code keeps.
 * @p wre and @p wim hold each butterfly's twiddle in the even lanes.
 */
template <bool Scale>
__attribute__((target("avx2"))) inline void
butterflies(__m256i& a, __m256i& b, __m256i wre, __m256i wim)
{
    const __m256i round = _mm256_set1_epi64x(1 << 14);
    const __m256i bIm = _mm256_srli_epi64(b, 32);
    const __m256i re = _mm256_add_epi64(
        _mm256_sub_epi64(_mm256_mul_epi32(b, wre),
                         _mm256_mul_epi32(bIm, wim)),
        round);
    const __m256i im = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_mul_epi32(bIm, wre),
                         _mm256_mul_epi32(b, wim)),
        round);
    // t = (re >> 15, im >> 15) back in the (re, im) lanes.
    const __m256i t = _mm256_blend_epi32(_mm256_srli_epi64(re, 15),
                                         _mm256_slli_epi64(im, 17), 0xaa);
    __m256i x = _mm256_add_epi32(a, t);
    __m256i y = _mm256_sub_epi32(a, t);
    if (Scale) {
        // The forward transform's values stay far inside int32, so the
        // 32-bit round-to-nearest halving equals the scalar 64-bit one.
        const __m256i one = _mm256_set1_epi32(1);
        x = _mm256_srai_epi32(_mm256_add_epi32(x, one), 1);
        y = _mm256_srai_epi32(_mm256_add_epi32(y, one), 1);
    }
    a = x;
    b = y;
}

/** Twiddles @p w[0..3] widened to (re, im) int32 pairs; the imaginary
 *  parts negated for the inverse transform. */
template <bool Inverse>
__attribute__((target("avx2"))) inline void
splitTwiddles(__m256i w, __m256i& wre, __m256i& wim)
{
    wre = w;
    wim = _mm256_srli_epi64(w, 32);
    if (Inverse)
        wim = _mm256_sub_epi32(_mm256_setzero_si256(), wim);
}

/** Twiddles @p w[0..count-1] (count 1 or 2) as (re, im) int32 pairs. */
__attribute__((target("avx2"))) inline __m128i
widenTwiddles(const Complex16* w, int count)
{
    int64_t bits = 0;
    std::memcpy(&bits, w, 4 * static_cast<size_t>(count));
    return _mm_cvtepi16_epi32(_mm_cvtsi64_si128(bits));
}

/**
 * Fft::run for n >= 8 under AVX2, bit-exact with it.  Stages with four
 * or more butterflies per group take four contiguous ones per vector;
 * the first two stages regroup two loaded vectors so that each holds
 * four butterflies' a or b halves.
 */
template <bool Inverse, bool Scale>
__attribute__((target("avx2"))) void
runAvx2(int n, const Complex16* twiddle, const int* bitrev,
        const Complex16* in, Complex16* out)
{
    alignas(32) int32_t buf[2 * Fft::kMaxSize];
    auto at = [&buf](int i) {
        return reinterpret_cast<__m256i*>(buf + 2 * i);
    };
    // Bit-reversed load (the permutation is its own inverse), widened.
    for (int i = 0; i < n; i += 8) {
        const __m256i g = _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(in),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bitrev + i)),
            4);
        _mm256_store_si256(at(i),
                           _mm256_cvtepi16_epi32(_mm256_castsi256_si128(g)));
        _mm256_store_si256(at(i + 4),
                           _mm256_cvtepi16_epi32(
                               _mm256_extracti128_si256(g, 1)));
    }
    __m256i wre, wim;

    // half = 1: butterflies (i, i + 1), one twiddle.
    splitTwiddles<Inverse>(
        _mm256_broadcastq_epi64(widenTwiddles(twiddle, 1)), wre, wim);
    for (int i = 0; i < n; i += 8) {
        const __m256i v0 = _mm256_load_si256(at(i));
        const __m256i v1 = _mm256_load_si256(at(i + 4));
        __m256i a = _mm256_unpacklo_epi64(v0, v1);  // i, i+4, i+2, i+6
        __m256i b = _mm256_unpackhi_epi64(v0, v1);  // i+1, i+5, i+3, i+7
        butterflies<Scale>(a, b, wre, wim);
        _mm256_store_si256(at(i), _mm256_unpacklo_epi64(a, b));
        _mm256_store_si256(at(i + 4), _mm256_unpackhi_epi64(a, b));
    }

    // half = 2: butterflies (i, i + 2) and (i + 1, i + 3).
    splitTwiddles<Inverse>(
        _mm256_broadcastsi128_si256(widenTwiddles(twiddle + 1, 2)), wre, wim);
    for (int i = 0; i < n; i += 8) {
        const __m256i v0 = _mm256_load_si256(at(i));
        const __m256i v1 = _mm256_load_si256(at(i + 4));
        __m256i a = _mm256_permute2x128_si256(v0, v1, 0x20);  // i..i+1, i+4..
        __m256i b = _mm256_permute2x128_si256(v0, v1, 0x31);  // i+2.., i+6..
        butterflies<Scale>(a, b, wre, wim);
        _mm256_store_si256(at(i), _mm256_permute2x128_si256(a, b, 0x20));
        _mm256_store_si256(at(i + 4), _mm256_permute2x128_si256(a, b, 0x31));
    }

    for (int half = 4; half < n; half <<= 1) {
        const Complex16* row = twiddle + (half - 1);
        for (int j = 0; j < half; j += 4) {
            splitTwiddles<Inverse>(
                _mm256_cvtepi16_epi32(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(row + j))),
                wre, wim);
            for (int k = j; k < n; k += 2 * half) {
                __m256i a = _mm256_load_si256(at(k));
                __m256i b = _mm256_load_si256(at(k + half));
                butterflies<Scale>(a, b, wre, wim);
                _mm256_store_si256(at(k), a);
                _mm256_store_si256(at(k + half), b);
            }
        }
    }

    // Saturate to int16; the pack interleaves lanes, the permute undoes it.
    for (int i = 0; i < n; i += 8) {
        const __m256i packed = _mm256_packs_epi32(_mm256_load_si256(at(i)),
                                                  _mm256_load_si256(at(i + 4)));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(out + i),
            _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 1, 2, 0)));
    }
}

} // namespace

template <bool Inverse, bool Scale>
void
Fft::dispatch(const Complex16* in, Complex16* out) const
{
    if (n_ >= 8 && activeIsa() == Isa::Avx2)
        runAvx2<Inverse, Scale>(n_, twiddle_.data(), bitrev_.data(), in, out);
    else
        run<Inverse, Scale>(in, out);
}

void
Fft::forward(const Complex16* in, Complex16* out) const
{
    dispatch<false, true>(in, out);
}

void
Fft::inverse(const Complex16* in, Complex16* out) const
{
    dispatch<true, false>(in, out);
}

void
dftReference(const std::vector<std::complex<double>>& in,
             std::vector<std::complex<double>>& out, bool inverse)
{
    const size_t n = in.size();
    out.assign(n, {0.0, 0.0});
    const double sign = inverse ? 2.0 : -2.0;
    for (size_t k = 0; k < n; ++k) {
        for (size_t t = 0; t < n; ++t) {
            double ang = sign * M_PI * static_cast<double>(k * t) /
                         static_cast<double>(n);
            out[k] += in[t] * std::complex<double>(std::cos(ang),
                                                   std::sin(ang));
        }
        if (!inverse)
            out[k] /= static_cast<double>(n);
    }
}

} // namespace dsp
} // namespace ziria
