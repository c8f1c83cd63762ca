#include "dsp/fft.h"

#include <cmath>

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

void
Fft::forward(const Complex16* in, Complex16* out) const
{
    run<false, true>(in, out);
}

void
Fft::inverse(const Complex16* in, Complex16* out) const
{
    run<true, false>(in, out);
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
