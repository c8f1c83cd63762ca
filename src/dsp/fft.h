/**
 * @file
 * Fixed-point radix-2 FFT/IFFT on 16-bit I/Q samples.
 *
 * This is part of the "basic signal processing library" the paper ships
 * with Ziria (its FFT/IFFT/Viterbi kernels are native blocks borrowed from
 * Sora; ours are written from scratch).  Twiddles are Q15; butterflies
 * accumulate in 32 bits.
 *
 * The plan is immutable after construction, so one instance may be
 * shared across threads; each transform works in a stack buffer.
 *
 * From n = 8 up, hosts with AVX2 (dsp/isa.h) run each stage four
 * butterflies per 256-bit vector with the scalar butterfly's exact
 * arithmetic, so both paths give bit-identical spectra at every size.
 *
 * Scaling convention: `forward` divides by N (one >>1 per stage), so a
 * WiFi receiver recovers constellation points at their transmitted
 * amplitude; `inverse` applies no scaling, so inverse(forward(x)) == x up
 * to rounding and a transmitter feeds constellation points scaled such
 * that the time-domain sum stays within int16.
 */
#ifndef ZIRIA_DSP_FFT_H
#define ZIRIA_DSP_FFT_H

#include <vector>

#include "ztype/value.h"

namespace ziria {
namespace dsp {

/** Precomputed plan for a power-of-two FFT. */
class Fft
{
  public:
    explicit Fft(int n);

    int size() const { return n_; }

    /** DFT scaled by 1/N.  @p in and @p out must not alias. */
    void forward(const Complex16* in, Complex16* out) const;

    /** Unscaled inverse DFT.  @p in and @p out must not alias. */
    void inverse(const Complex16* in, Complex16* out) const;

    /** Largest supported size (run() works in a stack buffer). */
    static constexpr int kMaxSize = 4096;

  private:
    /** Run the active path of dsp/isa.h: AVX2 from n = 8, else run(). */
    template <bool Inverse, bool Scale>
    void dispatch(const Complex16* in, Complex16* out) const;
    /** The scalar transform, fallback and reference of every path. */
    template <bool Inverse, bool Scale>
    void run(const Complex16* in, Complex16* out) const;

    int n_;
    int log2n_;
    /**
     * Twiddles e^{-2pi i k/N} in Q15, one contiguous row per stage: the
     * stage with `half` butterflies per group reads its row at offset
     * half - 1 (n - 1 entries in all).
     */
    std::vector<Complex16> twiddle_;
    std::vector<int> bitrev_;
};

/** Reference double-precision DFT (for tests). */
void dftReference(const std::vector<std::complex<double>>& in,
                  std::vector<std::complex<double>>& out, bool inverse);

} // namespace dsp
} // namespace ziria

#endif // ZIRIA_DSP_FFT_H
