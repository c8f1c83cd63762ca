/**
 * @file
 * One runtime dispatch for the DSP kernels' instruction set.
 *
 * The build targets generic x86-64, so the SSE2 Viterbi pass and the
 * scalar FFT are always there; the AVX2 paths are compiled function by
 * function under `__attribute__((target("avx2")))` and run only where
 * `__builtin_cpu_supports` says the host has AVX2.  The check is made
 * once per process, at the first kernel call, which also sets the
 * registry gauge `dsp.isa.avx2` to 1 or 0 so `--profile` and a Stat
 * reply show which path produced a figure.  Every path computes
 * bit-identical output (tests/test_dsp.cpp holds each against the
 * scalar references), so decisions, spectra and snapshots never depend
 * on the host.
 */
#ifndef ZIRIA_DSP_ISA_H
#define ZIRIA_DSP_ISA_H

#include <atomic>
#include <cstdint>

namespace ziria {
namespace dsp {

/** A kernel path: the generic x86-64 one, or AVX2. */
enum class Isa : uint8_t
{
    Base,
    Avx2,
};

/** "base" or "avx2". */
const char* isaName(Isa isa);

/** Whether this host can run @p isa's kernels. */
bool isaSupported(Isa isa);

namespace detail {

/** The path in force, or kUnresolved before the first kernel call. */
inline constexpr uint8_t kUnresolved = 0xff;
extern std::atomic<uint8_t> activeIsa;

/** Pick the best supported path and publish it (first call only). */
Isa resolveIsa();

/**
 * Runs every DSP kernel in the process on @p isa while it lives, then
 * restores the previous path (tests and the per-path micro benchmarks;
 * @p isa must be supported).  Pins must not overlap across threads.
 */
class IsaPin
{
  public:
    explicit IsaPin(Isa isa);
    ~IsaPin();

    IsaPin(const IsaPin&) = delete;
    IsaPin& operator=(const IsaPin&) = delete;

  private:
    uint8_t prev_;
};

} // namespace detail

/** The path the kernels run: the best the host supports. */
inline Isa
activeIsa()
{
    const uint8_t v = detail::activeIsa.load(std::memory_order_relaxed);
    return v == detail::kUnresolved ? detail::resolveIsa()
                                    : static_cast<Isa>(v);
}

} // namespace dsp
} // namespace ziria

#endif // ZIRIA_DSP_ISA_H
