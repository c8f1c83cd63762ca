/**
 * @file
 * Run a test once per DSP kernel path (dsp/isa.h).
 *
 * `OnEachIsa<P>` is a parameterized fixture over (P, dsp::Isa): SetUp
 * pins every DSP kernel in the process to the test's path, or skips the
 * test with the reason where the host lacks it, and TearDown restores
 * the path the host would pick.  Instantiate with `eachIsa(values)`;
 * tests read their own parameter with `param()`.
 */
#ifndef ZIRIA_TESTS_SUPPORT_ISA_PATHS_H
#define ZIRIA_TESTS_SUPPORT_ISA_PATHS_H

#include <optional>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "dsp/isa.h"

namespace ziria {

/** Every kernel path, supported here or not (unsupported ones skip). */
inline auto
allIsas()
{
    return ::testing::Values(dsp::Isa::Base, dsp::Isa::Avx2);
}

/**
 * Pin the kernels to @p isa for the current test into @p pin, or mark
 * the test skipped (with the reason) where the host lacks it.
 */
inline void
pinOrSkip(dsp::Isa isa, std::optional<dsp::detail::IsaPin>& pin)
{
    if (!dsp::isaSupported(isa))
        GTEST_SKIP() << "host has no " << dsp::isaName(isa)
                     << " kernel path";
    pin.emplace(isa);
}

/** A fixture over the kernel path alone. */
class IsaPinned : public ::testing::TestWithParam<dsp::Isa>
{
  protected:
    void SetUp() override { pinOrSkip(GetParam(), pin_); }
    void TearDown() override { pin_.reset(); }

  private:
    std::optional<dsp::detail::IsaPin> pin_;
};

/** A fixture over (P, kernel path). */
template <class P>
class OnEachIsa
    : public ::testing::TestWithParam<std::tuple<P, dsp::Isa>>
{
  protected:
    void
    SetUp() override
    {
        pinOrSkip(std::get<1>(this->GetParam()), pin_);
    }
    void TearDown() override { pin_.reset(); }

    P param() const { return std::get<0>(this->GetParam()); }

  private:
    std::optional<dsp::detail::IsaPin> pin_;
};

/** Combine a suite's own values with every kernel path. */
template <class Gen>
auto
eachIsa(Gen values)
{
    return ::testing::Combine(values, allIsas());
}

/** Test name suffix: the kernel path ("base", "avx2"). */
inline std::string
isaTestName(const ::testing::TestParamInfo<dsp::Isa>& info)
{
    return dsp::isaName(info.param);
}

} // namespace ziria

#endif // ZIRIA_TESTS_SUPPORT_ISA_PATHS_H
