/**
 * @file
 * Helpers for suites that loop over the three execution backends.
 *
 * Native cells compile through the shared-object cache, so a suite
 * that runs them registers PrivateCgenCache: every compile in the
 * binary then lands in one fresh temp directory (via
 * $ZIRIA_CGEN_CACHE) instead of the user's ~/.cache/ziria/zcgen.
 * Without a working C++ compiler a native build silently runs the
 * bytecode interpreter; suites that mean to exercise machine code skip
 * those cells (nativeUnavailable).
 */
#ifndef ZIRIA_TESTS_SUPPORT_BACKENDS_H
#define ZIRIA_TESTS_SUPPORT_BACKENDS_H

#include <cstdlib>

#include <gtest/gtest.h>

#include "zcgen/cgen.h"
#include "zir/compiler.h"

namespace ziria {
namespace testsupport {

constexpr Backend kAllBackends[] = {Backend::Vm, Backend::Fused,
                                    Backend::Native};

inline const char*
backendName(Backend b)
{
    switch (b) {
      case Backend::Vm:
        return "vm";
      case Backend::Fused:
        return "fused";
      case Backend::Native:
        return "native";
    }
    return "?";
}

/** True for a native cell on a host with no C++ compiler. */
inline bool
nativeUnavailable(Backend b)
{
    return b == Backend::Native && !zcgen::compilerAvailable();
}

/** Route the binary's native compiles into a private temp cache. */
class PrivateCgenCache : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/ziria-cgen-test-XXXXXX";
        char* dir = mkdtemp(tmpl);
        ASSERT_NE(dir, nullptr) << "mkdtemp failed";
        setenv("ZIRIA_CGEN_CACHE", dir, 1);
    }
};

} // namespace testsupport
} // namespace ziria

#endif // ZIRIA_TESTS_SUPPORT_BACKENDS_H
