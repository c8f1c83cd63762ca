/**
 * @file
 * The combinator-shape catalog shared by the reset-totality and
 * snapshot round-trip suites: one deliberately stateful program per
 * combinator family, so a reset()/restore() that misses a child (or a
 * serializer that skips a field) produces observably different output.
 */
#ifndef ZIRIA_TESTS_SUPPORT_SHAPES_H
#define ZIRIA_TESTS_SUPPORT_SHAPES_H

#include <cstdint>
#include <functional>
#include <vector>

#include "zast/builder.h"

namespace ziria {
namespace testsupport {

/** repeat { x <- take; emit (x + delta) } */
CompPtr incBlock(int32_t delta);

/**
 * Stateful int32 -> int32 native transformer: keeps a running sum and
 * emits 0, 1 or 2 elements per input (input n: n % 3 of them), so its
 * output ring can hold a buffered element between two yields.
 */
CompPtr burstBlock();

/**
 * Native int32 -> int32 computer: passes @p count inputs through
 * (doubled), then halts with their sum as its int32 control value.
 * @p count is evaluated when the block starts.
 */
CompPtr sumNBlock(ExprPtr count);

struct Shape
{
    const char* name;
    std::function<CompPtr()> make;
};

/** One shape per combinator family (14 entries; see shapes.cc). */
const std::vector<Shape>& resetShapes();

} // namespace testsupport
} // namespace ziria

#endif // ZIRIA_TESTS_SUPPORT_SHAPES_H
