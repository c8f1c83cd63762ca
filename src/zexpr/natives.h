/**
 * @file
 * The built-in native expression functions available to Ziria programs.
 *
 * These cover the math primitives (sin, cos, sqrt, exp, log, atan2 —
 * used by the paper's overhead micro-benchmarks) and the fixed-point
 * complex helpers a PHY implementation needs (scaled complex multiply,
 * conjugate multiply, magnitudes, saturation), mirroring the SIMD
 * intrinsics wrappers of the paper's "basic signal processing library".
 *
 * Each body is `zr_nat_<name>` in zcgen/runtime.h, the runtime the VM
 * and generated code share: the VM calls it through the FunDef, the
 * native backend emits a direct call to the same definition.  This
 * table is the one list of built-ins — the parser resolves names
 * through lookup(), and the emitter inlines exactly the calls lookup()
 * knows.
 */
#ifndef ZIRIA_ZEXPR_NATIVES_H
#define ZIRIA_ZEXPR_NATIVES_H

#include <string>
#include <vector>

#include "zast/expr.h"

namespace ziria {
namespace natives {

/** Every built-in, in table order (the same FunRefs on every call). */
const std::vector<FunRef>& builtins();

/** The built-in named @p name (surface name, e.g. "cmul16"); null if
 *  there is none. */
FunRef lookup(const std::string& name);

} // namespace natives
} // namespace ziria

#endif // ZIRIA_ZEXPR_NATIVES_H
