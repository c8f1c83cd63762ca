/**
 * @file
 * Internal: translate one lowered fused region into a C++ source unit.
 *
 * Not installed API — only native.cc (the build driver) and the
 * tests include this.  docs/CODEGEN.md describes the emission strategy.
 */
#ifndef ZIRIA_ZCGEN_EMIT_H
#define ZIRIA_ZCGEN_EMIT_H

#include <string>

#include "zexpr/frame.h"
#include "zfuse/bytecode.h"

namespace ziria {
namespace zcgen {

/** The one function a unit exports, and its fixed name. */
constexpr const char* kRegionSymbol = "zr_region_0";

/** One emitted translation unit: the runtime plus one region. */
struct EmitUnit
{
    std::string source;   ///< self-contained C++ (no repo includes)
    int hostBridges = 0;  ///< closures and lookups left on host callbacks
};

/**
 * Emit C++ for @p prog as kRegionSymbol.  Closure
 * ASTs the emitter cannot express, and lookup tables of the generic
 * shape, compile to host-callback bridges instead (semantics preserved,
 * counted in hostBridges).  Only reads
 * @p layout, the one the region was lowered against: the frame stays
 * exactly as the fused interpreter lays it out (re-inlined call
 * parameters become C++ locals).
 */
EmitUnit emitUnit(const zfuse::FuseProgram& prog, const FrameLayout& layout);

/** The text of zcgen/runtime.h, as every unit embeds it. */
const char* runtimeSource();

/**
 * The unit's `zr_abi` symbol (kZrAbiVersion, which the loader checks)
 * and a static_assert that the unit's compiler lays ZrCtx out as the
 * host did.
 */
std::string abiStamp();

} // namespace zcgen
} // namespace ziria

#endif // ZIRIA_ZCGEN_EMIT_H
