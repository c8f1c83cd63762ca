/**
 * @file
 * Internal: translate lowered fused regions into one C++ source unit.
 *
 * Not installed API — only native.cc (the build driver) and the
 * tests include this.  docs/CODEGEN.md describes the emission strategy.
 */
#ifndef ZIRIA_ZCGEN_EMIT_H
#define ZIRIA_ZCGEN_EMIT_H

#include <string>
#include <vector>

#include "zexpr/frame.h"
#include "zfuse/bytecode.h"

namespace ziria {
namespace zcgen {

/** One emitted translation unit covering several regions. */
struct EmitUnit
{
    std::string source;   ///< self-contained C++ (no repo includes)
    int hostBridges = 0;  ///< closures that fell back to host callbacks
};

/**
 * Emit C++ for @p progs: region @p i becomes `zr_region_<i>`.  Closure
 * ASTs the emitter cannot express compile to host-callback bridges
 * instead (semantics preserved, counted in hostBridges).  Only reads
 * @p layout, the one the regions were lowered against: the frame stays
 * exactly as the fused interpreter lays it out (re-inlined call
 * parameters become C++ locals).
 */
EmitUnit emitUnit(const std::vector<const zfuse::FuseProgram*>& progs,
                  const FrameLayout& layout);

} // namespace zcgen
} // namespace ziria

#endif // ZIRIA_ZCGEN_EMIT_H
