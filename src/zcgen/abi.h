/**
 * @file
 * The host <-> generated-code ABI for the native backend.
 *
 * A generated region is `extern "C" int zr_region_0(ZrCtx*)` returning
 * the ExecNode status (0 = Yield, 1 = NeedInput, 2 = Done).  The host
 * (FusedNode) points the context at its frame/state/register spaces
 * before each call; the generated code reads and writes them directly
 * and calls back through the function pointers only for closures it
 * could not inline (host bridges), generic-shape LUTs, and runtime
 * diagnostics (traps throw FatalError host-side so messages match the
 * interpreter byte-for-byte).  Every other lookup table is indexed in
 * place through `lut`: the host-owned tables of the region's
 * FuseProgram, never copied into the unit.  Native stream kernels
 * embedded in a region are started and fed through `kStart`/`kFeed`;
 * their output rings are read in place through `kern`.  External takes
 * and emits move whole runs through the `inCur`/`outCur` windows
 * (ABI 4); the region returns only when the input window is used up,
 * the output window is full, or the program halts.
 *
 * `ZrCtx` and `ZrKernel` are defined once, in zcgen/runtime.h, which
 * the host includes and every emitted unit embeds verbatim, so the
 * struct the loader dereferences is the struct the host compiled.
 * Bump kZrAbiVersion on any layout change: the loader refuses objects
 * whose `zr_abi` symbol disagrees, so a stale cache can never be
 * dereferenced with the wrong layout.
 */
#ifndef ZIRIA_ZCGEN_ABI_H
#define ZIRIA_ZCGEN_ABI_H

#include "zcgen/runtime.h"

namespace ziria {
namespace zcgen {

constexpr int kZrAbiVersion = 4;

using ZrKernel = ::ZrKernel;
using ZrCtx = ::ZrCtx;

extern "C" {

/** Signature of a generated region entry point. */
typedef int (*ZrRegionFn)(ZrCtx*);

} // extern "C"

} // namespace zcgen
} // namespace ziria

#endif // ZIRIA_ZCGEN_ABI_H
