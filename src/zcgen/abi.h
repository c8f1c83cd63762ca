/**
 * @file
 * The host <-> generated-code ABI for the native backend.
 *
 * A generated region is `extern "C" int zr_region_<i>(ZrCtx*)` returning
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
 * their output rings are read in place through `kern`.
 *
 * This struct is mirrored TEXTUALLY into every emitted translation unit
 * (zcgen/emit.cc, kPreambleAbi) — keep the two in lock-step and bump
 * kZrAbiVersion on any layout change.  Each unit static_asserts the
 * host's sizeof(ZrCtx) and offsetof(ZrCtx, lut), so a drifted mirror
 * fails to compile, and the loader refuses objects whose `zr_abi` symbol
 * disagrees, so a stale cache can never be dereferenced with the wrong
 * layout.
 */
#ifndef ZIRIA_ZCGEN_ABI_H
#define ZIRIA_ZCGEN_ABI_H

#include <cstdint>

namespace ziria {
namespace zcgen {

constexpr int kZrAbiVersion = 3;

extern "C" {

/**
 * The output ring of one native kernel embedded in the region, as the
 * host left it after its last KFeed: generated code pops elements by
 * advancing `head` and tests `finished` without a call.
 */
struct ZrKernel
{
    const uint8_t* ring;    ///< buffered output elements
    uint64_t head;          ///< bytes already popped
    uint64_t size;          ///< bytes buffered
    uint64_t finished;      ///< the kernel (a computer) has halted
};

struct ZrCtx
{
    uint8_t* fr;            ///< pipeline frame base
    uint8_t* st;            ///< region-private state block
    int64_t* regs;          ///< integer registers
    uint32_t* chProdPc;     ///< per-channel producer continuation
    uint32_t* chConsPc;     ///< per-channel consumer continuation
    uint8_t* chFull;        ///< per-channel occupancy flag
    uint32_t pc;            ///< parked program counter
    uint32_t pad_;
    uint64_t spins;         ///< repeat livelock guard
    const uint8_t* outPtr;  ///< last yielded element
    const uint8_t* ctrlPtr; ///< control value after Done
    uint64_t ctrlWidth;     ///< mutated by the Ctrl instruction

    void* host;             ///< the owning FusedNode
    void (*hostInto)(void* host, int32_t idx, uint8_t* dst);
    int64_t (*hostInt)(void* host, int32_t idx);
    void (*hostAction)(void* host, int32_t idx);
    void (*hostLut)(void* host, int32_t idx, uint8_t* dst);
    void (*trapMsg)(void* host, const char* msg);
    void (*trapIndex)(void* host, int64_t k, int64_t n);
    void (*trapSlice)(void* host, int64_t k, int64_t kEnd, int64_t n);

    // Native kernels (KStart/KFeed): the host owns the instances, so
    // these are the kernel calls themselves, not host bridges.
    ZrKernel* kern;         ///< per-kernel output rings
    void (*kStart)(void* host, int32_t k);
    void (*kFeed)(void* host, int32_t k, const uint8_t* in);

    /// Per-LUT table base (FuseProgram::luts[i]->table()), host-owned.
    const uint8_t* const* lut;
};

/** Signature of a generated region entry point. */
typedef int (*ZrRegionFn)(ZrCtx*);

} // extern "C"

} // namespace zcgen
} // namespace ziria

#endif // ZIRIA_ZCGEN_ABI_H
