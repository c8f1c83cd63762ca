/**
 * @file
 * The runtime shared by the host and every generated unit.
 *
 * One definition of the host <-> generated-code context, the scalar
 * load/store helpers, the fixed-point complex arithmetic and the
 * built-in native functions.  The host includes this header (the VM's
 * complex closures and zexpr/natives.cc call these helpers); CMake
 * embeds the same text into zcgen/emit.cc, and every emitted unit
 * starts with it.  So the interpreter and native code evaluate each
 * complex operation and native through one body, and the context the
 * loader hands to generated code is the one the host compiled.
 *
 * Units compile with `-std=c++17` and no repo include path, so this
 * file stays C++17, includes only standard headers and prefixes every
 * name with `zr_`/`Zr`.  Integer arithmetic wraps: it runs on uint32_t
 * and converts back, which keeps the two's-complement bits the
 * machine produces and has no undefined overflow or negative left
 * shift.  Changing the context's layout means bumping kZrAbiVersion
 * (zcgen/abi.h).
 */
#ifndef ZIRIA_ZCGEN_RUNTIME_H
#define ZIRIA_ZCGEN_RUNTIME_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

extern "C" {

/**
 * The output ring of one native kernel embedded in the region, as the
 * host left it after its last kFeed: generated code pops elements by
 * advancing `head` and tests `finished` without a call.
 */
struct ZrKernel
{
    const uint8_t* ring;    ///< buffered output elements
    uint64_t head;          ///< bytes already popped
    uint64_t size;          ///< bytes buffered
    uint64_t finished;      ///< the kernel (a computer) has halted
};

/**
 * What a region entry point `int zr_region_0(ZrCtx*)` reads and writes:
 * the host (FusedNode) points it at its frame, state and registers,
 * and at the driver's I/O windows, before each call.  Generated code
 * calls back only for closures it could not inline (host bridges),
 * generic-shape lookup tables, runtime diagnostics and the native
 * kernels.
 */
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

    // The driver's I/O windows for this call (ExecNode::run): external
    // takes copy from [inCur, inEnd) and external emits append to
    // [outCur, outEnd) without returning.  Kept here, not in locals,
    // so a trap unwinding through the call leaves them current for the
    // host to read back.  Empty windows mean park and yield per element.
    const uint8_t* inCur;   ///< next input element
    const uint8_t* inEnd;   ///< end of the input window
    uint8_t* outCur;        ///< next free output slot
    uint8_t* outEnd;        ///< end of the output window
};

} // extern "C"

// ---- runtime diagnostics (the host throws the interpreter's message) --

static inline void zr_trap_msg(ZrCtx* zc, const char* m)
{ zc->trapMsg(zc->host, m); }
static inline void zr_trap_index(ZrCtx* zc, int64_t k, int64_t n)
{ zc->trapIndex(zc->host, k, n); }
static inline void zr_trap_slice(ZrCtx* zc, int64_t k, int64_t ke,
                                 int64_t n)
{ zc->trapSlice(zc->host, k, ke, n); }

// ---- scalar loads and stores (unaligned, little-endian host) ----------

static inline int64_t zr_ld8(const uint8_t* p)
{ int8_t v; std::memcpy(&v, p, 1); return v; }
static inline int64_t zr_ld16(const uint8_t* p)
{ int16_t v; std::memcpy(&v, p, 2); return v; }
static inline int64_t zr_ld32(const uint8_t* p)
{ int32_t v; std::memcpy(&v, p, 4); return v; }
static inline int64_t zr_ld64(const uint8_t* p)
{ int64_t v; std::memcpy(&v, p, 8); return v; }
static inline void zr_st8(uint8_t* p, int64_t v)
{ int8_t x = (int8_t)v; std::memcpy(p, &x, 1); }
static inline void zr_st16(uint8_t* p, int64_t v)
{ int16_t x = (int16_t)v; std::memcpy(p, &x, 2); }
static inline void zr_st32(uint8_t* p, int64_t v)
{ int32_t x = (int32_t)v; std::memcpy(p, &x, 4); }
static inline void zr_st64(uint8_t* p, int64_t v)
{ std::memcpy(p, &v, 8); }
static inline double zr_ldd(const uint8_t* p)
{ double v; std::memcpy(&v, p, 8); return v; }
static inline void zr_std(uint8_t* p, double v)
{ std::memcpy(p, &v, 8); }

static inline int16_t zr_sat16(int32_t v)
{
    if (v > 32767)
        return 32767;
    if (v < -32768)
        return -32768;
    return (int16_t)v;
}

// ---- wrapping 32-bit arithmetic ----------------------------------------

static inline int32_t zr_add32(int32_t a, int32_t b)
{ return (int32_t)((uint32_t)a + (uint32_t)b); }
static inline int32_t zr_sub32(int32_t a, int32_t b)
{ return (int32_t)((uint32_t)a - (uint32_t)b); }
static inline int32_t zr_mul32(int32_t a, int32_t b)
{ return (int32_t)((uint32_t)a * (uint32_t)b); }

// ---- fixed-point complex values ----------------------------------------

/**
 * A complex value widened to 32-bit parts.  complex16 operands load
 * sign-extended; storing a result as complex16 keeps the low 16 bits
 * of each part.
 */
struct ZrC32
{
    int32_t re, im;
};

static inline ZrC32 zr_ldc(int c16, const uint8_t* p)
{
    if (c16)
        return ZrC32{(int32_t)zr_ld16(p), (int32_t)zr_ld16(p + 2)};
    return ZrC32{(int32_t)zr_ld32(p), (int32_t)zr_ld32(p + 4)};
}

static inline void zr_stc(int c16, uint8_t* p, ZrC32 v)
{
    if (c16) {
        zr_st16(p, v.re);
        zr_st16(p + 2, v.im);
    } else {
        zr_st32(p, v.re);
        zr_st32(p + 4, v.im);
    }
}

static inline ZrC32 zr_cadd(ZrC32 a, ZrC32 b)
{ return ZrC32{zr_add32(a.re, b.re), zr_add32(a.im, b.im)}; }
static inline ZrC32 zr_csub(ZrC32 a, ZrC32 b)
{ return ZrC32{zr_sub32(a.re, b.re), zr_sub32(a.im, b.im)}; }
static inline ZrC32 zr_cmul(ZrC32 a, ZrC32 b)
{
    return ZrC32{zr_sub32(zr_mul32(a.re, b.re), zr_mul32(a.im, b.im)),
                 zr_add32(zr_mul32(a.re, b.im), zr_mul32(a.im, b.re))};
}
static inline ZrC32 zr_cneg(ZrC32 a)
{ return ZrC32{zr_sub32(0, a.re), zr_sub32(0, a.im)}; }
static inline ZrC32 zr_cconj(ZrC32 a)
{ return ZrC32{a.re, zr_sub32(0, a.im)}; }
/** Both parts shifted by `s & 31` (the operator's shift count). */
static inline ZrC32 zr_cshl(ZrC32 a, int64_t s)
{
    int k = (int)(s & 31);
    return ZrC32{(int32_t)((uint32_t)a.re << k),
                 (int32_t)((uint32_t)a.im << k)};
}
static inline ZrC32 zr_cshr(ZrC32 a, int64_t s)
{
    int k = (int)(s & 31);
    return ZrC32{a.re >> k, a.im >> k};
}
/** The saturating cast to complex16. */
static inline ZrC32 zr_csat16(ZrC32 a)
{ return ZrC32{zr_sat16(a.re), zr_sat16(a.im)}; }

// ---- built-in native functions (zexpr/natives.cc lists them) -----------
//
// zr_nat_<name>(args, ret): argument bytes in parameter order, the
// return value's bytes written to `ret`.

static inline void zr_nat_sin(const uint8_t* const* a, uint8_t* r)
{ zr_std(r, std::sin(zr_ldd(a[0]))); }
static inline void zr_nat_cos(const uint8_t* const* a, uint8_t* r)
{ zr_std(r, std::cos(zr_ldd(a[0]))); }
static inline void zr_nat_sqrt(const uint8_t* const* a, uint8_t* r)
{ zr_std(r, std::sqrt(zr_ldd(a[0]))); }
static inline void zr_nat_exp(const uint8_t* const* a, uint8_t* r)
{ zr_std(r, std::exp(zr_ldd(a[0]))); }
static inline void zr_nat_log(const uint8_t* const* a, uint8_t* r)
{ zr_std(r, std::log(zr_ldd(a[0]))); }
static inline void zr_nat_atan2(const uint8_t* const* a, uint8_t* r)
{ zr_std(r, std::atan2(zr_ldd(a[0]), zr_ldd(a[1]))); }

/** (a * b) >> (shift & 31), parts kept to 16 bits. */
static inline void zr_nat_cmul16(const uint8_t* const* a, uint8_t* r)
{ zr_stc(1, r, zr_cshr(zr_cmul(zr_ldc(1, a[0]), zr_ldc(1, a[1])),
                       zr_ld32(a[2]))); }
/** (a * conj(b)) >> (shift & 31), parts kept to 16 bits. */
static inline void zr_nat_cmul_conj16(const uint8_t* const* a, uint8_t* r)
{ zr_stc(1, r, zr_cshr(zr_cmul(zr_ldc(1, a[0]), zr_cconj(zr_ldc(1, a[1]))),
                       zr_ld32(a[2]))); }
/** re^2 + im^2 as a (wrapping) 32-bit int. */
static inline void zr_nat_cabs2(const uint8_t* const* a, uint8_t* r)
{
    ZrC32 x = zr_ldc(1, a[0]);
    zr_st32(r, zr_cmul(x, zr_cconj(x)).re);
}
static inline void zr_nat_conj16(const uint8_t* const* a, uint8_t* r)
{ zr_stc(1, r, zr_cconj(zr_ldc(1, a[0]))); }
static inline void zr_nat_cadd32(const uint8_t* const* a, uint8_t* r)
{ zr_stc(0, r, zr_cadd(zr_ldc(0, a[0]), zr_ldc(0, a[1]))); }
static inline void zr_nat_sat16(const uint8_t* const* a, uint8_t* r)
{ zr_st16(r, zr_sat16((int32_t)zr_ld32(a[0]))); }
static inline void zr_nat_creal(const uint8_t* const* a, uint8_t* r)
{ std::memcpy(r, a[0], 2); }
static inline void zr_nat_cimag(const uint8_t* const* a, uint8_t* r)
{ std::memcpy(r, a[0] + 2, 2); }
static inline void zr_nat_mk_complex16(const uint8_t* const* a, uint8_t* r)
{ std::memcpy(r, a[0], 2); std::memcpy(r + 2, a[1], 2); }

#endif // ZIRIA_ZCGEN_RUNTIME_H
