/**
 * @file
 * Lookup-table generation (the paper's automatic LUT optimization, §4).
 *
 * A LUT-able kernel is a pure function of a small number of semantic bits:
 * its input parameter plus the state variables it reads.  We enumerate all
 * key values, run the compiled kernel once per key at compile time, and
 * record the outputs (return value plus state updates).  At run time the
 * kernel body is replaced by: pack key -> table lookup -> unpack outputs.
 *
 * Bit arrays pack one bit per element (the VM stores them unpacked, one
 * byte per bit), so e.g. the vectorized WiFi scrambler — 8 input bits and
 * 7 state bits — keys a 2^15-entry table, exactly the paper's Figure 3.
 */
#ifndef ZIRIA_ZEXPR_LUT_H
#define ZIRIA_ZEXPR_LUT_H

#include <memory>
#include <optional>
#include <vector>

#include "zexpr/compile_expr.h"
#include "ztype/type.h"

namespace ziria {

/** A frame-resident field participating in a LUT key or output. */
struct LutSlot
{
    size_t frameOff = 0;
    TypePtr type;
    long bits = 0;  ///< semantic bit width of the field
};

/** Size/placement plan for a LUT. */
struct LutPlan
{
    std::vector<LutSlot> keySlots;  ///< read from the frame to form the key
    std::vector<LutSlot> outSlots;  ///< state updates written back
    TypePtr retType;                ///< null when the kernel returns unit
    int keyBits = 0;
    size_t entryBytes = 0;          ///< packed bytes per table entry
};

/** Policy limits for LUT generation. */
struct LutLimits
{
    int maxKeyBits = 20;        ///< at most 2^20 = 1Mi entries
    size_t maxTableBytes = 1u << 25;  ///< 32 MiB
    int minKeyBits = 2;         ///< don't LUT trivially small kernels
};

/**
 * Check the limits and compute the entry layout.
 * @return nullopt if any field is not LUT-able (e.g. doubles) or the
 *         table would exceed the limits.
 */
std::optional<LutPlan> planLut(std::vector<LutSlot> key_slots,
                               std::vector<LutSlot> out_slots,
                               TypePtr ret_type,
                               const LutLimits& limits = LutLimits{});

/**
 * A materialized lookup table replacing a kernel body.
 *
 * Each entry is [return value][state updates], every field packed
 * LSB-first and byte-aligned.  apply() decodes the return value along
 * one of three paths, chosen once at construction:
 *  - copy: every leaf of the return type is a whole number of bytes
 *    (int8..int64, complex16/32, arrays and structs of them), so the
 *    packed bits already are the VM's little-endian layout and the
 *    return is one memcpy;
 *  - bits: every leaf is a bit or bool, so bit i of the entry goes to a
 *    precomputed destination offset;
 *  - generic: anything else (mixed bit/byte leaves) is unpacked field by
 *    field with unpackValueBits.
 * Key and state fields made only of bits take the same per-bit offset
 * path; other key/state shapes are packed and unpacked generically.
 * The VM map node, the fused Op::Lut and native code's generic-shape
 * host callback all call this one apply().  The native emitter reads the
 * plan through the accessors below and unrolls apply() for every table
 * on the per-bit path whose return is not Generic, indexing this same
 * host-owned table through the region's context.
 */
class CompiledLut
{
  public:
    /**
     * Build by exhaustive evaluation: for every key, the key fields are
     * written into a scratch frame, @p body runs, and the outputs are
     * recorded.  @p retInto may be null for unit-returning kernels.
     */
    CompiledLut(LutPlan plan, const Action& body, const EvalInto& retInto,
                size_t frame_size);

    /**
     * Apply: reads key fields from @p f, writes state updates back into
     * @p f and the return value (if any) to @p retDst.
     */
    void apply(Frame& f, uint8_t* retDst) const;

    /** How apply() decodes the return value (see the class comment). */
    enum class RetPath { None, Copy, Bits, Generic };
    RetPath retPath() const { return retPath_; }

    int keyBits() const { return plan_.keyBits; }
    size_t tableBytes() const { return table_.size(); }
    size_t entries() const { return size_t{1} << plan_.keyBits; }

    // ---- the decoding plan, read-only (the native emitter unrolls it)

    /** Key and state fields all take the per-bit offset path. */
    bool bitKeyed() const { return fast_; }
    /** bitKeyed(): frame offset of key bit i (LSB first). */
    const std::vector<uint32_t>& keyBitOffsets() const { return keyBitOff_; }
    /** bitKeyed(): (frame offset, bit within the state area) per bit. */
    const std::vector<std::pair<uint32_t, uint32_t>>&
    stateBits() const
    {
        return outBits_;
    }
    /** Bits: destination offset of return bit i. */
    const std::vector<uint32_t>& retBitOffsets() const { return retBitOff_; }
    /** Packed return bytes at the head of each entry (0 for unit). */
    size_t retBytes() const { return retBytes_; }
    size_t entryBytes() const { return plan_.entryBytes; }
    const uint8_t* table() const { return table_.data(); }

  private:
    /**
     * Plan the decoding once: flatten bit-shaped key/state fields into
     * per-bit frame offsets and pick the return path.
     */
    void buildFastPaths();

    LutPlan plan_;
    std::vector<uint8_t> table_;
    bool fast_ = false;
    std::vector<uint32_t> keyBitOff_;  ///< frame offset of each key bit
    /** (frame offset, bit position within the entry's state area). */
    std::vector<std::pair<uint32_t, uint32_t>> outBits_;
    RetPath retPath_ = RetPath::None;
    std::vector<uint32_t> retBitOff_;  ///< Bits: destination of bit i
    size_t retBytes_ = 0;  ///< packed return bytes (0 for unit)
};

/** Pack a flat value of @p type (VM layout) into a bit writer. */
void packValueBits(const TypePtr& type, const uint8_t* src,
                   class BitWriter& bw);

/** Unpack bits into a flat value of @p type (VM layout). */
void unpackValueBits(const TypePtr& type, class BitReader& br, uint8_t* dst);

} // namespace ziria

#endif // ZIRIA_ZEXPR_LUT_H
