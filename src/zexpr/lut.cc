#include "zexpr/lut.h"

#include "support/bits.h"
#include "support/panic.h"
#include "ztype/value.h"

namespace ziria {

void
packValueBits(const TypePtr& type, const uint8_t* src, BitWriter& bw)
{
    switch (type->kind()) {
      case TypeKind::Unit:
        return;
      case TypeKind::Bit:
      case TypeKind::Bool:
        bw.put(src[0] & 1, 1);
        return;
      case TypeKind::Int8:
        bw.put(src[0], 8);
        return;
      case TypeKind::Int16: {
        uint16_t v;
        std::memcpy(&v, src, 2);
        bw.put(v, 16);
        return;
      }
      case TypeKind::Int32:
      case TypeKind::Complex16: {
        uint32_t v;
        std::memcpy(&v, src, 4);
        bw.put(v, 32);
        return;
      }
      case TypeKind::Int64:
      case TypeKind::Complex32: {
        uint64_t v;
        std::memcpy(&v, src, 8);
        bw.put(v, 64);
        return;
      }
      case TypeKind::Array: {
        size_t ew = type->elem()->byteWidth();
        for (int i = 0; i < type->len(); ++i)
            packValueBits(type->elem(), src + i * ew, bw);
        return;
      }
      case TypeKind::Struct: {
        size_t off = 0;
        for (const auto& [fname, ftype] : type->fields()) {
            (void)fname;
            packValueBits(ftype, src + off, bw);
            off += ftype->byteWidth();
        }
        return;
      }
      case TypeKind::Double:
        panic("packValueBits: doubles are not LUT-able");
    }
}

void
unpackValueBits(const TypePtr& type, BitReader& br, uint8_t* dst)
{
    switch (type->kind()) {
      case TypeKind::Unit:
        return;
      case TypeKind::Bit:
      case TypeKind::Bool:
        dst[0] = static_cast<uint8_t>(br.get(1));
        return;
      case TypeKind::Int8:
        dst[0] = static_cast<uint8_t>(br.get(8));
        return;
      case TypeKind::Int16: {
        uint16_t v = static_cast<uint16_t>(br.get(16));
        std::memcpy(dst, &v, 2);
        return;
      }
      case TypeKind::Int32:
      case TypeKind::Complex16: {
        uint32_t v = static_cast<uint32_t>(br.get(32));
        std::memcpy(dst, &v, 4);
        return;
      }
      case TypeKind::Int64:
      case TypeKind::Complex32: {
        uint64_t v = br.get(64);
        std::memcpy(dst, &v, 8);
        return;
      }
      case TypeKind::Array: {
        size_t ew = type->elem()->byteWidth();
        for (int i = 0; i < type->len(); ++i)
            unpackValueBits(type->elem(), br, dst + i * ew);
        return;
      }
      case TypeKind::Struct: {
        size_t off = 0;
        for (const auto& [fname, ftype] : type->fields()) {
            (void)fname;
            unpackValueBits(ftype, br, dst + off);
            off += ftype->byteWidth();
        }
        return;
      }
      case TypeKind::Double:
        panic("unpackValueBits: doubles are not LUT-able");
    }
}

std::optional<LutPlan>
planLut(std::vector<LutSlot> key_slots, std::vector<LutSlot> out_slots,
        TypePtr ret_type, const LutLimits& limits)
{
    LutPlan plan;
    long keyBits = 0;
    for (auto& s : key_slots) {
        s.bits = s.type->bitWidth();
        if (s.bits < 0)
            return std::nullopt;  // not LUT-able (doubles)
        keyBits += s.bits;
    }
    if (keyBits < limits.minKeyBits || keyBits > limits.maxKeyBits)
        return std::nullopt;

    size_t entryBytes = 0;
    if (ret_type && !ret_type->isUnit()) {
        long rb = ret_type->bitWidth();
        if (rb < 0)
            return std::nullopt;
        entryBytes += (static_cast<size_t>(rb) + 7) / 8;
    }
    for (auto& s : out_slots) {
        s.bits = s.type->bitWidth();
        if (s.bits < 0)
            return std::nullopt;
        entryBytes += (static_cast<size_t>(s.bits) + 7) / 8;
    }
    if (entryBytes == 0)
        return std::nullopt;  // nothing to produce

    size_t tableBytes = entryBytes << keyBits;
    if (tableBytes > limits.maxTableBytes)
        return std::nullopt;

    plan.keySlots = std::move(key_slots);
    plan.outSlots = std::move(out_slots);
    plan.retType = (ret_type && !ret_type->isUnit()) ? ret_type : nullptr;
    plan.keyBits = static_cast<int>(keyBits);
    plan.entryBytes = entryBytes;
    return plan;
}

CompiledLut::CompiledLut(LutPlan plan, const Action& body,
                         const EvalInto& retInto, size_t frame_size)
    : plan_(std::move(plan))
{
    const size_t entries = size_t{1} << plan_.keyBits;
    table_.assign(entries * plan_.entryBytes, 0);

    Frame scratch(frame_size);
    std::vector<uint8_t> retBuf(
        plan_.retType ? plan_.retType->byteWidth() : 0);

    std::vector<uint8_t> keyBytes((plan_.keyBits + 7) / 8);
    for (size_t key = 0; key < entries; ++key) {
        // Distribute the key bits into the key slots.
        for (size_t i = 0; i < keyBytes.size(); ++i)
            keyBytes[i] = static_cast<uint8_t>(key >> (8 * i));
        BitReader br(keyBytes.data());
        for (const auto& s : plan_.keySlots)
            unpackValueBits(s.type, br, scratch.at(s.frameOff));

        body(scratch);

        // Record outputs: [ret][state updates], each byte-aligned.
        uint8_t* entry = table_.data() + key * plan_.entryBytes;
        size_t pos = 0;
        if (plan_.retType) {
            retInto(scratch, retBuf.data());
            BitWriter bw(entry + pos);
            packValueBits(plan_.retType, retBuf.data(), bw);
            pos += (static_cast<size_t>(plan_.retType->bitWidth()) + 7) / 8;
        }
        for (const auto& s : plan_.outSlots) {
            BitWriter bw(entry + pos);
            packValueBits(s.type, scratch.at(s.frameOff), bw);
            pos += (static_cast<size_t>(s.bits) + 7) / 8;
        }
    }
    buildFastPaths();
}

namespace {

/** Append the offset of every bit leaf of @p t (placed at @p off);
 *  false when some leaf is not a bit or bool. */
bool
flattenBits(const TypePtr& t, size_t off, std::vector<uint32_t>& offs)
{
    if (t->isBit() || t->isBool()) {
        offs.push_back(static_cast<uint32_t>(off));
        return true;
    }
    if (t->isArray()) {
        size_t w = t->elem()->byteWidth();
        for (int i = 0; i < t->len(); ++i) {
            if (!flattenBits(t->elem(), off + i * w, offs))
                return false;
        }
        return true;
    }
    if (t->isStruct()) {
        for (const auto& [fname, ftype] : t->fields()) {
            (void)fname;
            if (!flattenBits(ftype, off, offs))
                return false;
            off += ftype->byteWidth();
        }
        return true;
    }
    return false;
}

/** True when every leaf of @p t packs to whole bytes in VM order. */
bool
wholeByteLeaves(const TypePtr& t)
{
    switch (t->kind()) {
      case TypeKind::Int8:
      case TypeKind::Int16:
      case TypeKind::Int32:
      case TypeKind::Int64:
      case TypeKind::Complex16:
      case TypeKind::Complex32:
        return true;
      case TypeKind::Array:
        return wholeByteLeaves(t->elem());
      case TypeKind::Struct:
        for (const auto& [fname, ftype] : t->fields()) {
            (void)fname;
            if (!wholeByteLeaves(ftype))
                return false;
        }
        return true;
      default:
        return false;
    }
}

} // namespace

void
CompiledLut::buildFastPaths()
{
    // The key/state fast path applies when every key/out field is built
    // purely from one-bit bytes (bit scalars, arrays and structs of
    // them) — the common case for the PHY kernels the LUT pass targets.
    keyBitOff_.clear();
    outBits_.clear();
    fast_ = true;
    for (const auto& s : plan_.keySlots)
        fast_ = fast_ && flattenBits(s.type, s.frameOff, keyBitOff_);
    // Out fields are byte-aligned per field within the entry.
    uint32_t bitPos = 0;
    for (const auto& s : plan_.outSlots) {
        std::vector<uint32_t> offs;
        fast_ = fast_ && flattenBits(s.type, s.frameOff, offs);
        for (uint32_t o : offs)
            outBits_.emplace_back(o, bitPos++);
        bitPos = (bitPos + 7) & ~7u;  // next field starts byte-aligned
    }
    if (!fast_) {
        keyBitOff_.clear();
        outBits_.clear();
    }

    retBitOff_.clear();
    retBytes_ = 0;
    retPath_ = RetPath::None;
    if (!plan_.retType)
        return;
    retBytes_ = (static_cast<size_t>(plan_.retType->bitWidth()) + 7) / 8;
    if (wholeByteLeaves(plan_.retType)) {
        ZIRIA_ASSERT(retBytes_ == plan_.retType->byteWidth());
        retPath_ = RetPath::Copy;
    } else if (flattenBits(plan_.retType, 0, retBitOff_)) {
        retPath_ = RetPath::Bits;
    } else {
        retBitOff_.clear();
        retPath_ = RetPath::Generic;
    }
}

void
CompiledLut::apply(Frame& f, uint8_t* retDst) const
{
    uint64_t key = 0;
    if (fast_) {
        for (size_t i = 0; i < keyBitOff_.size(); ++i)
            key |= static_cast<uint64_t>(*f.at(keyBitOff_[i]) & 1) << i;
    } else {
        uint8_t keyBytes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        BitWriter bw(keyBytes);
        for (const auto& s : plan_.keySlots)
            packValueBits(s.type, f.at(s.frameOff), bw);
        std::memcpy(&key, keyBytes, 8);
        key &= (uint64_t{1} << plan_.keyBits) - 1;
    }
    const uint8_t* entry = table_.data() + key * plan_.entryBytes;

    switch (retPath_) {
      case RetPath::None:
        break;
      case RetPath::Copy:
        std::memcpy(retDst, entry, retBytes_);
        break;
      case RetPath::Bits:
        for (size_t i = 0; i < retBitOff_.size(); ++i)
            retDst[retBitOff_[i]] = (entry[i >> 3] >> (i & 7)) & 1;
        break;
      case RetPath::Generic: {
        BitReader br(entry);
        unpackValueBits(plan_.retType, br, retDst);
        break;
      }
    }

    const uint8_t* st = entry + retBytes_;
    if (fast_) {
        for (const auto& [off, bit] : outBits_)
            *f.at(off) = (st[bit >> 3] >> (bit & 7)) & 1;
        return;
    }
    for (const auto& s : plan_.outSlots) {
        BitReader br(st);
        unpackValueBits(s.type, br, f.at(s.frameOff));
        st += (static_cast<size_t>(s.bits) + 7) / 8;
    }
}

} // namespace ziria
