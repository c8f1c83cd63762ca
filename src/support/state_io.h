/**
 * @file
 * Byte-stream serialization primitives for execution-state snapshots.
 *
 * StateWriter/StateReader carry the versioned, byte-addressed encoding
 * of live pipeline state (docs/ROBUSTNESS.md, "Checkpointing &
 * migration").  Every ExecNode, NativeKernel, and DSP block writes its
 * state through this pair; the container format (magic, version, frame
 * image) is owned by zexec/snapshot.h.
 *
 * Encoding rules:
 *  - fixed-width integers are little-endian;
 *  - blob() prefixes a u64 length so readers can restore
 *    variable-length state (Viterbi traceback, native output rings)
 *    without out-of-band sizes;
 *  - every read is bounds-checked and throws StateFormatError on
 *    truncation, so a corrupt or version-skewed checkpoint fails the
 *    restore loudly instead of resuming from garbage.
 */
#ifndef ZIRIA_SUPPORT_STATE_IO_H
#define ZIRIA_SUPPORT_STATE_IO_H

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace ziria {

/** Thrown when a snapshot byte stream is truncated or malformed. */
class StateFormatError : public std::runtime_error
{
  public:
    explicit StateFormatError(const std::string& what)
        : std::runtime_error("state snapshot: " + what)
    {
    }
};

/** Appends state fields to a growing byte vector. */
class StateWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    i64(int64_t v)
    {
        u64(static_cast<uint64_t>(v));
    }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    /** Raw bytes with no length prefix (width known to the reader). */
    void
    bytes(const void* p, size_t n)
    {
        const uint8_t* b = static_cast<const uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    /** Length-prefixed byte run (width unknown to the reader). */
    void
    blob(const void* p, size_t n)
    {
        u64(n);
        bytes(p, n);
    }

    size_t size() const { return buf_.size(); }
    const std::vector<uint8_t>& data() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked cursor over a snapshot byte stream. */
class StateReader
{
  public:
    StateReader(const uint8_t* data, size_t size)
        : p_(data), end_(data + size)
    {
    }

    explicit StateReader(const std::vector<uint8_t>& v)
        : StateReader(v.data(), v.size())
    {
    }

    uint8_t
    u8()
    {
        need(1, "u8");
        return *p_++;
    }

    uint32_t
    u32()
    {
        need(4, "u32");
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(p_[i]) << (8 * i);
        p_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        need(8, "u64");
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p_[i]) << (8 * i);
        p_ += 8;
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    void
    bytes(void* out, size_t n)
    {
        need(n, "bytes");
        if (n == 0)
            return;  // an empty buffer's data() may be null
        std::memcpy(out, p_, n);
        p_ += n;
    }

    /** Read a length-prefixed byte run written by StateWriter::blob. */
    std::vector<uint8_t>
    blob()
    {
        uint64_t n = u64();
        need(n, "blob");
        std::vector<uint8_t> v(p_, p_ + n);
        p_ += n;
        return v;
    }

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }
    bool atEnd() const { return p_ == end_; }

  private:
    void
    need(size_t n, const char* what)
    {
        if (static_cast<size_t>(end_ - p_) < n)
            throw StateFormatError(std::string("truncated reading ") +
                                   what);
    }

    const uint8_t* p_;
    const uint8_t* end_;
};

} // namespace ziria

#endif // ZIRIA_SUPPORT_STATE_IO_H
