#include "zserve/wire.h"

#include <algorithm>
#include <cstring>

namespace ziria {
namespace serve {

namespace {

void
putU32le(std::vector<uint8_t>& out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t
getU32le(const uint8_t* p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

bool
validType(uint8_t t)
{
    return t >= static_cast<uint8_t>(FrameType::Hello) &&
           t <= static_cast<uint8_t>(FrameType::Migrate);
}

void
putU64le(std::vector<uint8_t>& out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint64_t
getU64le(const uint8_t* p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Length-prefixed string (u16le length) for Migrate payload fields. */
void
putStr(std::vector<uint8_t>& out, const std::string& s)
{
    uint16_t n = static_cast<uint16_t>(std::min<size_t>(s.size(), 0xFFFF));
    out.push_back(static_cast<uint8_t>(n));
    out.push_back(static_cast<uint8_t>(n >> 8));
    out.insert(out.end(), s.begin(), s.begin() + n);
}

bool
getStr(const std::vector<uint8_t>& p, size_t& pos, std::string& s)
{
    if (p.size() - pos < 2)
        return false;
    uint16_t n = static_cast<uint16_t>(p[pos]) |
                 (static_cast<uint16_t>(p[pos + 1]) << 8);
    pos += 2;
    if (p.size() - pos < n)
        return false;
    s.assign(p.begin() + static_cast<long>(pos),
             p.begin() + static_cast<long>(pos + n));
    pos += n;
    return true;
}

} // namespace

bool
validSessionKey(const std::string& key)
{
    if (key.empty() || key.size() > 64 || key[0] == '.')
        return false;
    for (char c : key) {
        bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

const char*
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Hello: return "hello";
      case FrameType::Data: return "data";
      case FrameType::End: return "end";
      case FrameType::Halt: return "halt";
      case FrameType::Error: return "error";
      case FrameType::Stat: return "stat";
      case FrameType::Checkpoint: return "checkpoint";
      case FrameType::Migrate: return "migrate";
    }
    return "?";
}

size_t
payloadCapFor(FrameType t)
{
    return (t == FrameType::Checkpoint || t == FrameType::Migrate)
               ? kMaxCkptPayload
               : kMaxPayload;
}

void
encodeFrame(std::vector<uint8_t>& out, FrameType type,
            const uint8_t* payload, size_t len)
{
    out.reserve(out.size() + kHeaderBytes + len);
    out.push_back(kMagic0);
    out.push_back(kMagic1);
    out.push_back(static_cast<uint8_t>(type));
    out.push_back(0);  // flags
    putU32le(out, static_cast<uint32_t>(len));
    if (len)
        out.insert(out.end(), payload, payload + len);
}

void
encodeFrame(std::vector<uint8_t>& out, FrameType type,
            const std::vector<uint8_t>& payload)
{
    encodeFrame(out, type, payload.data(), payload.size());
}

void
encodeFrame(std::vector<uint8_t>& out, FrameType type)
{
    encodeFrame(out, type, nullptr, 0);
}

void
encodeError(std::vector<uint8_t>& out, const std::string& message)
{
    size_t len = std::min(message.size(), kMaxPayload);
    encodeFrame(out, FrameType::Error,
                reinterpret_cast<const uint8_t*>(message.data()), len);
}

void
encodeHello(std::vector<uint8_t>& out, uint32_t in_width,
            uint32_t out_width)
{
    std::vector<uint8_t> payload;
    putU32le(payload, kProtocolVersion);
    putU32le(payload, in_width);
    putU32le(payload, out_width);
    putU32le(payload, static_cast<uint32_t>(kMaxCkptPayload));
    encodeFrame(out, FrameType::Hello, payload);
}

void
encodeHelloResume(std::vector<uint8_t>& out, uint32_t in_width,
                  uint32_t out_width, uint64_t resume_elems)
{
    std::vector<uint8_t> payload;
    putU32le(payload, kProtocolVersion);
    putU32le(payload, in_width);
    putU32le(payload, out_width);
    putU32le(payload, static_cast<uint32_t>(kMaxCkptPayload));
    putU64le(payload, resume_elems);
    encodeFrame(out, FrameType::Hello, payload);
}

bool
decodeHello(const std::vector<uint8_t>& payload, HelloInfo& info)
{
    if (payload.size() != 12 && payload.size() != 16 &&
        payload.size() != 24)
        return false;
    info = HelloInfo{};
    info.version = getU32le(payload.data());
    info.inWidth = getU32le(payload.data() + 4);
    info.outWidth = getU32le(payload.data() + 8);
    if (payload.size() >= 16) {
        info.maxCkptPayload = getU32le(payload.data() + 12);
        info.hasCap = true;
    }
    if (payload.size() == 24) {
        info.resumeElems = getU64le(payload.data() + 16);
        info.hasResume = true;
    }
    return true;
}

void
encodeAttachHello(std::vector<uint8_t>& out, const std::string& key,
                  uint64_t received_bytes)
{
    std::vector<uint8_t> payload;
    putU32le(payload, kProtocolVersion);
    putU64le(payload, received_bytes);
    payload.insert(payload.end(), key.begin(), key.end());
    encodeFrame(out, FrameType::Hello, payload);
}

bool
decodeAttachHello(const std::vector<uint8_t>& payload, std::string& key,
                  uint64_t& received_bytes)
{
    if (payload.size() < 13 || payload.size() > 12 + 64)
        return false;
    if (getU32le(payload.data()) != kProtocolVersion)
        return false;
    received_bytes = getU64le(payload.data() + 4);
    key.assign(payload.begin() + 12, payload.end());
    return validSessionKey(key);
}

void
encodeMigrateRequest(std::vector<uint8_t>& out, const std::string& key,
                     const std::string& host, uint16_t port)
{
    std::vector<uint8_t> payload;
    payload.push_back(static_cast<uint8_t>(MigrateSub::Request));
    putStr(payload, key);
    putStr(payload, host);
    payload.push_back(static_cast<uint8_t>(port));
    payload.push_back(static_cast<uint8_t>(port >> 8));
    encodeFrame(out, FrameType::Migrate, payload);
}

bool
decodeMigrateRequest(const std::vector<uint8_t>& payload, std::string& key,
                     std::string& host, uint16_t& port)
{
    if (payload.empty() ||
        payload[0] != static_cast<uint8_t>(MigrateSub::Request))
        return false;
    size_t pos = 1;
    if (!getStr(payload, pos, key) || !getStr(payload, pos, host))
        return false;
    if (payload.size() - pos != 2)
        return false;
    port = static_cast<uint16_t>(payload[pos]) |
           (static_cast<uint16_t>(payload[pos + 1]) << 8);
    return validSessionKey(key) && !host.empty();
}

void
encodeMigrateTransfer(std::vector<uint8_t>& out, const std::string& key,
                      const std::vector<uint8_t>& ckpt)
{
    std::vector<uint8_t> payload;
    payload.reserve(3 + key.size() + ckpt.size());
    payload.push_back(static_cast<uint8_t>(MigrateSub::Transfer));
    putStr(payload, key);
    payload.insert(payload.end(), ckpt.begin(), ckpt.end());
    encodeFrame(out, FrameType::Migrate, payload);
}

bool
decodeMigrateTransfer(const std::vector<uint8_t>& payload, std::string& key,
                      std::vector<uint8_t>& ckpt)
{
    if (payload.empty() ||
        payload[0] != static_cast<uint8_t>(MigrateSub::Transfer))
        return false;
    size_t pos = 1;
    if (!getStr(payload, pos, key) || !validSessionKey(key))
        return false;
    ckpt.assign(payload.begin() + static_cast<long>(pos), payload.end());
    return true;
}

void
encodeMigrateAck(std::vector<uint8_t>& out, bool ok,
                 const std::string& message)
{
    std::vector<uint8_t> payload;
    payload.push_back(static_cast<uint8_t>(MigrateSub::Ack));
    payload.push_back(ok ? 1 : 0);
    putStr(payload, message);
    encodeFrame(out, FrameType::Migrate, payload);
}

bool
decodeMigrateAck(const std::vector<uint8_t>& payload, bool& ok,
                 std::string& message)
{
    if (payload.size() < 2 ||
        payload[0] != static_cast<uint8_t>(MigrateSub::Ack))
        return false;
    ok = payload[1] != 0;
    size_t pos = 2;
    return getStr(payload, pos, message) && pos == payload.size();
}

void
encodeMigrateRedirect(std::vector<uint8_t>& out, const std::string& host,
                      uint16_t port)
{
    std::vector<uint8_t> payload;
    payload.push_back(static_cast<uint8_t>(MigrateSub::Redirect));
    putStr(payload, host);
    payload.push_back(static_cast<uint8_t>(port));
    payload.push_back(static_cast<uint8_t>(port >> 8));
    encodeFrame(out, FrameType::Migrate, payload);
}

bool
decodeMigrateRedirect(const std::vector<uint8_t>& payload, std::string& host,
                      uint16_t& port)
{
    if (payload.empty() ||
        payload[0] != static_cast<uint8_t>(MigrateSub::Redirect))
        return false;
    size_t pos = 1;
    if (!getStr(payload, pos, host) || payload.size() - pos != 2)
        return false;
    port = static_cast<uint16_t>(payload[pos]) |
           (static_cast<uint16_t>(payload[pos + 1]) << 8);
    return !host.empty();
}

void
FrameParser::feed(const uint8_t* data, size_t n)
{
    if (failed_ || n == 0)
        return;
    // Compact the consumed prefix before growing so a long-lived session
    // does not accumulate every byte it ever received.
    if (pos_ > 0) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
}

FrameParser::Result
FrameParser::fail(const std::string& msg)
{
    failed_ = true;
    error_ = msg;
    buf_.clear();
    pos_ = 0;
    return Result::Error;
}

FrameParser::Result
FrameParser::next(Frame& out)
{
    if (failed_)
        return Result::Error;
    const size_t avail = buf_.size() - pos_;
    if (avail < kHeaderBytes)
        return Result::NeedMore;
    const uint8_t* h = buf_.data() + pos_;
    if (h[0] != kMagic0 || h[1] != kMagic1)
        return fail("bad frame magic");
    if (!validType(h[2]))
        return fail("unknown frame type " + std::to_string(h[2]));
    if (h[3] != 0)
        return fail("non-zero frame flags");
    const uint32_t len = getU32le(h + 4);
    const size_t cap = payloadCapFor(static_cast<FrameType>(h[2]));
    if (len > cap)
        return fail("oversized frame payload (" + std::to_string(len) +
                    " bytes, cap " + std::to_string(cap) + ")");
    if (avail < kHeaderBytes + len)
        return Result::NeedMore;
    out.type = static_cast<FrameType>(h[2]);
    out.payload.assign(h + kHeaderBytes, h + kHeaderBytes + len);
    pos_ += kHeaderBytes + len;
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    }
    return Result::Frame;
}

} // namespace serve
} // namespace ziria
