/**
 * @file
 * Wire-protocol tests (ctest label `serve`): frame codec round trips,
 * incremental parsing across arbitrary split points, rejection of
 * malformed input (bad magic, unknown type, non-zero flags, oversized
 * length, truncation), and seeded mutation fuzzing of valid streams.
 *
 * The parser's contract under test: errors are *sticky* (a desync on a
 * stream socket is unrecoverable, so the parser never resynchronizes),
 * a hostile length field can never force a large allocation, and any
 * byte stream — valid, mutated, or pure garbage — terminates in either
 * NeedMore or Error without crashing.
 */
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "zserve/wire.h"

namespace ziria {
namespace serve {
namespace {

std::vector<uint8_t>
bytes(std::initializer_list<int> v)
{
    std::vector<uint8_t> out;
    for (int x : v)
        out.push_back(static_cast<uint8_t>(x));
    return out;
}

/** Feed a whole buffer and pull every frame until NeedMore/Error. */
FrameParser::Result
pullAll(FrameParser& p, const std::vector<uint8_t>& wire,
        std::vector<Frame>* frames = nullptr)
{
    p.feed(wire.data(), wire.size());
    Frame f;
    for (;;) {
        FrameParser::Result r = p.next(f);
        if (r != FrameParser::Result::Frame)
            return r;
        if (frames)
            frames->push_back(f);
    }
}

// ------------------------------------------------------------ encoding

TEST(Wire, HeaderLayoutIsExact)
{
    std::vector<uint8_t> wire;
    std::vector<uint8_t> payload = bytes({0xAA, 0xBB, 0xCC});
    encodeFrame(wire, FrameType::Data, payload);
    ASSERT_EQ(wire.size(), kHeaderBytes + 3);
    EXPECT_EQ(wire[0], kMagic0);  // 'Z'
    EXPECT_EQ(wire[1], kMagic1);  // 'S'
    EXPECT_EQ(wire[2], static_cast<uint8_t>(FrameType::Data));
    EXPECT_EQ(wire[3], 0u);  // flags must be 0 in version 1
    EXPECT_EQ(wire[4], 3u);  // u32le length
    EXPECT_EQ(wire[5], 0u);
    EXPECT_EQ(wire[6], 0u);
    EXPECT_EQ(wire[7], 0u);
    EXPECT_EQ(wire[8], 0xAA);
}

TEST(Wire, RoundTripEveryFrameType)
{
    const FrameType types[] = {FrameType::Hello, FrameType::Data,
                               FrameType::End, FrameType::Halt,
                               FrameType::Error};
    std::vector<uint8_t> wire;
    std::vector<uint8_t> payload;
    for (size_t i = 0; i < 5; ++i) {
        payload.assign(i * 7, static_cast<uint8_t>(0x40 + i));
        encodeFrame(wire, types[i], payload);
    }

    FrameParser p;
    std::vector<Frame> got;
    EXPECT_EQ(pullAll(p, wire, &got), FrameParser::Result::NeedMore);
    ASSERT_EQ(got.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(got[i].type, types[i]);
        EXPECT_EQ(got[i].payload.size(), i * 7);
    }
    EXPECT_FALSE(p.failed());
    EXPECT_FALSE(p.midFrame());
}

TEST(Wire, HelloRoundTrip)
{
    std::vector<uint8_t> wire;
    encodeHello(wire, 8, 48);
    FrameParser p;
    std::vector<Frame> got;
    pullAll(p, wire, &got);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].type, FrameType::Hello);

    HelloInfo hi;
    ASSERT_TRUE(decodeHello(got[0].payload, hi));
    EXPECT_EQ(hi.version, kProtocolVersion);
    EXPECT_EQ(hi.inWidth, 8u);
    EXPECT_EQ(hi.outWidth, 48u);
}

TEST(Wire, HelloRejectsWrongSize)
{
    HelloInfo hi;
    EXPECT_FALSE(decodeHello(bytes({1, 0, 0}), hi));
    EXPECT_FALSE(decodeHello({}, hi));
    // 12 (legacy), 16 (greeting + cap) and 24 (resume ack) are the only
    // valid sizes.
    std::vector<uint8_t> odd(20, 0);
    EXPECT_FALSE(decodeHello(odd, hi));
    std::vector<uint8_t> tooLong(32, 0);
    EXPECT_FALSE(decodeHello(tooLong, hi));
}

TEST(Wire, ErrorFrameCarriesMessage)
{
    std::vector<uint8_t> wire;
    encodeError(wire, "queue on fire");
    FrameParser p;
    std::vector<Frame> got;
    pullAll(p, wire, &got);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].type, FrameType::Error);
    EXPECT_EQ(std::string(got[0].payload.begin(), got[0].payload.end()),
              "queue on fire");
}

// ------------------------------------------- incremental stream parsing

TEST(Wire, ByteAtATimeDelivery)
{
    std::vector<uint8_t> wire;
    for (int k = 0; k < 4; ++k) {
        std::vector<uint8_t> payload(static_cast<size_t>(k) * 3 + 1,
                                     static_cast<uint8_t>(k));
        encodeFrame(wire, FrameType::Data, payload);
    }
    encodeFrame(wire, FrameType::End);

    FrameParser p;
    Frame f;
    size_t frames = 0;
    for (uint8_t b : wire) {
        p.feed(&b, 1);
        while (p.next(f) == FrameParser::Result::Frame)
            ++frames;
    }
    EXPECT_EQ(frames, 5u);
    EXPECT_FALSE(p.failed());
    EXPECT_FALSE(p.midFrame());
}

TEST(Wire, SplitAtEveryBoundary)
{
    std::vector<uint8_t> wire;
    encodeFrame(wire, FrameType::Data, bytes({1, 2, 3, 4, 5, 6, 7, 8}));
    encodeFrame(wire, FrameType::End);

    for (size_t cut = 0; cut <= wire.size(); ++cut) {
        FrameParser p;
        p.feed(wire.data(), cut);
        Frame f;
        size_t early = 0;
        while (p.next(f) == FrameParser::Result::Frame)
            ++early;
        p.feed(wire.data() + cut, wire.size() - cut);
        while (p.next(f) == FrameParser::Result::Frame)
            ++early;
        EXPECT_EQ(early, 2u) << "split at byte " << cut;
        EXPECT_FALSE(p.failed());
    }
}

TEST(Wire, MidFrameDetectsTruncation)
{
    std::vector<uint8_t> wire;
    encodeFrame(wire, FrameType::Data, bytes({9, 9, 9, 9}));

    FrameParser p;
    p.feed(wire.data(), wire.size() - 1);  // drop the last payload byte
    Frame f;
    EXPECT_EQ(p.next(f), FrameParser::Result::NeedMore);
    EXPECT_TRUE(p.midFrame());  // a close now = truncated stream

    p.feed(wire.data() + wire.size() - 1, 1);
    EXPECT_EQ(p.next(f), FrameParser::Result::Frame);
    EXPECT_FALSE(p.midFrame());
}

// ------------------------------------------------------------ rejection

TEST(Wire, RejectsBadMagic)
{
    FrameParser p;
    EXPECT_EQ(pullAll(p, bytes({0x00, 0x53, 2, 0, 0, 0, 0, 0})),
              FrameParser::Result::Error);
    EXPECT_TRUE(p.failed());
    EXPECT_FALSE(p.error().empty());
}

TEST(Wire, RejectsUnknownFrameType)
{
    FrameParser p;
    EXPECT_EQ(pullAll(p, bytes({0x5A, 0x53, 0x7F, 0, 0, 0, 0, 0})),
              FrameParser::Result::Error);
}

TEST(Wire, RejectsNonZeroFlags)
{
    FrameParser p;
    EXPECT_EQ(pullAll(p, bytes({0x5A, 0x53, 2, 1, 0, 0, 0, 0})),
              FrameParser::Result::Error);
}

TEST(Wire, RejectsOversizedLengthWithoutAllocating)
{
    // Header claims a 16 MiB payload; the parser must reject it from
    // the 8 header bytes alone (the cap defeats hostile allocations).
    FrameParser p;
    EXPECT_EQ(pullAll(p, bytes({0x5A, 0x53, 2, 0, 0, 0, 0, 1})),
              FrameParser::Result::Error);
}

TEST(Wire, ErrorsAreSticky)
{
    FrameParser p;
    pullAll(p, bytes({0xFF, 0xFF, 0, 0, 0, 0, 0, 0}));
    ASSERT_TRUE(p.failed());
    std::string first = p.error();

    // Even a perfectly valid frame afterwards stays rejected.
    std::vector<uint8_t> wire;
    encodeFrame(wire, FrameType::End);
    Frame f;
    p.feed(wire.data(), wire.size());
    EXPECT_EQ(p.next(f), FrameParser::Result::Error);
    EXPECT_EQ(p.error(), first);
}

// ------------------------------------------------------------- fuzzing

TEST(Wire, SeededMutationFuzz)
{
    // A valid multi-frame stream with one byte flipped either still
    // parses (payload mutation) or fails cleanly — never crashes, never
    // yields a frame above the payload cap.
    std::vector<uint8_t> clean;
    encodeHello(clean, 4, 4);
    for (int k = 0; k < 6; ++k) {
        std::vector<uint8_t> payload(16, static_cast<uint8_t>(k));
        encodeFrame(clean, FrameType::Data, payload);
    }
    encodeFrame(clean, FrameType::End);

    Rng rng(0xF00D);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<uint8_t> wire = clean;
        size_t pos = rng.below(wire.size());
        uint8_t flip =
            static_cast<uint8_t>(1u << rng.below(8));
        wire[pos] ^= flip;

        FrameParser p;
        std::vector<Frame> got;
        FrameParser::Result last = pullAll(p, wire, &got);
        EXPECT_NE(last, FrameParser::Result::Frame);
        for (const Frame& f : got) {
            EXPECT_LE(f.payload.size(), kMaxPayload);
        }
        if (last == FrameParser::Result::Error) {
            EXPECT_FALSE(p.error().empty());
        }
    }
}

TEST(Wire, GarbageFuzz)
{
    Rng rng(0xBEEF);
    for (int iter = 0; iter < 200; ++iter) {
        size_t n = 1 + rng.below(512);
        std::vector<uint8_t> wire(n);
        for (auto& b : wire)
            b = static_cast<uint8_t>(rng.next());

        FrameParser p;
        std::vector<Frame> got;
        FrameParser::Result last = pullAll(p, wire, &got);
        EXPECT_NE(last, FrameParser::Result::Frame);
        for (const Frame& f : got)
            EXPECT_LE(f.payload.size(), kMaxPayload);
    }
}

} // namespace
} // namespace serve
} // namespace ziria
