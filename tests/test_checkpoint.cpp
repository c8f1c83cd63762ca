/**
 * @file
 * Checkpoint tests (ctest labels `recovery`, `checkpoint`): the
 * snapshot/restore round-trip totality contract across every
 * combinator shape × {vm, fused, native} × O0/O3, fused <-> native
 * snapshot interchange, the state-io primitives, a WiFi receiver
 * checkpointed mid-packet, and the checkpointed-restart consumer — a
 * supervised restart that resumes from the last frame-boundary
 * snapshot and reproduces the uninterrupted run's output byte for
 * byte.
 *
 * The round-trip contract under test (zexec/snapshot.h): at a
 * quiescent point (the tree parked on NeedInput), restoreSnapshot(
 * takeSnapshot()) must make the tree's future output bit-identical to
 * the snapshotted instance's — including native kernel state (Viterbi
 * path memory, scrambler LFSRs) and fused register/state/channel
 * spaces.
 */
#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel.h"
#include "sora/sora.h"
#include "support/backends.h"
#include "support/drive.h"
#include "support/fault_injector.h"
#include "support/isa_paths.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/shapes.h"
#include "support/state_io.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zexec/faultpoint.h"
#include "zexec/nodes.h"
#include "zexec/snapshot.h"
#include "zfuse/fuse.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;
using testsupport::backendName;
using testsupport::burstBlock;
using testsupport::cells;
using testsupport::driveUpTo;
using testsupport::driveYields;
using testsupport::incBlock;
using testsupport::intBytes;
using testsupport::kAllBackends;
using testsupport::nativeUnavailable;
using testsupport::resetShapes;
using testsupport::Shape;
using testsupport::throwAtBlock;

[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

// ---------------------------------------------------- state-io basics

TEST(StateIo, PrimitivesRoundTrip)
{
    StateWriter w;
    w.u8(7);
    w.u32(0xdeadbeef);
    w.u64(0x1122334455667788ull);
    w.i64(-42);
    w.f64(2.5);
    const uint8_t raw[3] = {1, 2, 3};
    w.blob(raw, sizeof raw);
    std::vector<uint8_t> buf = w.take();

    StateReader r(buf.data(), buf.size());
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x1122334455667788ull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), 2.5);
    std::vector<uint8_t> blob = r.blob();
    EXPECT_EQ(blob, std::vector<uint8_t>(raw, raw + 3));

    // Reading past the end is a format error, not UB.
    EXPECT_THROW(r.u8(), StateFormatError);
}

TEST(StateIo, RestoreRejectsCorruptContainer)
{
    auto p = compilePipeline(resetShapes()[0].make(),
                             CompilerOptions::forLevel(OptLevel::None));
    p->root().start(p->frame());
    auto snap = takeSnapshot(p->root(), p->frame(), cells(*p), 0, 0);
    ASSERT_GE(snap.size(), 8u);

    auto badMagic = snap;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(
        restoreSnapshot(p->root(), p->frame(), cells(*p), badMagic),
        StateFormatError);

    auto truncated = snap;
    truncated.resize(truncated.size() - 1);
    EXPECT_THROW(
        restoreSnapshot(p->root(), p->frame(), cells(*p), truncated),
        StateFormatError);
}

// ------------------------------------- hostile node-state rejection
//
// The node stream arrives over the wire on the zserve migration path,
// so restore() must treat it as untrusted input: stream-derived
// indices, cursors and offsets are bounds-checked against the
// receiving tree and rejected with StateFormatError, never walked off
// a buffer.

void
expectRestoreRejects(ExecNode& n, StateWriter& w)
{
    std::vector<uint8_t> stream = w.take();
    Frame f;
    StateReader r(stream.data(), stream.size());
    EXPECT_THROW(n.restore(f, r), StateFormatError);
}

TEST(HostileCheckpoint, SeqIndexOutOfRange)
{
    std::vector<SeqNode::Item> items;
    items.push_back(SeqNode::Item{
        std::make_unique<EmitNode>(
            [](Frame&, uint8_t* p) { std::memset(p, 0, 4); }, 4),
        -1, 0});
    SeqNode seq(std::move(items));
    StateWriter w;
    w.u64(7);  // active index past the one-item list
    w.u8(0);
    expectRestoreRejects(seq, w);
}

TEST(HostileCheckpoint, TakesCursorOutOfRange)
{
    TakeManyNode tk(4, 3);
    StateWriter w;
    w.u64(7);  // have_ > n_
    expectRestoreRejects(tk, w);
}

TEST(HostileCheckpoint, EmitsCursorOutOfRange)
{
    EmitsNode em([](Frame&, uint8_t* p) { std::memset(p, 0, 8); }, 4, 2);
    StateWriter w;
    w.u8(1);
    w.u64(3);  // next_ > len_
    expectRestoreRejects(em, w);
}

TEST(HostileCheckpoint, PipeControlOriginAndWidth)
{
    PipeNode pipe(std::make_unique<EmitNode>(
                      [](Frame&, uint8_t* p) { std::memset(p, 0, 4); },
                      4),
                  std::make_unique<TakeNode>(4));
    const uint8_t z4[4] = {0, 0, 0, 0};

    StateWriter w;
    w.u8(3);  // control origin is only ever 0/1/2
    expectRestoreRejects(pipe, w);

    StateWriter w2;
    w2.u8(1);      // control from the left child...
    w2.u64(999);   // ...whose ctrl width is 0, not 999
    w2.u8(0);      // left: EmitNode {emitted_, outBuf_}
    w2.bytes(z4, 4);
    w2.u8(0);      // right: TakeNode {pending_, ctrlBuf_}
    w2.bytes(z4, 4);
    expectRestoreRejects(pipe, w2);
}

struct NullKernel : NativeKernel
{
    bool consume(const uint8_t*, Emitter&) override { return false; }
};

TEST(HostileCheckpoint, NativeRingOutOfBounds)
{
    NativeNode n([](Frame&) { return std::make_unique<NullKernel>(); },
                 4, 4, 0, /*is_computer=*/false);
    const uint8_t ring[8] = {0};

    StateWriter w;
    w.u8(0);
    w.u64(5);  // cursor not element-aligned
    w.blob(ring, sizeof ring);
    expectRestoreRejects(n, w);

    StateWriter w2;
    w2.u8(0);
    w2.u64(12);  // aligned but past the 8-byte ring
    w2.blob(ring, sizeof ring);
    expectRestoreRejects(n, w2);
}

void
checkFusedPcAndPointerRejected(Backend be)
{
    SCOPED_TRACE(backendName(be));
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.backend = be;
    std::unique_ptr<Pipeline> p;
    for (const Shape& sh : resetShapes()) {
        auto q = compilePipeline(sh.make(), opt);
        if (dynamic_cast<FusedNode*>(&q->root())) {
            p = std::move(q);
            break;
        }
    }
    ASSERT_TRUE(p) << "no shape lowered to a bare FusedNode root";
    p->root().start(p->frame());
    auto snap = takeSnapshot(p->root(), p->frame(), cells(*p), 0, 0);

    // Walk the container to the fused pc field: 24-byte header, frame
    // image blob, register space, state block, channel pc table.
    auto rdU64 = [&](size_t o) {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(snap[o + i]) << (8 * i);
        return v;
    };
    size_t off = 24;
    off += 8 + rdU64(off);  // frame image
    off += 8 + rdU64(off);  // register space
    off += 8 + rdU64(off);  // state block
    uint64_t nch = rdU64(off);
    off += 8 + nch * 9;     // per-channel {prodPc, consPc, full}
    ASSERT_LE(off + 4, snap.size());

    auto badPc = snap;
    std::fill(badPc.begin() + static_cast<long>(off),
              badPc.begin() + static_cast<long>(off) + 4,
              uint8_t{0xff});
    EXPECT_THROW(
        restoreSnapshot(p->root(), p->frame(), cells(*p), badPc),
        StateFormatError);

    // The out-pointer tag sits after pc (4), spins (8), ctrl width (8):
    // claim a state-block offset far past the block.
    size_t tag = off + 4 + 8 + 8;
    ASSERT_LE(tag + 9, snap.size());
    auto badPtr = snap;
    badPtr[tag] = 1;
    std::fill(badPtr.begin() + static_cast<long>(tag) + 1,
              badPtr.begin() + static_cast<long>(tag) + 9,
              uint8_t{0xff});
    EXPECT_THROW(
        restoreSnapshot(p->root(), p->frame(), cells(*p), badPtr),
        StateFormatError);
}

TEST(HostileCheckpoint, FusedPcAndPointerOutOfRange)
{
    checkFusedPcAndPointerRejected(Backend::Fused);
    if (nativeUnavailable(Backend::Native))
        GTEST_SKIP() << "no C++ compiler on this host";
    checkFusedPcAndPointerRejected(Backend::Native);
}

// ------------------------------------------- round-trip totality

TEST(SnapshotRoundTrip, AllShapesAcrossBackendsAndOptLevels)
{
    for (const Shape& sh : resetShapes()) {
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            for (Backend be : kAllBackends) {
                if (nativeUnavailable(be))
                    continue;
                SCOPED_TRACE(std::string(sh.name) + " at OptLevel " +
                             (lvl == OptLevel::None ? "None" : "All") +
                             ", " + backendName(be));
                CompilerOptions opt = CompilerOptions::forLevel(lvl);
                opt.backend = be;
                auto p = compilePipeline(sh.make(), opt);

                ASSERT_EQ(p->inWidth() % 4, 0u);
                std::vector<int32_t> in(24 * (p->inWidth() / 4));
                for (size_t i = 0; i < in.size(); ++i)
                    in[i] = static_cast<int32_t>(i);
                auto bytes = intBytes(in);

                // Run to the 5-element park, snapshot there, then
                // drive the ORIGINAL instance to the end: that tail is
                // the ground truth the restored instance must match.
                auto head = driveUpTo(*p, bytes, 0, 5, /*init=*/true);
                auto snap = takeSnapshot(p->root(), p->frame(),
                                         cells(*p), head.consumed, 0);
                auto want = driveUpTo(*p, bytes, head.consumed,
                                      SIZE_MAX, /*init=*/false);

                // The tree is now dirty (run to completion); restore
                // must rewind it to the park without a start().
                SnapshotInfo info =
                    restoreSnapshot(p->root(), p->frame(), cells(*p),
                                    snap);
                EXPECT_EQ(info.consumed, head.consumed);
                auto got = driveUpTo(*p, bytes, head.consumed,
                                     SIZE_MAX, /*init=*/false);
                EXPECT_EQ(got.out, want.out)
                    << "restored continuation diverged";
                EXPECT_EQ(got.consumed, want.consumed);
                EXPECT_EQ(got.done, want.done);
            }
        }
    }
}

TEST(SnapshotRoundTrip, RestoreIsRepeatable)
{
    // One snapshot, two restores: the image must not be consumed or
    // mutated by restoring it (a drain replay may restore twice).
    const Shape& sh = resetShapes()[10];  // letvar-accumulator
    auto p = compilePipeline(sh.make(),
                             CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(24);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);

    auto head = driveUpTo(*p, bytes, 0, 7, true);
    auto snap =
        takeSnapshot(p->root(), p->frame(), cells(*p), head.consumed, 0);
    auto want = driveUpTo(*p, bytes, head.consumed, SIZE_MAX, false);

    for (int round = 0; round < 2; ++round) {
        restoreSnapshot(p->root(), p->frame(), cells(*p), snap);
        auto got = driveUpTo(*p, bytes, head.consumed, SIZE_MAX, false);
        EXPECT_EQ(got.out, want.out) << "round " << round;
    }
}

TEST(SnapshotRoundTrip, FusedAndNativeSnapshotsInterchange)
{
    // Fused and native regions are the same FusedNode state machine
    // over the same state, run by the interpreter or by compiled code,
    // so a snapshot taken under one engine restores into the other (a
    // session can migrate between a compiler-less host and a native
    // one).  Restore must also write into the node's existing buffers:
    // bound compiled code reaches them through the node's ZrCtx.
    if (nativeUnavailable(Backend::Native))
        GTEST_SKIP() << "no C++ compiler on this host";
    for (const Shape& sh : resetShapes()) {
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            for (Backend from : {Backend::Fused, Backend::Native}) {
                const Backend to = from == Backend::Fused
                    ? Backend::Native
                    : Backend::Fused;
                SCOPED_TRACE(std::string(sh.name) + " at OptLevel " +
                             (lvl == OptLevel::None ? "None" : "All") +
                             ", " + backendName(from) + " -> " +
                             backendName(to));
                auto compile = [&](Backend be) {
                    CompilerOptions opt = CompilerOptions::forLevel(lvl);
                    opt.backend = be;
                    CompileReport rep;
                    auto p = compilePipeline(sh.make(), opt, &rep);
                    EXPECT_EQ(rep.cgen.fallbacks, 0);
                    return p;
                };
                auto src = compile(from);
                auto dst = compile(to);
                auto ref = compile(to);

                std::vector<int32_t> in(24 * (src->inWidth() / 4));
                for (size_t i = 0; i < in.size(); ++i)
                    in[i] = static_cast<int32_t>(i);
                auto bytes = intBytes(in);
                auto whole = driveUpTo(*ref, bytes, 0, SIZE_MAX, true);

                auto head = driveUpTo(*src, bytes, 0, 5, /*init=*/true);
                auto snap = takeSnapshot(src->root(), src->frame(),
                                         cells(*src), head.consumed, 0);
                // Dirty the target first: restore alone must rebuild it.
                driveUpTo(*dst, bytes, 0, SIZE_MAX, /*init=*/true);
                restoreSnapshot(dst->root(), dst->frame(), cells(*dst),
                                snap);
                auto got = driveUpTo(*dst, bytes, head.consumed,
                                     SIZE_MAX, /*init=*/false);

                std::vector<uint8_t> joined = head.out;
                joined.insert(joined.end(), got.out.begin(),
                              got.out.end());
                EXPECT_EQ(joined, whole.out)
                    << "restored continuation diverged from an "
                       "uninterrupted run";
                EXPECT_EQ(head.consumed + got.consumed, whole.consumed);
                EXPECT_EQ(got.done, whole.done);
            }
        }
    }
}

TEST(SnapshotRoundTrip, KernelRingSurvivesBetweenYields)
{
    // burst emits two elements for every third input, so stopping right
    // after the first of them leaves the second buffered in the kernel's
    // output ring.  Snapshot after each of the first yields (several of
    // them mid-burst), restore into a dirtied instance of the same or
    // the other region engine, and the continuation must match an
    // uninterrupted run.
    auto make = [] { return pipe(incBlock(1), burstBlock()); };
    std::vector<int32_t> in(24);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    auto compile = [&](Backend be) {
        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.backend = be;
        return compilePipeline(make(), opt);
    };
    const std::pair<Backend, Backend> moves[] = {
        {Backend::Vm, Backend::Vm},
        {Backend::Fused, Backend::Fused},
        {Backend::Fused, Backend::Native},
        {Backend::Native, Backend::Fused},
        {Backend::Native, Backend::Native},
    };
    for (const auto& [from, to] : moves) {
        if (nativeUnavailable(from) || nativeUnavailable(to))
            continue;
        auto ref = compile(to);
        auto whole = driveUpTo(*ref, bytes, 0, SIZE_MAX, true);
        for (size_t k = 1; k <= 8; ++k) {
            SCOPED_TRACE(std::string(backendName(from)) + " -> " +
                         backendName(to) + " after yield " +
                         std::to_string(k));
            auto src = compile(from);
            auto head = driveYields(*src, bytes, k);
            ASSERT_FALSE(head.done);
            auto snap = takeSnapshot(src->root(), src->frame(),
                                     cells(*src), head.consumed, k);

            auto dst = compile(to);
            driveUpTo(*dst, bytes, 0, SIZE_MAX, /*init=*/true);
            restoreSnapshot(dst->root(), dst->frame(), cells(*dst), snap);
            auto got = driveUpTo(*dst, bytes, head.consumed, SIZE_MAX,
                                 /*init=*/false);
            head.out.insert(head.out.end(), got.out.begin(),
                            got.out.end());
            EXPECT_EQ(head.out, whole.out);
        }
    }
}

// ---------------------------------- checkpoints from an earlier build
//
// tests/data/ckpt/*.zck were written by the build before native kernels
// joined fused regions: each program below compiled at --opt none on
// the backend in the file name, started, fed inputs 1, 4, 7, ... (3i+1)
// until parked on NeedInput after 20 of them, and snapshotted with
// consumed = emitted = 20.

CompPtr
fixtureKernelFree()
{
    VarRef acc = freshVar("acc", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    return pipe(incBlock(1),
                letvar(acc, cInt(0),
                       repeatc(seqc({bindc(x, take(Type::int32())),
                                     just(doS({assign(var(acc),
                                                      var(acc) + var(x))})),
                                     just(emit(var(acc)))}))));
}

CompPtr
fixtureWithKernel()
{
    return pipe(incBlock(1), throwAtBlock(uint64_t(1) << 62));
}

std::vector<uint8_t>
readFixture(const std::string& name)
{
    std::ifstream f(std::string(ZIRIA_TEST_DATA_DIR "/ckpt/") + name,
                    std::ios::binary);
    EXPECT_TRUE(f.good()) << "missing fixture " << name;
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
}

/**
 * Restore fixture @p name into a fresh @p make() on @p be: the image is
 * exactly what this build writes for the restored state, and the run
 * continues as an uninterrupted one would.
 */
void
expectFixtureRestores(const std::string& name,
                      const std::function<CompPtr()>& make, Backend be)
{
    SCOPED_TRACE(name);
    auto img = readFixture(name);
    ASSERT_FALSE(img.empty());
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.backend = be;
    std::vector<int32_t> in(64);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i * 3 + 1);
    auto bytes = intBytes(in);
    auto ref = compilePipeline(make(), opt);
    auto whole = driveUpTo(*ref, bytes, 0, SIZE_MAX, true);

    auto p = compilePipeline(make(), opt);
    SnapshotInfo info =
        restoreSnapshot(p->root(), p->frame(), cells(*p), img);
    ASSERT_EQ(info.consumed, 20u);
    ASSERT_EQ(info.emitted, 20u);
    EXPECT_EQ(takeSnapshot(p->root(), p->frame(), cells(*p),
                           info.consumed, info.emitted),
              img);
    auto got = driveUpTo(*p, bytes, info.consumed, SIZE_MAX, false);
    ASSERT_GE(whole.out.size(), info.emitted * 4);
    EXPECT_EQ(got.out, std::vector<uint8_t>(
                           whole.out.begin() +
                               static_cast<long>(info.emitted * 4),
                           whole.out.end()));
}

/** The fixtures restore the same way on every kernel path. */
class SnapshotFixtures : public IsaPinned
{
};

TEST_P(SnapshotFixtures, KernelFreeImagesRestoreByteIdentically)
{
    // A kernel-free region appends nothing to its image, so images from
    // before kernels joined regions still restore on every backend.
    for (Backend be : kAllBackends) {
        if (nativeUnavailable(be))
            continue;
        expectFixtureRestores(
            std::string("kernel_free.") + backendName(be) + ".zck",
            fixtureKernelFree, be);
    }
}

TEST_P(SnapshotFixtures, KernelProgramVmImageRestoresFusedImageIsRefused)
{
    // The VM tree is unchanged, so its image still restores.  The fused
    // image describes a VM pipe spine over a region and a NativeNode;
    // the program is one region now, so restore refuses it loudly.
    expectFixtureRestores("kernel.vm.zck", fixtureWithKernel, Backend::Vm);

    auto img = readFixture("kernel.fused.zck");
    ASSERT_FALSE(img.empty());
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.backend = Backend::Fused;
    auto p = compilePipeline(fixtureWithKernel(), opt);
    EXPECT_THROW(restoreSnapshot(p->root(), p->frame(), cells(*p), img),
                 StateFormatError);
}

INSTANTIATE_TEST_SUITE_P(Paths, SnapshotFixtures, allIsas(), isaTestName);

// --------------------------------------------- WiFi RX mid-packet

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

bool
containsBytes(const std::vector<uint8_t>& hay,
              const std::vector<uint8_t>& needle)
{
    return std::search(hay.begin(), hay.end(), needle.begin(),
                       needle.end()) != hay.end();
}

TEST(SnapshotRoundTrip, WifiRxMidPacketCheckpointDecodesThePacket)
{
    // Checkpoint the full receiver ~140 samples INTO packet 1 — with
    // live channel-estimate, demapper and Viterbi path-memory state —
    // and prove the restored instance still decodes packet 1 (whose
    // decode spans the checkpoint) and packet 2, byte-identically to
    // the uninterrupted continuation.
    using namespace wifi;
    auto payload1 = randomBytes(40, 91);
    auto payload2 = randomBytes(40, 92);
    auto tx1 = sora::txFrame(payload1, Rate::R12);
    auto tx2 = sora::txFrame(payload2, Rate::R12);

    std::vector<Complex16> stream;
    stream.insert(stream.end(), 300, Complex16{0, 0});
    stream.insert(stream.end(), tx1.begin(), tx1.end());
    stream.insert(stream.end(), 3000, Complex16{0, 0});
    stream.insert(stream.end(), tx2.begin(), tx2.end());
    stream.insert(stream.end(), 300, Complex16{0, 0});

    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.seed = 93;
    auto rxSamples = channel::applyChannel(stream, cfg);
    std::vector<uint8_t> sampBytes(rxSamples.size() * 4);
    std::memcpy(sampBytes.data(), rxSamples.data(), sampBytes.size());

    auto rx = compilePipeline(wifiReceiverLoopComp(),
                              CompilerOptions::forLevel(OptLevel::None));
    ASSERT_EQ(rx->inWidth(), 4u);  // one Complex16 sample per element

    auto head = driveUpTo(*rx, sampBytes, 0, 600, true);
    auto snap =
        takeSnapshot(rx->root(), rx->frame(), cells(*rx), head.consumed,
                     0);
    auto want = driveUpTo(*rx, sampBytes, head.consumed, SIZE_MAX,
                          false);

    restoreSnapshot(rx->root(), rx->frame(), cells(*rx), snap);
    auto got = driveUpTo(*rx, sampBytes, head.consumed, SIZE_MAX,
                         false);
    EXPECT_EQ(got.out, want.out);

    std::vector<uint8_t> bits = head.out;
    bits.insert(bits.end(), got.out.begin(), got.out.end());
    auto bytes = bitsToBytes(bits);
    EXPECT_TRUE(containsBytes(bytes, payload1))
        << "the packet whose decode spans the checkpoint was lost";
    EXPECT_TRUE(containsBytes(bytes, payload2));
}

// ------------------------------------------- checkpointed restart

void
checkCheckpointedRestart(Backend be, OptLevel lvl)
{
    SCOPED_TRACE(std::string(backendName(be)) + " at OptLevel " +
                 (lvl == OptLevel::None ? "None" : "All"));
    const Shape& sh = resetShapes()[10];  // letvar-accumulator
    ASSERT_STREQ(sh.name, "letvar-accumulator");

    auto clean = compilePipeline(sh.make(),
                                 CompilerOptions::forLevel(lvl));
    std::vector<int32_t> in(50 * (clean->inWidth() / 4));
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i + 1);
    auto bytes = intBytes(in);
    auto expect = clean->runBytes(bytes);

    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = be;
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    opt.checkpoint.interval = 4;
    auto p = compilePipeline(sh.make(), opt);
    // Every backend must agree on the compiled element width for the
    // clean run above to be the right oracle.
    ASSERT_EQ(p->inWidth(), clean->inWidth());

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();
    uint64_t snaps0 = reg.counter("ziria.ckpt.snapshots").value();
    uint64_t restores0 = reg.counter("ziria.ckpt.restores").value();

    MemSource mem(bytes, p->inWidth());
    FaultySource src(mem, FaultSpec::parse("throw@10"));
    VecSink sink(p->outWidth());
    ASSERT_NO_THROW(p->run(src, sink));

    EXPECT_EQ(sink.data(), expect)
        << "checkpointed restart is not byte-identical to the "
           "uninterrupted run";
    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 1);
    EXPECT_EQ(reg.counter("ziria.ckpt.restores").value(),
              restores0 + 1);
    EXPECT_GT(reg.counter("ziria.ckpt.snapshots").value(), snaps0);
    EXPECT_EQ(src.fired(), 1u);
}

TEST(CheckpointedRestart, ByteIdenticalAfterFaultVm)
{
    checkCheckpointedRestart(Backend::Vm, OptLevel::None);
    checkCheckpointedRestart(Backend::Vm, OptLevel::All);
}

TEST(CheckpointedRestart, ByteIdenticalAfterFaultFused)
{
    checkCheckpointedRestart(Backend::Fused, OptLevel::None);
    checkCheckpointedRestart(Backend::Fused, OptLevel::All);
}

TEST(CheckpointedRestart, ByteIdenticalAfterFaultNative)
{
    if (nativeUnavailable(Backend::Native))
        GTEST_SKIP() << "no C++ compiler on this host";
    checkCheckpointedRestart(Backend::Native, OptLevel::None);
    checkCheckpointedRestart(Backend::Native, OptLevel::All);
}

TEST(CheckpointedRestart, PlainRestartDivergesOnStatefulPipelines)
{
    // The motivating contrast: WITHOUT a checkpoint interval, a
    // restart resets the accumulator to zero and the tail of the
    // output provably differs — the behavior checkpointing fixes.
    const Shape& sh = resetShapes()[10];
    auto clean = compilePipeline(sh.make(),
                                 CompilerOptions::forLevel(
                                     OptLevel::None));
    std::vector<int32_t> in(50);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i + 1);
    auto bytes = intBytes(in);
    auto expect = clean->runBytes(bytes);

    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    auto p = compilePipeline(sh.make(), opt);

    MemSource mem(bytes, p->inWidth());
    FaultySource src(mem, FaultSpec::parse("throw@10"));
    VecSink sink(p->outWidth());
    ASSERT_NO_THROW(p->run(src, sink));
    EXPECT_NE(sink.data(), expect);
}

TEST(CheckpointedRestart, SurvivesTwoFaultsInOneRun)
{
    // A second fault during/after journal replay must restore again
    // from the same boundary and still converge byte-identically.
    const Shape& sh = resetShapes()[10];
    auto clean = compilePipeline(sh.make(),
                                 CompilerOptions::forLevel(
                                     OptLevel::None));
    std::vector<int32_t> in(50);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i + 1);
    auto bytes = intBytes(in);
    auto expect = clean->runBytes(bytes);

    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    opt.checkpoint.interval = 8;
    auto p = compilePipeline(sh.make(), opt);

    MemSource mem(bytes, p->inWidth());
    FaultySource src(mem, FaultSpec::parse("throw@10:2"));
    VecSink sink(p->outWidth());
    ASSERT_NO_THROW(p->run(src, sink));
    EXPECT_EQ(sink.data(), expect);
    EXPECT_EQ(src.fired(), 2u);
}

} // namespace
} // namespace ziria
