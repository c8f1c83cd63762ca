/**
 * @file
 * Tests for the auto-map pass, map fusion, and end-to-end auto-LUT —
 * including the paper's Figure 3 synergy: vectorize -> auto-map ->
 * auto-LUT on a scrambler.
 */
#include <gtest/gtest.h>

#include "support/backends.h"
#include "support/drive.h"
#include "support/rng.h"
#include "zast/builder.h"
#include "zcheck/check.h"
#include "zexec/snapshot.h"
#include "zir/compiler.h"
#include "zopt/autolut.h"
#include "zopt/passes.h"

namespace ziria {
namespace {

using namespace zb;

// The return-shape matrix below runs native cells; keep their compiles
// in a private cache directory.
[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

CompPtr
incThenDouble()
{
    VarRef x = freshVar("x", Type::int32());
    CompPtr inc = repeatc(seqc({bindc(x, take(Type::int32())),
                                just(emit(var(x) + 1))}));
    VarRef y = freshVar("y", Type::int32());
    CompPtr dbl = repeatc(seqc({bindc(y, take(Type::int32())),
                                just(emit(var(y) * 2))}));
    return pipe(std::move(inc), std::move(dbl));
}

std::vector<uint8_t>
intsBytes(int n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> xs(n);
    for (auto& x : xs)
        x = static_cast<int32_t>(rng.next());
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

TEST(AutoMap, ConvertsRepeatTakeEmit)
{
    CompPtr c = elaborateComp(incThenDouble());
    checkComp(c);
    MapStats ms;
    CompPtr mapped = autoMapComp(c, &ms);
    EXPECT_EQ(ms.autoMapped, 2);
    // After fusion the pipe collapses to a single map.
    checkComp(mapped);
    MapStats fs;
    CompPtr fused = fuseMaps(mapped, &fs);
    EXPECT_EQ(fs.fused, 1);
    EXPECT_EQ(fused->kind(), CompKind::Map);
}

TEST(AutoMap, PreservesSemantics)
{
    auto input = intsBytes(500, 9);
    auto plain = compilePipeline(
        incThenDouble(), CompilerOptions::forLevel(OptLevel::None));
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.autoMap = true;
    opt.fuse = true;
    auto mapped = compilePipeline(incThenDouble(), opt);
    EXPECT_EQ(plain->runBytes(input), mapped->runBytes(input));
}

TEST(AutoMap, StatefulKernelKeepsStateAcrossElements)
{
    auto mk = []() -> CompPtr {
        VarRef s = freshVar("s", Type::int32());
        VarRef x = freshVar("x", Type::int32());
        return letvar(
            s, cInt(0),
            repeatc(seqc({bindc(x, take(Type::int32())),
                          just(doS({assign(var(s), var(s) + var(x))})),
                          just(emit(var(s)))})));
    };
    auto input = intsBytes(300, 11);
    auto plain = compilePipeline(
        mk(), CompilerOptions::forLevel(OptLevel::None));
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.autoMap = true;
    auto mapped = compilePipeline(mk(), opt);
    EXPECT_EQ(plain->runBytes(input), mapped->runBytes(input));
}

TEST(AutoMap, DoAfterEmitIsStagedCorrectly)
{
    // emit uses the state *before* the trailing update.
    auto mk = []() -> CompPtr {
        VarRef s = freshVar("s", Type::int32());
        VarRef x = freshVar("x", Type::int32());
        return letvar(
            s, cInt(100),
            repeatc(seqc({bindc(x, take(Type::int32())),
                          just(emit(var(s) + var(x))),
                          just(doS({assign(var(s),
                                           var(s) + 1)}))})));
    };
    auto input = intsBytes(50, 13);
    auto plain = compilePipeline(
        mk(), CompilerOptions::forLevel(OptLevel::None));
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.autoMap = true;
    MapStats ms;
    CompPtr mapped = autoMapComp(foldComp(elaborateComp(mk())), &ms);
    EXPECT_EQ(ms.autoMapped, 1);
    auto mappedP = compilePipeline(mk(), opt);
    EXPECT_EQ(plain->runBytes(input), mappedP->runBytes(input));
}

/** Scrambler-like block used for the Figure 3 chain. */
CompPtr
scramblerLike()
{
    VarRef st = freshVar("scrmbl_st", Type::array(Type::bit(), 7));
    VarRef x = freshVar("x", Type::bit());
    VarRef tmp = freshVar("tmp", Type::bit());
    return letvar(
        st, bitArrayLit({1, 1, 1, 1, 1, 1, 1}),
        repeatc(seqc(
            {bindc(x, take(Type::bit())),
             just(doS({sDecl(tmp, idx(var(st), 3) ^ idx(var(st), 0)),
                       assign(slice(var(st), 0, 6),
                              slice(var(st), 1, 6)),
                       assign(idx(var(st), 6), var(tmp))})),
             just(emit(var(x) ^ var(tmp)))})));
}

TEST(Figure3, VectorizeAutoMapAutoLutChain)
{
    // The paper's showcase: the vectorized scrambler auto-maps into a
    // kernel of 8 input bits + 7 state bits and LUTs into 2^15 entries.
    Rng rng(77);
    std::vector<uint8_t> input(4096);
    for (auto& b : input)
        b = rng.bit();

    auto plain = compilePipeline(
        scramblerLike(), CompilerOptions::forLevel(OptLevel::None));
    auto expect = plain->runBytes(input);

    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vect.maxScale = 8;  // force the classic 8-bit grouping
    CompileReport rep;
    auto optd = compilePipeline(scramblerLike(), all, &rep);
    EXPECT_EQ(optd->runBytes(input), expect);
    EXPECT_GE(rep.maps.autoMapped, 1);
    EXPECT_GE(rep.build.lutsBuilt, 1) << "scrambler kernel did not LUT";
}

TEST(Figure3, LutKeyIsInputPlusState)
{
    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vect.maxScale = 8;
    CompileReport rep;
    auto p = compilePipeline(scramblerLike(), all, &rep);
    (void)p;
    ASSERT_GE(rep.build.lutsBuilt, 1);
    // 8 input bits + 7 state bits = 2^15 entries; each entry holds the
    // packed 8-bit output and the packed 7-bit state.
    EXPECT_EQ(rep.build.lutBytes, (size_t{1} << 15) * 2);
}

TEST(AutoLut, DisabledByNoLutAnnotation)
{
    VarRef x = freshVar("x", Type::array(Type::bit(), 8));
    std::vector<ExprPtr> outs;
    for (int i = 0; i < 8; ++i)
        outs.push_back(idx(var(x), 7 - i));
    auto f = std::const_pointer_cast<FunDef>(
        fun("revbits", {x}, {}, arrayLit(std::move(outs))));
    f->noLut = true;

    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vectorize = false;
    all.autoMap = false;
    CompileReport rep;
    auto p = compilePipeline(mapc(f), all, &rep);
    (void)p;
    EXPECT_EQ(rep.build.lutsBuilt, 0);
}

TEST(AutoLut, PureMapKernelLuts)
{
    VarRef x = freshVar("x", Type::array(Type::bit(), 8));
    std::vector<ExprPtr> outs;
    for (int i = 0; i < 8; ++i)
        outs.push_back(idx(var(x), 7 - i));
    FunRef f = fun("revbits", {x}, {}, arrayLit(std::move(outs)));

    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vectorize = false;
    all.autoMap = false;
    CompileReport rep;
    auto p = compilePipeline(mapc(f), all, &rep);
    EXPECT_EQ(rep.build.lutsBuilt, 1);

    Rng rng(5);
    std::vector<uint8_t> input(160);
    for (auto& b : input)
        b = rng.bit();
    auto noLut = CompilerOptions::forLevel(OptLevel::None);
    VarRef x2 = freshVar("x", Type::array(Type::bit(), 8));
    std::vector<ExprPtr> outs2;
    for (int i = 0; i < 8; ++i)
        outs2.push_back(idx(var(x2), 7 - i));
    FunRef f2 = fun("revbits", {x2}, {}, arrayLit(std::move(outs2)));
    auto q = compilePipeline(mapc(f2), noLut);
    EXPECT_EQ(p->runBytes(input), q->runBytes(input));
}

TEST(AutoMap, SingleElementTakesKeepsInputWired)
{
    // Regression: `bind a <- takes(bit, 1)` normalizes to a take whose
    // destination is the lvalue a[0] rather than a bind variable.
    // Auto-map used to drop that connection, leaving the kernel reading
    // a zero-initialized scratch array, so unvectorized auto-map runs
    // emitted a constant stream.  (Vectorized compiles masked the bug
    // because the vectorizer rewrites takes-into binds first.)
    auto mkStage = [] {
        VarRef st = freshVar("st", Type::bit());
        VarRef a = freshVar("a", Type::array(Type::bit(), 1));
        std::vector<SeqComp::Item> items;
        items.push_back(bindc(a, takes(Type::bit(), 1)));
        StmtList upd;
        upd.push_back(assign(var(st), var(st) ^ idx(var(a), 0)));
        items.push_back(just(doS(std::move(upd))));
        items.push_back(
            just(emits(arrayLit({idx(var(a), 0) ^ var(st)}))));
        return letvar(st, cBit(0), repeatc(seqc(std::move(items))));
    };
    Rng rng(31);
    std::vector<uint8_t> input(96);
    for (auto& b : input)
        b = rng.bit();
    auto base = compilePipeline(mkStage(),
                                CompilerOptions::forLevel(OptLevel::None))
                    ->runBytes(input);
    CompilerOptions amapOnly = CompilerOptions::forLevel(OptLevel::None);
    amapOnly.autoMap = true;
    CompileReport rep;
    auto p = compilePipeline(mkStage(), amapOnly, &rep);
    EXPECT_EQ(rep.maps.autoMapped, 1);
    EXPECT_EQ(p->runBytes(input), base);
}

TEST(Fusion, LongMapChainCollapses)
{
    CompPtr c = nullptr;
    for (int i = 0; i < 6; ++i) {
        VarRef x = freshVar("x", Type::int32());
        FunRef f = fun("inc" + std::to_string(i), {x}, {}, var(x) + 1);
        CompPtr m = mapc(f);
        c = c ? pipe(std::move(c), std::move(m)) : m;
    }
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.fuse = true;
    CompileReport rep;
    auto p = compilePipeline(c, opt, &rep);
    EXPECT_EQ(rep.maps.fused, 5);
    auto input = intsBytes(100, 21);
    std::vector<int32_t> in(100);
    std::memcpy(in.data(), input.data(), 400);
    auto out = p->runBytes(input);
    std::vector<int32_t> got(100);
    std::memcpy(got.data(), out.data(), 400);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(got[i], in[i] + 6);
}

// --------------------------------------------- LUT return-value shapes

/** A map kernel over `arr[keyLen] bit`, optionally with a bit of state. */
struct LutKernel
{
    FunRef f;
    VarRef st;  ///< captured state (read and written), or null
};

VarRef
keyParam(int len)
{
    return freshVar("x", Type::array(Type::bit(), len));
}

LutKernel
bitKernel()
{
    // bit return plus one state bit: the bit return path next to the
    // state fast path.
    VarRef x = keyParam(6);
    VarRef st = freshVar("st", Type::bit());
    StmtList body;
    body.push_back(assign(var(st), idx(var(x), 1) ^ var(st)));
    ExprPtr r = (idx(var(x), 0) ^ var(st)) & (idx(var(x), 5) | idx(var(x), 2));
    return {fun("retbit", {x}, std::move(body), std::move(r)), st};
}

LutKernel
bitArrayKernel()
{
    VarRef x = keyParam(8);
    std::vector<ExprPtr> outs;
    for (int i = 0; i < 8; ++i)
        outs.push_back(idx(var(x), 7 - i) ^ idx(var(x), (i * 3) % 8));
    return {fun("retbits", {x}, {}, arrayLit(std::move(outs))), nullptr};
}

/** Signed integer sum_i x[i] << i of @p n key bits, as @p t. */
ExprPtr
weightedBits(const VarRef& x, int n, const TypePtr& t)
{
    ExprPtr e = cast(t, idx(var(x), 0));
    for (int i = 1; i < n; ++i)
        e = e + (cast(t, idx(var(x), i)) << i);
    return e;
}

LutKernel
int16Kernel()
{
    VarRef x = keyParam(10);
    ExprPtr r = weightedBits(x, 10, Type::int16()) * 7 - 2000;
    return {fun("retint16", {x}, {}, std::move(r)), nullptr};
}

LutKernel
int16StateKernel()
{
    // int16 return plus one state bit: the copy return path next to the
    // state fast path, so a snapshot between two lookups must carry the
    // bit the table wrote.
    VarRef x = keyParam(9);
    VarRef st = freshVar("st", Type::bit());
    StmtList body;
    body.push_back(assign(var(st), idx(var(x), 4) ^ var(st)));
    ExprPtr r = weightedBits(x, 9, Type::int16()) * 5 -
                cast(Type::int16(), var(st)) * 700;
    return {fun("retint16st", {x}, std::move(body), std::move(r)), st};
}

LutKernel
complexArrayKernel()
{
    // The 802.11 modulator's shape: 12 key bits -> arr[12] complex16.
    VarRef x = keyParam(12);
    std::vector<ExprPtr> outs;
    for (int i = 0; i < 12; ++i) {
        outs.push_back(cond(idx(var(x), i) == cBit(1),
                            cC16(181, static_cast<int16_t>(-i)),
                            cC16(-181, static_cast<int16_t>(i * 1000))));
    }
    return {fun("retc16", {x}, {}, arrayLit(std::move(outs))), nullptr};
}

LutKernel
mixedStructKernel()
{
    // {bit, int8}: the bit leaf packs to one bit, so the int8 after it
    // is not byte-aligned and only the generic unpacker places it.
    VarRef x = keyParam(8);
    TypePtr t = Type::strct("BitByte", {{"flag", Type::bit()},
                                        {"val", Type::int8()}});
    ExprPtr r = structLit(t, {idx(var(x), 0) ^ idx(var(x), 7),
                              weightedBits(x, 8, Type::int8())});
    return {fun("retmixed", {x}, {}, std::move(r)), nullptr};
}

struct ReturnShape
{
    const char* name;
    LutKernel (*make)();
    CompiledLut::RetPath path;
    int hostBridges;  ///< native: the lookup calls back to the host
};

void
PrintTo(const ReturnShape& shape, std::ostream* os)
{
    *os << shape.name;
}

class LutReturnShape : public ::testing::TestWithParam<ReturnShape>
{
};

TEST_P(LutReturnShape, ApplyMatchesKernelForEveryKey)
{
    const ReturnShape& shape = GetParam();
    LutKernel k = shape.make();
    FrameLayout layout;
    ExprCompiler ec(layout);
    CompiledKernel ck = ec.compileKernel(k.f);
    auto lut = tryBuildMapLut(k.f, ck, ec, LutLimits{});
    ASSERT_TRUE(lut) << shape.name << " did not LUT";
    EXPECT_EQ(lut->retPath(), shape.path);

    const int len = k.f->params[0]->type->len();
    const size_t xOff = ck.paramOffsets[0];
    const size_t stOff = k.st ? layout.offsetOf(k.st.get()) : 0;
    ASSERT_EQ(lut->keyBits(), len + (k.st ? 1 : 0));
    Frame direct(layout.frameSize()), viaLut(layout.frameSize());
    std::vector<uint8_t> want(ck.retWidth), got(ck.retWidth);
    for (size_t key = 0; key < lut->entries(); ++key) {
        for (Frame* fr : {&direct, &viaLut}) {
            for (int i = 0; i < len; ++i)
                *fr->at(xOff + i) = (key >> i) & 1;
            if (k.st)
                *fr->at(stOff) = (key >> len) & 1;
        }
        ck.body(direct);
        ck.retInto(direct, want.data());
        std::fill(got.begin(), got.end(), 0xA5);
        lut->apply(viaLut, got.data());
        ASSERT_EQ(want, got) << shape.name << " key " << key;
        if (k.st) {
            ASSERT_EQ(*direct.at(stOff), *viaLut.at(stOff))
                << shape.name << " state, key " << key;
        }
    }
}

/** The shape's kernel as a map, its state bit (if any) a letvar. */
CompPtr
lutProgram(const ReturnShape& shape)
{
    LutKernel k = shape.make();
    CompPtr m = mapc(k.f);
    return k.st ? letvar(k.st, cBit(0), std::move(m)) : m;
}

/** One LUT and nothing else: auto-LUT on, vectorize/auto-map off. */
CompilerOptions
lutOnly(Backend b)
{
    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vectorize = false;
    all.autoMap = false;
    all.backend = b;
    return all;
}

std::vector<uint8_t>
lutInput(const ReturnShape& shape)
{
    const int len = shape.make().f->params[0]->type->len();
    Rng rng(91);
    std::vector<uint8_t> input(static_cast<size_t>(len) * 300);
    for (auto& b : input)
        b = rng.bit();
    return input;
}

TEST_P(LutReturnShape, BackendsAgreeByteForByte)
{
    const ReturnShape& shape = GetParam();
    const std::vector<uint8_t> input = lutInput(shape);
    const std::vector<uint8_t> expect =
        compilePipeline(lutProgram(shape),
                        CompilerOptions::forLevel(OptLevel::None))
            ->runBytes(input);

    for (Backend b : testsupport::kAllBackends) {
        if (testsupport::nativeUnavailable(b))
            continue;
        CompileReport rep;
        auto p = compilePipeline(lutProgram(shape), lutOnly(b), &rep);
        EXPECT_EQ(rep.build.lutsBuilt, 1) << testsupport::backendName(b);
        if (b == Backend::Native) {
            // The whole map is one compiled region; only a generic
            // return shape still calls the host for its lookup.
            EXPECT_EQ(rep.cgen.emitted, 1);
            EXPECT_EQ(rep.cgen.fallbacks, 0);
            EXPECT_EQ(rep.cgen.hostBridges, shape.hostBridges);
        }
        EXPECT_EQ(p->runBytes(input), expect)
            << shape.name << " on " << testsupport::backendName(b);
    }
}

TEST_P(LutReturnShape, SnapshotsInterchangeFusedAndNative)
{
    // Snapshot between two lookups under one region engine, restore
    // under the other (its lookups inlined in compiled code, or the
    // interpreter's apply()): the state bits the table wrote carry over
    // and the joined output is the VM's bytes.
    const ReturnShape& shape = GetParam();
    if (testsupport::nativeUnavailable(Backend::Native))
        GTEST_SKIP() << "no C++ compiler on this host";
    const std::vector<uint8_t> input = lutInput(shape);
    const std::vector<uint8_t> expect =
        compilePipeline(lutProgram(shape),
                        CompilerOptions::forLevel(OptLevel::None))
            ->runBytes(input);

    for (Backend from : {Backend::Fused, Backend::Native}) {
        const Backend to =
            from == Backend::Fused ? Backend::Native : Backend::Fused;
        for (size_t k : {1, 5, 17}) {
            SCOPED_TRACE(std::string(testsupport::backendName(from)) +
                         " -> " + testsupport::backendName(to) +
                         " after yield " + std::to_string(k));
            auto src = compilePipeline(lutProgram(shape), lutOnly(from));
            auto head = testsupport::driveYields(*src, input, k);
            ASSERT_FALSE(head.done);
            auto snap =
                takeSnapshot(src->root(), src->frame(),
                             testsupport::cells(*src), head.consumed, k);

            auto dst = compilePipeline(lutProgram(shape), lutOnly(to));
            testsupport::driveUpTo(*dst, input, 0, SIZE_MAX, true);
            restoreSnapshot(dst->root(), dst->frame(),
                            testsupport::cells(*dst), snap);
            auto got = testsupport::driveUpTo(*dst, input, head.consumed,
                                              SIZE_MAX, false);
            head.out.insert(head.out.end(), got.out.begin(),
                            got.out.end());
            EXPECT_EQ(head.out, expect);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Returns, LutReturnShape,
    ::testing::Values(
        ReturnShape{"bit", bitKernel, CompiledLut::RetPath::Bits, 0},
        ReturnShape{"bit_array", bitArrayKernel, CompiledLut::RetPath::Bits,
                    0},
        ReturnShape{"int16", int16Kernel, CompiledLut::RetPath::Copy, 0},
        ReturnShape{"int16_state", int16StateKernel,
                    CompiledLut::RetPath::Copy, 0},
        ReturnShape{"complex16_array", complexArrayKernel,
                    CompiledLut::RetPath::Copy, 0},
        ReturnShape{"bit_int8_struct", mixedStructKernel,
                    CompiledLut::RetPath::Generic, 1}),
    [](const ::testing::TestParamInfo<ReturnShape>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace ziria
