/**
 * @file
 * Tests for cardinality analysis, normalization and the vectorizer —
 * including the paper's central correctness property: a vectorized
 * pipeline is observationally equivalent to the original, *including*
 * across `seq` reconfigurations (same outputs, and downstream computers
 * see exactly the data they would have seen).
 */
#include <gtest/gtest.h>

#include "support/rng.h"
#include "zast/builder.h"
#include "zast/printer.h"
#include "zcard/card.h"
#include "zcheck/check.h"
#include "zir/compiler.h"
#include "zvect/simple_comp.h"
#include "zvect/vectorize.h"

namespace ziria {
namespace {

using namespace zb;

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out)
        b = static_cast<uint8_t>(rng.next() & 1);
    return out;
}

// --------------------------------------------------------------- cards

TEST(Card, Primitives)
{
    EXPECT_EQ(cardOf(take(Type::bit()))->takes, 1);
    EXPECT_EQ(cardOf(takes(Type::bit(), 7))->takes, 7);
    EXPECT_EQ(cardOf(emit(cBit(1)))->emits, 1);
    EXPECT_EQ(cardOf(ret(cUnit()))->takes, 0);
}

TEST(Card, SeqSumsAndTimesMultiplies)
{
    VarRef x = freshVar("x", Type::bit());
    CompPtr c = timesc(cInt(3), seqc({bindc(x, take(Type::bit())),
                                      just(emit(var(x))),
                                      just(emit(var(x)))}));
    auto k = cardOf(c);
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(k->takes, 3);
    EXPECT_EQ(k->emits, 6);
}

TEST(Card, WhileIsDynamic)
{
    VarRef n = freshVar("n", Type::int32());
    CompPtr c = whilec(var(n) < 3, emit(cInt(0)));
    EXPECT_FALSE(cardOf(c).has_value());
}

// -------------------------------------------------------- normalization

TEST(Normalize, ScramblerLikeBody)
{
    VarRef st = freshVar("st", Type::array(Type::bit(), 7));
    VarRef x = freshVar("x", Type::bit());
    VarRef tmp = freshVar("tmp", Type::bit());
    CompPtr body = seqc(
        {bindc(x, take(Type::bit())),
         just(doS({sDecl(tmp, idx(var(st), 3) ^ idx(var(st), 0)),
                   assign(slice(var(st), 0, 6), slice(var(st), 1, 6)),
                   assign(idx(var(st), 6), var(tmp))})),
         just(emit(var(x) ^ var(tmp)))});
    auto sc = normalizeComp(body, 1000);
    ASSERT_TRUE(sc.has_value());
    EXPECT_EQ(sc->takes, 1);
    EXPECT_EQ(sc->emits, 1);
    EXPECT_EQ(sc->steps.size(), 3u);
}

TEST(Normalize, RejectsDynamicControlFlow)
{
    VarRef n = freshVar("n", Type::int32());
    CompPtr body = whilec(var(n) < 2, emit(cInt(1)));
    EXPECT_FALSE(normalizeComp(body, 1000).has_value());
}

TEST(Normalize, UnrollsStaticTimes)
{
    VarRef i = freshVar("i", Type::int32());
    CompPtr body = timesc(cInt(4), i, emit(var(i)));
    auto sc = normalizeComp(body, 1000);
    ASSERT_TRUE(sc.has_value());
    EXPECT_EQ(sc->emits, 4);
}

// ---------------------------------------------------------- vectorizer

/** A scrambler-like stateful bit transformer (the paper's example). */
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

TEST(Vectorize, ScramblerEquivalence)
{
    auto input = randomBytes(512, 17);

    auto plain = compilePipeline(
        scramblerLike(), CompilerOptions::forLevel(OptLevel::None));
    auto expect = plain->runBytes(input);

    CompilerOptions vopt = CompilerOptions::forLevel(OptLevel::Vectorize);
    CompileReport rep;
    auto vect = compilePipeline(scramblerLike(), vopt, &rep);
    EXPECT_GT(vect->inWidth(), 1u) << "vectorizer chose scalar widths";
    auto got = vect->runBytes(input);
    EXPECT_EQ(got, expect);
    EXPECT_GT(rep.vect.generated, 0);
}

TEST(Vectorize, EquivalenceAcrossReconfiguration)
{
    // The Section 3 motivating example: seq { x <- (t >>> c1); c2 }.
    // The vectorized t must not steal data destined for c2.
    auto mkProgram = []() -> CompPtr {
        VarRef x = freshVar("x", Type::bit());
        CompPtr t = repeatc(seqc({bindc(x, take(Type::bit())),
                                  just(emit(var(x) ^ cBit(1)))}));
        // c1: take 4 values one by one, return their XOR.
        VarRef acc = freshVar("acc", Type::bit());
        std::vector<SeqComp::Item> items;
        items.push_back(just(doS({assign(var(acc), cBit(0))})));
        for (int i = 0; i < 4; ++i) {
            VarRef v = freshVar("v", Type::bit());
            items.push_back(bindc(v, take(Type::bit())));
            items.push_back(
                just(doS({assign(var(acc), var(acc) ^ var(v))})));
        }
        items.push_back(just(emit(var(acc))));
        CompPtr c1 = seqc(std::move(items));
        // c2: pass the remaining stream through unchanged.
        VarRef y = freshVar("y", Type::bit());
        CompPtr c2 = repeatc(seqc({bindc(y, take(Type::bit())),
                                   just(emit(var(y)))}));
        return seqc({just(pipe(std::move(t), std::move(c1))),
                     just(std::move(c2))});
    };

    auto input = randomBytes(4 + 64, 23);
    auto plain = compilePipeline(
        mkProgram(), CompilerOptions::forLevel(OptLevel::None));
    RunStats stPlain;
    auto expect = plain->runBytes(input, &stPlain);

    CompilerOptions vopt = CompilerOptions::forLevel(OptLevel::Vectorize);
    auto vect = compilePipeline(mkProgram(), vopt);
    RunStats stVect;
    auto got = vect->runBytes(input, &stVect);
    EXPECT_EQ(got, expect);
}

TEST(Vectorize, DownVectorizedComputerConsumesExactCount)
{
    // A computer taking 8 bits; down-vectorization must keep exact
    // consumption so a following computer sees the rest.
    auto mkProgram = []() -> CompPtr {
        VarRef a = freshVar("a", Type::array(Type::bit(), 8));
        CompPtr c1 = seqc({bindc(a, takes(Type::bit(), 8)),
                           just(emit(idx(var(a), 0)))});
        VarRef y = freshVar("y", Type::bit());
        CompPtr c2 = repeatc(seqc({bindc(y, take(Type::bit())),
                                   just(emit(var(y)))}));
        return seqc({just(std::move(c1)), just(std::move(c2))});
    };
    auto input = randomBytes(8 + 16, 31);
    auto expect = compilePipeline(
        mkProgram(), CompilerOptions::forLevel(OptLevel::None))
        ->runBytes(input);
    auto got = compilePipeline(
        mkProgram(), CompilerOptions::forLevel(OptLevel::Vectorize))
        ->runBytes(input);
    EXPECT_EQ(got, expect);
}

TEST(Vectorize, InterleaverLikeBlockEquivalence)
{
    // Takes 16, emits 16 permuted: vectorizer should pick width 16.
    auto mkProgram = []() -> CompPtr {
        VarRef a = freshVar("a", Type::array(Type::bit(), 16));
        std::vector<SeqComp::Item> items;
        items.push_back(bindc(a, takes(Type::bit(), 16)));
        std::vector<ExprPtr> perm;
        for (int i = 0; i < 16; ++i)
            perm.push_back(idx(var(a), (i * 5) % 16));
        items.push_back(just(emits(arrayLit(std::move(perm)))));
        return repeatc(seqc(std::move(items)));
    };
    // 864 = 3 * 288 is a multiple of every feasible width choice.
    auto input = randomBytes(864, 41);
    auto expect = compilePipeline(
        mkProgram(), CompilerOptions::forLevel(OptLevel::None))
        ->runBytes(input);
    CompileReport rep;
    auto vect = compilePipeline(
        mkProgram(), CompilerOptions::forLevel(OptLevel::Vectorize), &rep);
    EXPECT_EQ(vect->runBytes(input), expect);
    EXPECT_GE(rep.vect.chosenIn, 16);
}

TEST(Vectorize, PropertyRandomPipelines)
{
    // Random two-stage bit pipelines with a reconfiguring tail; the
    // vectorized program must agree with the unvectorized one.
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 7919);
        int takeN = 1 + static_cast<int>(rng.below(4));
        int emitN = 1 + static_cast<int>(rng.below(4));
        auto mkProgram = [&]() -> CompPtr {
            // t: takes takeN bits, emits emitN derived bits, repeated.
            VarRef a = freshVar("a", Type::array(Type::bit(),
                                                 std::max(takeN, 1)));
            std::vector<SeqComp::Item> items;
            items.push_back(bindc(a, takes(Type::bit(), takeN)));
            std::vector<ExprPtr> outs;
            for (int i = 0; i < emitN; ++i)
                outs.push_back(idx(var(a), i % takeN) ^
                               cBit(static_cast<int>(i & 1)));
            items.push_back(just(emits(arrayLit(std::move(outs)))));
            CompPtr t = repeatc(seqc(std::move(items)));
            // c1: consume emitN*2 elements, then return.
            VarRef v = freshVar("v", Type::array(Type::bit(), emitN * 2));
            CompPtr c1 = seqc({bindc(v, takes(Type::bit(), emitN * 2)),
                               just(emit(idx(var(v), 0)))});
            VarRef y = freshVar("y", Type::bit());
            CompPtr c2 = repeatc(seqc({bindc(y, take(Type::bit())),
                                       just(emit(var(y)))}));
            return seqc({just(pipe(std::move(t), std::move(c1))),
                         just(std::move(c2))});
        };
        auto input = randomBytes(
            static_cast<size_t>(takeN) * 2 * emitN * 2 + 6 * 288, seed);
        auto expect = compilePipeline(
            mkProgram(), CompilerOptions::forLevel(OptLevel::None))
            ->runBytes(input);
        auto got = compilePipeline(
            mkProgram(), CompilerOptions::forLevel(OptLevel::Vectorize))
            ->runBytes(input);
        // The vectorized stream may drop a trailing partial array at EOF
        // (an input chunk smaller than the chosen width); everything
        // produced must be a prefix of the scalar output and the loss is
        // bounded by the maximum width.
        ASSERT_LE(got.size(), expect.size())
            << "seed=" << seed << " takeN=" << takeN << " emitN=" << emitN;
        EXPECT_GE(got.size() + 2 * 288, expect.size())
            << "seed=" << seed << " takeN=" << takeN << " emitN=" << emitN;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
            << "seed=" << seed << " takeN=" << takeN << " emitN=" << emitN;
    }
}

TEST(Vectorize, ForcedWidthsViaHint)
{
    // Dynamic body (while over state) with a forced [4, 4] hint.
    auto mkProgram = [](bool hinted) -> CompPtr {
        VarRef n = freshVar("n", Type::int32());
        VarRef x = freshVar("x", Type::bit());
        CompPtr body = seqc(
            {just(doS({assign(var(n), cInt(0))})),
             just(whilec(var(n) < 2,
                         seqc({bindc(x, take(Type::bit())),
                               just(emit(var(x))),
                               just(doS({assign(var(n),
                                                var(n) + 1)}))})))});
        std::optional<VectHint> hint;
        if (hinted)
            hint = VectHint{4, 4};
        return letvar(n, cInt(0), repeatc(std::move(body), hint));
    };
    auto input = randomBytes(64, 5);
    auto expect = compilePipeline(
        mkProgram(false), CompilerOptions::forLevel(OptLevel::None))
        ->runBytes(input);
    CompileReport rep;
    auto vect = compilePipeline(
        mkProgram(true), CompilerOptions::forLevel(OptLevel::Vectorize),
        &rep);
    EXPECT_EQ(vect->runBytes(input), expect);
    EXPECT_EQ(rep.vect.chosenIn, 4);
}

TEST(Vectorize, UtilityChoicesDiffer)
{
    // Sum-of-widths vs log-utility on a two-block pipeline whose blocks
    // have asymmetric cardinalities (the §3.3 discussion).
    auto mk = []() -> CompPtr {
        VarRef x = freshVar("x", Type::bit());
        CompPtr t1 = repeatc(seqc({bindc(x, take(Type::bit())),
                                   just(emit(var(x)))}));
        VarRef y = freshVar("y", Type::bit());
        CompPtr t2 = repeatc(seqc({bindc(y, take(Type::bit())),
                                   just(emit(var(y)))}));
        return pipe(std::move(t1), std::move(t2));
    };
    for (VectUtility u :
         {VectUtility::Log, VectUtility::Sum, VectUtility::MaxMin}) {
        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::Vectorize);
        opt.vect.utility = u;
        CompileReport rep;
        auto p = compilePipeline(mk(), opt, &rep);
        auto input = randomBytes(256, 3);
        auto expect = compilePipeline(
            mk(), CompilerOptions::forLevel(OptLevel::None))
            ->runBytes(input);
        EXPECT_EQ(p->runBytes(input), expect);
        EXPECT_GE(rep.vect.chosenIn, 1);
    }
}

TEST(Vectorize, PruningReducesCandidates)
{
    auto mk = []() -> CompPtr {
        CompPtr c = nullptr;
        for (int i = 0; i < 3; ++i) {
            VarRef x = freshVar("x", Type::bit());
            CompPtr t = repeatc(seqc({bindc(x, take(Type::bit())),
                                      just(emit(var(x)))}));
            c = c ? pipe(std::move(c), std::move(t)) : t;
        }
        return c;
    };
    CompilerOptions pruned = CompilerOptions::forLevel(OptLevel::Vectorize);
    pruned.vect.maxScale = 16;
    CompileReport rp;
    compilePipeline(mk(), pruned, &rp);

    CompilerOptions full = pruned;
    full.vect.prune = false;
    CompileReport rf;
    compilePipeline(mk(), full, &rf);

    EXPECT_GT(rf.vect.generated, rp.vect.generated);
}

TEST(Vectorize, KeptCountsCandidatesThatSurvivePruning)
{
    // Two bit pass-throughs in a pipe: their joint candidates collide on
    // (din, dout) and pruning keeps one per pair, so fewer survive than
    // were generated.  Without pruning (and under the cap) every
    // generated candidate is kept.
    auto mk = []() -> CompPtr {
        CompPtr c = nullptr;
        for (int i = 0; i < 2; ++i) {
            VarRef x = freshVar("x", Type::bit());
            CompPtr t = repeatc(seqc({bindc(x, take(Type::bit())),
                                      just(emit(var(x)))}));
            c = c ? pipe(std::move(c), std::move(t)) : t;
        }
        return c;
    };
    CompilerOptions pruned = CompilerOptions::forLevel(OptLevel::Vectorize);
    pruned.vect.maxScale = 16;
    CompileReport rp;
    compilePipeline(mk(), pruned, &rp);
    EXPECT_GT(rp.vect.kept, 0);
    EXPECT_LT(rp.vect.kept, rp.vect.generated);

    CompilerOptions full = pruned;
    full.vect.prune = false;
    CompileReport rf;
    compilePipeline(mk(), full, &rf);
    ASSERT_FALSE(rf.vect.capped);
    EXPECT_EQ(rf.vect.kept, rf.vect.generated);
}

} // namespace
} // namespace ziria
