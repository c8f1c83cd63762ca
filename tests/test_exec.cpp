/**
 * @file
 * Unit + integration tests for the execution engine: primitive nodes,
 * combinators, the seq switchtable, right-drained pipes, repeat
 * re-initialization, and the threaded pipeline.
 */
#include <gtest/gtest.h>

#include "support/panic.h"
#include "zast/builder.h"
#include "zcheck/check.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;

std::vector<int32_t>
toInts(const std::vector<uint8_t>& bytes)
{
    std::vector<int32_t> out(bytes.size() / 4);
    std::memcpy(out.data(), bytes.data(), out.size() * 4);
    return out;
}

std::vector<uint8_t>
fromInts(const std::vector<int32_t>& xs)
{
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

std::unique_ptr<Pipeline>
make(CompPtr c, OptLevel level = OptLevel::None)
{
    return compilePipeline(c, CompilerOptions::forLevel(level));
}

TEST(Exec, EmitOnly)
{
    auto p = make(emit(cInt(42)));
    RunStats st;
    auto out = p->runBytes({}, &st);
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{42}));
    EXPECT_TRUE(st.halted);
}

TEST(Exec, TakeEmitIncrement)
{
    // seq { x <- take; emit (x+1) }  (runs once, then halts)
    VarRef x = freshVar("x", Type::int32());
    auto p = make(seqc({bindc(x, take(Type::int32())),
                        just(emit(var(x) + 1))}));
    RunStats st;
    auto out = p->runBytes(fromInts({10, 20, 30}), &st);
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{11}));
    EXPECT_EQ(st.consumed, 1u);
    EXPECT_TRUE(st.halted);
}

TEST(Exec, RepeatTransformsWholeStream)
{
    VarRef x = freshVar("x", Type::int32());
    auto p = make(repeatc(seqc({bindc(x, take(Type::int32())),
                                just(emit(var(x) * 2))})));
    RunStats st;
    auto out = p->runBytes(fromInts({1, 2, 3, 4}), &st);
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{2, 4, 6, 8}));
    EXPECT_FALSE(st.halted);
    EXPECT_EQ(st.consumed, 4u);
}

TEST(Exec, PipeComposition)
{
    VarRef x = freshVar("x", Type::int32());
    VarRef y = freshVar("y", Type::int32());
    CompPtr inc = repeatc(seqc({bindc(x, take(Type::int32())),
                                just(emit(var(x) + 1))}));
    CompPtr dbl = repeatc(seqc({bindc(y, take(Type::int32())),
                                just(emit(var(y) * 2))}));
    auto p = make(pipe(std::move(inc), std::move(dbl)));
    auto out = p->runBytes(fromInts({1, 2, 3}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{4, 6, 8}));
}

TEST(Exec, SeqReconfiguresPipelineOnControlValue)
{
    // The paper's signature pattern: a header decoder returning a control
    // value that parameterizes the payload decoder.
    VarRef h = freshVar("h", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    CompPtr program = seqc(
        {bindc(h, take(Type::int32())),  // "header": the scale factor
         just(repeatc(seqc({bindc(x, take(Type::int32())),
                            just(emit(var(x) * var(h)))})))});
    auto p = make(program);
    auto out = p->runBytes(fromInts({5, 1, 2, 3}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{5, 10, 15}));
}

TEST(Exec, ComputerConsumesExactlyWhatItNeeds)
{
    // seq { c1; c2 }: c1 takes 2 elements; c2 must see the rest.
    VarRef a = freshVar("a", Type::int32());
    VarRef b = freshVar("b", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    CompPtr c1 = seqc({bindc(a, take(Type::int32())),
                       bindc(b, take(Type::int32())),
                       just(emit(var(a) + var(b)))});
    CompPtr c2 = repeatc(seqc({bindc(x, take(Type::int32())),
                               just(emit(var(x)))}));
    auto p = make(seqc({just(std::move(c1)), just(std::move(c2))}));
    auto out = p->runBytes(fromInts({1, 2, 100, 200}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{3, 100, 200}));
}

TEST(Exec, EmitsAndTakeMany)
{
    // takes 4 ints as an array, emit them reversed via emits.
    VarRef a = freshVar("a", Type::array(Type::int32(), 4));
    auto p = make(repeatc(seqc(
        {bindc(a, takes(Type::int32(), 4)),
         just(emits(arrayLit({idx(var(a), 3), idx(var(a), 2),
                              idx(var(a), 1), idx(var(a), 0)})))})));
    auto out = p->runBytes(fromInts({1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{4, 3, 2, 1, 8, 7, 6, 5}));
}

TEST(Exec, MapNode)
{
    VarRef x = freshVar("x", Type::int32());
    FunRef f = fun("sq", {x}, {}, var(x) * var(x));
    auto p = make(mapc(f));
    auto out = p->runBytes(fromInts({1, 2, 3, 4}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{1, 4, 9, 16}));
}

TEST(Exec, FilterNode)
{
    VarRef x = freshVar("x", Type::int32());
    FunRef p_ = fun("nonzero", {x}, {}, var(x) != 0);
    auto p = make(filterc(p_));
    auto out = p->runBytes(fromInts({0, 5, 0, 7, 0}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{5, 7}));
}

TEST(Exec, FilterViaRepeatConditionalEmit)
{
    // The paper's example: filter zeros with repeat + if.
    VarRef x = freshVar("x", Type::int32());
    auto p = make(repeatc(
        seqc({bindc(x, take(Type::int32())),
              just(ifc(var(x) == 0, ret(cUnit()), emit(var(x))))})));
    auto out = p->runBytes(fromInts({0, 3, 0, 9}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{3, 9}));
}

TEST(Exec, TimesRepeatsBody)
{
    VarRef i = freshVar("i", Type::int32());
    auto p = make(timesc(cInt(5), i, emit(var(i) * 10)));
    RunStats st;
    auto out = p->runBytes({}, &st);
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{0, 10, 20, 30, 40}));
    EXPECT_TRUE(st.halted);
}

TEST(Exec, TimesZeroIterations)
{
    VarRef i = freshVar("i", Type::int32());
    auto p = make(timesc(cInt(0), i, emit(var(i))));
    RunStats st;
    auto out = p->runBytes({}, &st);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(st.halted);
}

TEST(Exec, WhileLoop)
{
    // var n := 0 in while (n < 3) { emit n; n := n+1 }
    VarRef n = freshVar("n", Type::int32());
    auto p = make(letvar(
        n, cInt(0),
        whilec(var(n) < 3, seqc({just(emit(var(n))),
                                 just(doS({assign(var(n),
                                                  var(n) + 1)}))}))));
    auto out = p->runBytes({});
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{0, 1, 2}));
}

TEST(Exec, LetVarStatePersistsAcrossRepeatIterations)
{
    // Running sum: state outside the repeat persists.
    VarRef s = freshVar("s", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    auto p = make(letvar(
        s, cInt(0),
        repeatc(seqc({bindc(x, take(Type::int32())),
                      just(doS({assign(var(s), var(s) + var(x))})),
                      just(emit(var(s)))}))));
    auto out = p->runBytes(fromInts({1, 2, 3, 4}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{1, 3, 6, 10}));
}

TEST(Exec, LetVarInsideRepeatReinitializedEachIteration)
{
    VarRef t = freshVar("t", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    auto p = make(repeatc(letvar(
        t, cInt(100),
        seqc({bindc(x, take(Type::int32())),
              just(doS({assign(var(t), var(t) + var(x))})),
              just(emit(var(t)))}))));
    auto out = p->runBytes(fromInts({1, 2, 3}));
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{101, 102, 103}));
}

TEST(Exec, IfComputationBranches)
{
    VarRef x = freshVar("x", Type::int32());
    auto mkProgram = [&]() {
        VarRef y = freshVar("y", Type::int32());
        return seqc({bindc(y, take(Type::int32())),
                     just(ifc(var(y) > 0,
                              repeatc(seqc({bindc(x, take(Type::int32())),
                                            just(emit(var(x) + 1))})),
                              repeatc(seqc({bindc(x, take(Type::int32())),
                                            just(emit(var(x) - 1))}))))});
    };
    {
        auto p = make(mkProgram());
        auto out = p->runBytes(fromInts({1, 10, 20}));
        EXPECT_EQ(toInts(out), (std::vector<int32_t>{11, 21}));
    }
    {
        auto p = make(mkProgram());
        auto out = p->runBytes(fromInts({-1, 10, 20}));
        EXPECT_EQ(toInts(out), (std::vector<int32_t>{9, 19}));
    }
}

TEST(Exec, PipeHaltsWhenDownstreamComputerReturns)
{
    // t >>> c1 where c1 returns after 2 values: t must not over-consume
    // beyond what c1 needed (plus at most the element in flight).
    VarRef x = freshVar("x", Type::int32());
    VarRef a = freshVar("a", Type::int32());
    VarRef b = freshVar("b", Type::int32());
    CompPtr t = repeatc(seqc({bindc(x, take(Type::int32())),
                              just(emit(var(x) * 2))}));
    CompPtr c1 = seqc({bindc(a, take(Type::int32())),
                       bindc(b, take(Type::int32())),
                       just(ret(var(a) + var(b)))});
    VarRef y = freshVar("y", Type::int32());
    CompPtr c2 = repeatc(seqc({bindc(y, take(Type::int32())),
                               just(emit(var(y)))}));
    VarRef s = freshVar("s", Type::int32());
    auto p = make(seqc({bindc(s, pipe(std::move(t), std::move(c1))),
                        just(seqc({just(emit(var(s))),
                                   just(std::move(c2))}))}));
    auto out = p->runBytes(fromInts({1, 2, 100, 200}));
    // c1 returns 1*2 + 2*2 = 6; then the remaining input flows through.
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{6, 100, 200}));
}

TEST(Exec, RepeatLivelockGuard)
{
    auto p = make(repeatc(ret(cUnit())));
    EXPECT_THROW(p->runBytes({}), FatalError);
}

TEST(Exec, RunStatsForComputerHaltingMidStream)
{
    // A computer that takes 2 of the 4 available elements, emits one,
    // and returns: RunStats must report the exact traffic plus the
    // control value bytes.
    VarRef a = freshVar("a", Type::int32());
    VarRef b = freshVar("b", Type::int32());
    auto p = make(seqc({bindc(a, take(Type::int32())),
                        bindc(b, take(Type::int32())),
                        just(emit(var(a) + var(b))),
                        just(ret(var(a) * 10))}));
    RunStats st;
    auto out = p->runBytes(fromInts({3, 4, 100, 200}), &st);
    EXPECT_EQ(toInts(out), (std::vector<int32_t>{7}));
    EXPECT_EQ(st.consumed, 2u);
    EXPECT_EQ(st.emitted, 1u);
    EXPECT_TRUE(st.halted);
    ASSERT_EQ(st.ctrl.size(), 4u);
    int32_t ctrl;
    std::memcpy(&ctrl, st.ctrl.data(), 4);
    EXPECT_EQ(ctrl, 30);
}

TEST(Exec, RunStatsForTransformerExhaustingInput)
{
    VarRef x = freshVar("x", Type::int32());
    auto p = make(repeatc(seqc({bindc(x, take(Type::int32())),
                                just(emit(var(x)))})));
    RunStats st;
    p->runBytes(fromInts({1, 2, 3, 4, 5, 6}), &st);
    EXPECT_EQ(st.consumed, 6u);
    EXPECT_EQ(st.emitted, 6u);
    EXPECT_FALSE(st.halted);
    EXPECT_TRUE(st.ctrl.empty());
}

TEST(Exec, RunStatsForTransformerWithMaxOut)
{
    // max_out cuts a 1-in/1-out transformer off exactly: consumed
    // tracks emitted, no halt is reported.
    VarRef x = freshVar("x", Type::int32());
    auto p = make(repeatc(seqc({bindc(x, take(Type::int32())),
                                just(emit(var(x) + 1))})));
    std::vector<int32_t> input(1000);
    for (size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<int32_t>(i);
    auto bytes = fromInts(input);
    MemSource src(bytes, 4);
    VecSink sink(4);
    RunStats st = p->run(src, sink, 10);
    EXPECT_EQ(st.emitted, 10u);
    EXPECT_EQ(st.consumed, 10u);
    EXPECT_FALSE(st.halted);
    EXPECT_EQ(sink.elems(), 10u);
}

TEST(Exec, CyclicSourceRejectsBufferShorterThanOneElement)
{
    // Regression: the wrap check reset pos_ but still read width_ bytes,
    // so a 2-byte buffer with 4-byte elements read past the end.
    std::vector<uint8_t> buf{1, 2};
    EXPECT_THROW(CyclicSource(buf, 4, 10), FatalError);
}

TEST(Exec, CyclicSourceWrapsWholeElements)
{
    // 8-byte buffer, 4-byte elements, 5 elements: windows end at the
    // buffer's end, and the next wraps after 2 elements.
    auto bytes = fromInts({11, 22});
    CyclicSource src(bytes, 4, 5);
    std::vector<int32_t> got;
    std::vector<size_t> windows;
    size_t n = 0;
    while (const uint8_t* p = src.window(&n)) {
        windows.push_back(n);
        for (size_t i = 0; i < n; ++i) {
            int32_t v;
            std::memcpy(&v, p + 4 * i, 4);
            got.push_back(v);
        }
        src.commit(n);
    }
    EXPECT_EQ(got, (std::vector<int32_t>{11, 22, 11, 22, 11}));
    EXPECT_EQ(windows, (std::vector<size_t>{2, 2, 1}));
}

TEST(Exec, RunStopsAtMaxOut)
{
    VarRef n = freshVar("n", Type::int32());
    auto p = make(letvar(
        n, cInt(0),
        repeatc(seqc({just(doS({assign(var(n), var(n) + 1)})),
                      just(emit(var(n)))}))));
    NullSink sink;
    MemSource src(nullptr, 0, 0);
    RunStats st = p->run(src, sink, 1000);
    EXPECT_EQ(st.emitted, 1000u);
}

TEST(ExecThreaded, TwoStagePipelineMatchesSingleThread)
{
    auto mkProgram = [] {
        VarRef x = freshVar("x", Type::int32());
        VarRef y = freshVar("y", Type::int32());
        CompPtr inc = repeatc(seqc({bindc(x, take(Type::int32())),
                                    just(emit(var(x) + 1))}));
        CompPtr dbl = repeatc(seqc({bindc(y, take(Type::int32())),
                                    just(emit(var(y) * 2))}));
        return ppipe(std::move(inc), std::move(dbl));
    };
    std::vector<int32_t> input;
    for (int i = 0; i < 10000; ++i)
        input.push_back(i);

    auto p1 = make(mkProgram());
    auto single = p1->runBytes(fromInts(input));

    auto p2 = compileThreadedPipeline(
        mkProgram(), CompilerOptions::forLevel(OptLevel::None));
    std::vector<uint8_t> inBytes = fromInts(input);
    MemSource src2(inBytes, 4);
    VecSink sink(4);
    RunStats st = p2->run(src2, sink);
    EXPECT_EQ(st.consumed, input.size());
    EXPECT_EQ(sink.data(), single);
}

TEST(ExecThreaded, DownstreamComputerCancelsUpstream)
{
    // Second stage halts after 3 elements; the run must terminate.
    VarRef x = freshVar("x", Type::int32());
    CompPtr stage1 = repeatc(seqc({bindc(x, take(Type::int32())),
                                   just(emit(var(x)))}));
    VarRef a = freshVar("a", Type::int32());
    CompPtr stage2 = seqc({bindc(a, take(Type::int32())),
                           just(take(Type::int32())),
                           just(take(Type::int32())),
                           just(ret(var(a)))});
    auto p = compileThreadedPipeline(
        ppipe(std::move(stage1), std::move(stage2)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> input(100000, 7);
    std::vector<uint8_t> inBytes = fromInts(input);
    MemSource src(inBytes, 4);
    NullSink sink;
    RunStats st = p->run(src, sink);
    EXPECT_TRUE(st.halted);
}

TEST(Exec, OptimizedPipelineMatchesUnoptimized)
{
    auto mkProgram = [] {
        VarRef st = freshVar("st", Type::int32());
        VarRef x = freshVar("x", Type::int32());
        return letvar(
            st, cInt(1),
            repeatc(seqc({bindc(x, take(Type::int32())),
                          just(doS({assign(var(st),
                                           var(st) + var(x))})),
                          just(emit(var(st) ^ var(x)))})));
    };
    std::vector<int32_t> input;
    for (int i = 0; i < 256; ++i)
        input.push_back(i * 7 - 100);
    auto plain = make(mkProgram())->runBytes(fromInts(input));
    auto opt = make(mkProgram(), OptLevel::All)->runBytes(fromInts(input));
    EXPECT_EQ(plain, opt);
}

} // namespace
} // namespace ziria
