/**
 * @file
 * Unit tests: the expression compiler / VM (zexpr), native functions,
 * constant folding, and the LUT machinery.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "zast/builder.h"
#include "zexpr/compile_expr.h"
#include "zexpr/lut.h"
#include "zexpr/natives.h"
#include "zopt/passes.h"

namespace ziria {
namespace {

using namespace zb;

int64_t
evalI(const ExprPtr& e)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    EvalInt f = ec.compileInt(e);
    Frame fr(layout.frameSize());
    return f(fr);
}

double
evalD(const ExprPtr& e)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    EvalDbl f = ec.compileDbl(e);
    Frame fr(layout.frameSize());
    return f(fr);
}

TEST(ExprVm, IntArithmetic)
{
    EXPECT_EQ(evalI(cInt(2) + cInt(3)), 5);
    EXPECT_EQ(evalI(cInt(2) - cInt(3)), -1);
    EXPECT_EQ(evalI(cInt(7) * cInt(-3)), -21);
    EXPECT_EQ(evalI(cInt(7) / cInt(2)), 3);
    EXPECT_EQ(evalI(cInt(7) % cInt(3)), 1);
}

TEST(ExprVm, Int32Wraparound)
{
    EXPECT_EQ(evalI(cInt(2147483647) + cInt(1)),
              static_cast<int64_t>(INT32_MIN));
    EXPECT_EQ(evalI(cInt(65536) * cInt(65536)), 0);
}

TEST(ExprVm, Int8Truncation)
{
    EXPECT_EQ(evalI(cI8(100) + cI8(100)), static_cast<int8_t>(200));
}

TEST(ExprVm, BitOps)
{
    EXPECT_EQ(evalI(cBit(1) ^ cBit(1)), 0);
    EXPECT_EQ(evalI(cBit(1) ^ cBit(0)), 1);
    EXPECT_EQ(evalI(cBit(1) & cBit(0)), 0);
    EXPECT_EQ(evalI(cBit(1) | cBit(0)), 1);
    EXPECT_EQ(evalI(mkUn(UnOp::BNot, cBit(0))), 1);
    EXPECT_EQ(evalI(mkUn(UnOp::BNot, cBit(1))), 0);
}

TEST(ExprVm, Shifts)
{
    EXPECT_EQ(evalI(cInt(1) << 10), 1024);
    EXPECT_EQ(evalI(cInt(-8) >> 1), -4);
    EXPECT_EQ(evalI(cInt(1) << 31), static_cast<int64_t>(INT32_MIN));
    // Over-shifting is defined (not UB): zero / sign fill.
    EXPECT_EQ(evalI(cInt(5) << 40), 0);
    EXPECT_EQ(evalI(cInt(-5) >> 40), -1);
}

TEST(ExprVm, Comparisons)
{
    EXPECT_EQ(evalI(cInt(2) < cInt(3)), 1);
    EXPECT_EQ(evalI(cInt(3) < cInt(3)), 0);
    EXPECT_EQ(evalI(cInt(3) <= cInt(3)), 1);
    EXPECT_EQ(evalI(cInt(4) == cInt(4)), 1);
    EXPECT_EQ(evalI(cInt(4) != cInt(4)), 0);
    EXPECT_EQ(evalI(cDouble(1.5) < cDouble(2.0)), 1);
}

TEST(ExprVm, ShortCircuit)
{
    // (false && (1/0 == 0)) must not evaluate the division.
    ExprPtr div = cInt(1) / cInt(0) == cInt(0);
    EXPECT_EQ(evalI(cBool(false) && div), 0);
    EXPECT_EQ(evalI(cBool(true) || div), 1);
    EXPECT_THROW(evalI(cBool(true) && div), FatalError);
}

TEST(ExprVm, DivisionByZeroFaults)
{
    EXPECT_THROW(evalI(cInt(1) / cInt(0)), FatalError);
    EXPECT_THROW(evalI(cInt(1) % cInt(0)), FatalError);
}

TEST(ExprVm, IntMinDivMinusOne)
{
    EXPECT_EQ(evalI(cInt(INT32_MIN) / cInt(-1)),
              static_cast<int64_t>(INT32_MIN));
    EXPECT_EQ(evalI(cInt(INT32_MIN) % cInt(-1)), 0);
}

TEST(ExprVm, Casts)
{
    EXPECT_EQ(evalI(cast(Type::int8(), cInt(300))), 44);
    EXPECT_EQ(evalI(cast(Type::int32(), cDouble(3.9))), 3);
    EXPECT_EQ(evalD(cast(Type::real(), cInt(5))), 5.0);
    EXPECT_EQ(evalI(cast(Type::bit(), cInt(7))), 1);
}

TEST(ExprVm, DoubleArithmetic)
{
    EXPECT_NEAR(evalD(cDouble(1.5) + cDouble(2.25)), 3.75, 1e-12);
    EXPECT_NEAR(evalD(cDouble(5.0) / cDouble(2.0)), 2.5, 1e-12);
}

TEST(ExprVm, Complex16Arithmetic)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    ExprPtr e = cC16(3, 4) * cC16(1, 2);
    EvalInto f = ec.compileInto(e);
    Frame fr(layout.frameSize());
    uint8_t buf[4];
    f(fr, buf);
    Complex16 c;
    std::memcpy(&c, buf, 4);
    EXPECT_EQ(c.re, 3 * 1 - 4 * 2);
    EXPECT_EQ(c.im, 3 * 2 + 4 * 1);
}

TEST(ExprVm, ComplexShift)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    ExprPtr e = cC16(-8, 16) >> 2;
    EvalInto f = ec.compileInto(e);
    Frame fr(layout.frameSize());
    uint8_t buf[4];
    f(fr, buf);
    Complex16 c;
    std::memcpy(&c, buf, 4);
    EXPECT_EQ(c.re, -2);
    EXPECT_EQ(c.im, 4);
}

TEST(ExprVm, VariablesAndAssignment)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    VarRef x = freshVar("x", Type::int32());
    Action set = ec.compileStmt(assign(var(x), cInt(41)));
    EvalInt get = ec.compileInt(var(x) + 1);
    Frame fr(layout.frameSize());
    set(fr);
    EXPECT_EQ(get(fr), 42);
}

TEST(ExprVm, ArrayIndexAndSlice)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    VarRef a = freshVar("a", Type::array(Type::int32(), 8));
    StmtList init;
    VarRef i = freshVar("i", Type::int32());
    init.push_back(sFor(i, cInt(0), cInt(8),
                        {assign(idx(var(a), var(i)), var(i) * 10)}));
    Action run = ec.compileStmts(init);
    EvalInt at3 = ec.compileInt(idx(var(a), 3));
    Frame fr(layout.frameSize());
    run(fr);
    EXPECT_EQ(at3(fr), 30);
}

TEST(ExprVm, OverlappingSliceAssignBehavesLikeMemmove)
{
    // The scrambler shift: st[0:5] := st[1:6].
    FrameLayout layout;
    ExprCompiler ec(layout);
    VarRef st = freshVar("st", Type::array(Type::int8(), 7));
    StmtList code;
    VarRef i = freshVar("i", Type::int32());
    code.push_back(sFor(i, cInt(0), cInt(7),
                        {assign(idx(var(st), var(i)),
                                cast(Type::int8(), var(i)))}));
    code.push_back(assign(slice(var(st), 0, 6), slice(var(st), 1, 6)));
    Action run = ec.compileStmts(code);
    Frame fr(layout.frameSize());
    run(fr);
    EvalInt at0 = ec.compileInt(idx(var(st), 0));
    EvalInt at5 = ec.compileInt(idx(var(st), 5));
    EvalInt at6 = ec.compileInt(idx(var(st), 6));
    EXPECT_EQ(at0(fr), 1);
    EXPECT_EQ(at5(fr), 6);
    EXPECT_EQ(at6(fr), 6);
}

TEST(ExprVm, IndexOutOfBoundsFaults)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    VarRef a = freshVar("a", Type::array(Type::int32(), 4));
    VarRef i = freshVar("i", Type::int32());
    Action setI = ec.compileStmt(assign(var(i), cInt(4)));
    EvalInt get = ec.compileInt(idx(var(a), var(i)));
    Frame fr(layout.frameSize());
    setI(fr);
    EXPECT_THROW(get(fr), FatalError);
}

TEST(ExprVm, StructRoundTrip)
{
    TypePtr h = Type::strct("H", {{"mod", Type::int32()},
                                  {"len", Type::int32()}});
    FrameLayout layout;
    ExprCompiler ec(layout);
    VarRef v = freshVar("h", h);
    Action set = ec.compileStmt(
        assign(var(v), structLit(h, {cInt(2), cInt(1500)})));
    EvalInt len = ec.compileInt(field(var(v), "len"));
    Frame fr(layout.frameSize());
    set(fr);
    EXPECT_EQ(len(fr), 1500);
}

TEST(ExprVm, UserFunctionCallWithState)
{
    // Captured state: counter increments across calls.
    VarRef state = freshVar("count", Type::int32());
    VarRef p = freshVar("p", Type::int32());
    FunRef f = fun("bump", {p},
                   {assign(var(state), var(state) + var(p))},
                   var(state));

    FrameLayout layout;
    ExprCompiler ec(layout);
    EvalInt callTwice = ec.compileInt(call(f, {cInt(5)}) +
                                      call(f, {cInt(7)}));
    Frame fr(layout.frameSize());
    EXPECT_EQ(callTwice(fr), 5 + 12);
}

TEST(ExprVm, ByRefParameterMutatesCallerArray)
{
    VarRef arrp = freshVar("xs", Type::array(Type::int32(), 4));
    auto fdef = std::make_shared<FunDef>();
    VarRef p = freshVar("p", Type::array(Type::int32(), 4));
    fdef->name = "fill";
    fdef->params = {p};
    fdef->byRef = {true};
    fdef->body = {assign(idx(var(p), 2), cInt(99))};
    fdef->retType = Type::unit();
    FunRef f = fdef;

    FrameLayout layout;
    ExprCompiler ec(layout);
    Action doCall = ec.compileStmt(sEval(call(f, {var(arrp)})));
    EvalInt read = ec.compileInt(idx(var(arrp), 2));
    Frame fr(layout.frameSize());
    doCall(fr);
    EXPECT_EQ(read(fr), 99);
}

TEST(ExprVm, NativeSin)
{
    EXPECT_NEAR(evalD(call(natives::lookup("sin"), {cDouble(1.0)})),
                std::sin(1.0), 1e-12);
}

TEST(ExprVm, NativeCmul16)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    ExprPtr e = call(natives::lookup("cmul16"),
                     {cC16(1000, 2000), cC16(-300, 50), cInt(6)});
    EvalInto f = ec.compileInto(e);
    Frame fr(layout.frameSize());
    uint8_t buf[4];
    f(fr, buf);
    Complex16 c;
    std::memcpy(&c, buf, 4);
    EXPECT_EQ(c.re, (1000 * -300 - 2000 * 50) >> 6);
    EXPECT_EQ(c.im, (1000 * 50 + 2000 * -300) >> 6);
}

TEST(ExprVm, NativeLookupByName)
{
    EXPECT_NE(natives::lookup("sin"), nullptr);
    EXPECT_NE(natives::lookup("atan2"), nullptr);
    EXPECT_EQ(natives::lookup("no_such_fn"), nullptr);
}

TEST(Folding, ConstantArithmetic)
{
    ExprPtr e = foldExpr((cInt(2) + cInt(3)) * cInt(4));
    ASSERT_EQ(e->kind(), ExprKind::Const);
    EXPECT_EQ(static_cast<const ConstExpr&>(*e).value().asInt(), 20);
}

TEST(Folding, CondWithConstGuard)
{
    ExprPtr e = foldExpr(cond(cBool(true), cInt(1), cInt(2)));
    ASSERT_EQ(e->kind(), ExprKind::Const);
    EXPECT_EQ(static_cast<const ConstExpr&>(*e).value().asInt(), 1);
}

TEST(Folding, IndexOfConstArray)
{
    ExprPtr e = foldExpr(idx(bitArrayLit({0, 1, 1}), 2));
    ASSERT_EQ(e->kind(), ExprKind::Const);
    EXPECT_EQ(static_cast<const ConstExpr&>(*e).value().asInt(), 1);
}

TEST(Folding, DivByZeroLeftForRuntime)
{
    ExprPtr e = foldExpr(cInt(1) / cInt(0));
    EXPECT_EQ(e->kind(), ExprKind::Bin);
}

TEST(Lut, XorKernelMatchesDirect)
{
    // Kernel: f(x: arr[4] bit) = {state ^= parity(x); return x ^ state}
    VarRef state = freshVar("st", Type::bit());
    VarRef p = freshVar("x", Type::array(Type::bit(), 4));
    // body: st := st ^ x[0] ^ x[1] ^ x[2] ^ x[3]
    ExprPtr px = idx(var(p), 0) ^ idx(var(p), 1) ^ idx(var(p), 2) ^
                 idx(var(p), 3);
    FunRef f = fun("k", {p}, {assign(var(state), var(state) ^ px)},
                   arrayLit({idx(var(p), 0) ^ var(state),
                             idx(var(p), 1) ^ var(state),
                             idx(var(p), 2) ^ var(state),
                             idx(var(p), 3) ^ var(state)}));

    // Compile twice: direct kernel and via LUT; compare over all inputs
    // and states.
    FrameLayout layout;
    ExprCompiler ec(layout);
    CompiledKernel k = ec.compileKernel(f);
    size_t stOff = layout.offsetOf(state.get());

    std::vector<LutSlot> keys{{k.paramOffsets[0], p->type, 0},
                              {stOff, Type::bit(), 0}};
    std::vector<LutSlot> outs{{stOff, Type::bit(), 0}};
    auto plan = planLut(keys, outs, f->retType, LutLimits{});
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->keyBits, 5);
    CompiledLut lut(*plan, k.body, k.retInto, layout.frameSize());

    Frame fa(layout.frameSize());
    Frame fb(layout.frameSize());
    uint8_t outA[4], outB[4];
    Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        uint8_t in[4];
        for (auto& b : in)
            b = rng.bit();
        // Direct on frame A.
        std::memcpy(fa.at(k.paramOffsets[0]), in, 4);
        k.body(fa);
        k.retInto(fa, outA);
        // LUT on frame B.
        std::memcpy(fb.at(k.paramOffsets[0]), in, 4);
        lut.apply(fb, outB);
        EXPECT_EQ(std::memcmp(outA, outB, 4), 0);
        EXPECT_EQ(*fa.at(stOff), *fb.at(stOff));
    }
}

TEST(Lut, RejectsWideKeys)
{
    std::vector<LutSlot> keys{{0, Type::int32(), 0}};
    EXPECT_FALSE(planLut(keys, {}, Type::bit(), LutLimits{}).has_value());
}

TEST(Lut, RejectsDoubles)
{
    std::vector<LutSlot> keys{{0, Type::real(), 0}};
    EXPECT_FALSE(planLut(keys, {}, Type::bit(), LutLimits{}).has_value());
}

} // namespace
} // namespace ziria
