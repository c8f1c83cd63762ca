/**
 * @file
 * The C++ emitter: fused bytecode + closure ASTs to one source unit.
 *
 * Two layers, mirroring the interpreter split:
 *
 *  - The *region translator* turns each FuseProgram instruction into a
 *    labeled block `L<i>: { ... }`; control flow is direct `goto`s for
 *    static targets and a `switch (pc)` dispatch for the dynamic ones
 *    (channel continuations, re-entry after a park).  LUT lookups on the
 *    per-bit path are unrolled in place against the host-owned table.
 *    The generated function is a faithful transcription of
 *    FusedNode::advance — every branch, spin reset and memcpy appears in
 *    the same order, so parked pcs, channel protocol state and outputs
 *    are bit-identical.
 *
 *  - The *expression emitter* re-emits the closure ASTs recorded by the
 *    lowerer (FuseProgram::intoSrc/intSrc/actionSrc) as straight-line
 *    C++, transcribing zexpr/compile_expr.cc case by case: same
 *    evaluation order (explicit temporaries defeat C++'s unspecified
 *    argument order), same truncation and shift semantics, same runtime
 *    diagnostics (traps call back into the host, which throws the
 *    exact fatalf the interpreter would).  Complex operators and the
 *    built-in natives are one call each into the runtime both sides
 *    share.  Anything it cannot express — unknown natives, exotic
 *    shapes — throws Unsupported and the closure is bridged back to
 *    the host std::function instead, so emission never changes
 *    semantics, only speed.
 *
 * A unit is self-contained: zcgen/runtime.h embedded verbatim (CMake
 * turns it into the string literal runtime.inc), the ABI stamp, then
 * the region.
 *
 * Layout note: jumping over C++ initializations is ill-formed, which is
 * why every instruction body lives in its own brace block with the
 * label *outside* — all jumps land at block entries.
 */
#include "zcgen/emit.h"

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>

#include "support/panic.h"
#include "zast/comp.h"
#include "zcgen/abi.h"
#include "zexpr/natives.h"
#include "ztype/value.h"

namespace ziria {
namespace zcgen {

namespace {

using zfuse::FuseProgram;
using zfuse::Instr;
using zfuse::Op;
using zfuse::kFrameBit;
using zfuse::kNoTarget;

/** Thrown when a closure AST has a shape the emitter does not cover. */
struct Unsupported
{
    const char* why;
};

int
bitsOfKind(TypeKind k)
{
    switch (k) {
      case TypeKind::Bit:
      case TypeKind::Bool:
        return 1;
      case TypeKind::Int8:
        return 8;
      case TypeKind::Int16:
        return 16;
      case TypeKind::Int32:
        return 32;
      case TypeKind::Int64:
        return 64;
      default:
        throw Unsupported{"bitsOfKind: not integral"};
    }
}

std::string
num(uint64_t v)
{
    return std::to_string(v);
}

/** An int64_t literal that round-trips INT64_MIN. */
std::string
intLit(int64_t v)
{
    if (v == INT64_MIN)
        return "(-INT64_C(9223372036854775807) - 1)";
    return "INT64_C(" + std::to_string(v) + ")";
}

/**
 * Emits statements for one closure (or a fragment of one region).  All
 * methods transcribe the matching ExprCompiler::compile* case; the
 * returned strings are names of already-computed temporaries, so
 * sequencing the emitted statements reproduces the closures' evaluation
 * order exactly.
 */
class CppEmitter
{
  public:
    CppEmitter(const FrameLayout& layout, int indent)
        : layout_(layout), ind_(indent)
    {
    }

    std::string take() { return std::move(body_); }

    /** Append one already-formed statement (region glue, e.g. EvalInt). */
    void raw(const std::string& s) { line(s); }

    // ---- statements (compileStmt / compileStmts) ---------------------

    void
    stmtList(const StmtList& stmts)
    {
        for (const auto& s : stmts)
            stmt(s);
    }

    void
    stmt(const StmtPtr& s)
    {
        switch (s->kind()) {
          case StmtKind::Assign: {
            const auto& a = static_cast<const AssignStmt&>(*s);
            const TypePtr& t = a.lhs()->type();
            if (t->isScalar()) {
                // Scalar: address first, then the value written through
                // it — the closure is `rhs(f, addr(f))`.
                std::string ad = addrExpr(a.lhs());
                intoExpr(a.rhs(), ad);
                return;
            }
            // Aggregates go through scratch (memmove semantics for
            // self-overlap); the closure computes rhs first, addr after.
            size_t w = t->byteWidth();
            std::string sc = declBuf(w);
            intoExpr(a.rhs(), sc);
            std::string ad = addrExpr(a.lhs());
            line("memcpy(" + ad + ", " + sc + ", " + num(w) + ");");
            return;
          }
          case StmtKind::If: {
            const auto& i = static_cast<const IfStmt&>(*s);
            std::string c = intExpr(i.cond());
            line("if (" + c + ") {");
            indented([&] { stmtList(i.thenStmts()); });
            line("} else {");
            indented([&] { stmtList(i.elseStmts()); });
            line("}");
            return;
          }
          case StmtKind::For: {
            const auto& fo = static_cast<const ForStmt&>(*s);
            std::string ivCell = cell(fo.inductionVar());
            TypeKind ivk = fo.inductionVar()->type->kind();
            // hi is evaluated once, before lo (closure order).
            std::string h = intExpr(fo.hi());
            std::string l = intExpr(fo.lo());
            std::string iv = fresh();
            line("for (int64_t " + iv + " = " + l + "; " + iv + " < " +
                 h + "; ++" + iv + ") {");
            indented([&] {
                store(ivk, ivCell, iv);  // writeIntRaw
                stmtList(fo.body());
            });
            line("}");
            return;
          }
          case StmtKind::While: {
            const auto& w = static_cast<const WhileStmt&>(*s);
            line("for (;;) {");
            indented([&] {
                std::string c = intExpr(w.cond());
                line("if (!" + c + ") break;");
                stmtList(w.body());
            });
            line("}");
            return;
          }
          case StmtKind::VarDecl: {
            const auto& d = static_cast<const VarDeclStmt&>(*s);
            std::string c = cell(d.var());
            size_t w = d.var()->type->byteWidth();
            if (d.init())
                intoExpr(d.init(), c);
            else
                line("memset(" + c + ", 0, " + num(w) + ");");
            return;
          }
          case StmtKind::Eval: {
            const auto& ev = static_cast<const EvalStmt&>(*s);
            size_t w = ev.expr()->type()->byteWidth();
            std::string sc = declBuf(w > 0 ? w : 1);
            intoExpr(ev.expr(), sc);
            return;
          }
        }
        throw Unsupported{"unknown stmt kind"};
    }

    // ---- integral expressions (compileInt) ---------------------------

    std::string
    intExpr(const ExprPtr& e)
    {
        const TypePtr& t = e->type();
        if (!t->isIntegral())
            throw Unsupported{"intExpr on non-integral type"};
        TypeKind k = t->kind();

        switch (e->kind()) {
          case ExprKind::Const: {
            int64_t v = static_cast<const ConstExpr&>(*e).value().asInt();
            return declInt(intLit(v));
          }
          case ExprKind::Var: {
            return declInt(
                load(k, cell(static_cast<const VarExpr&>(*e).var())));
          }
          case ExprKind::Bin:
            return binInt(static_cast<const BinExpr&>(*e), k);
          case ExprKind::Un: {
            const auto& u = static_cast<const UnExpr&>(*e);
            std::string sa = intExpr(u.sub());
            switch (u.op()) {
              case UnOp::Neg:
                return declInt(trunc(k, "(-" + sa + ")"));
              case UnOp::BNot:
                return declInt(trunc(k, "(~" + sa + ")"));
              case UnOp::LNot:
                return declInt("(int64_t)!" + sa);
            }
            throw Unsupported{"unhandled int unop"};
          }
          case ExprKind::Cast: {
            const auto& c = static_cast<const CastExpr&>(*e);
            const TypePtr& from = c.sub()->type();
            if (from->isIntegral()) {
                std::string sa = intExpr(c.sub());
                return declInt(trunc(k, sa));
            }
            if (!from->isDouble())
                throw Unsupported{"int cast from non-numeric"};
            std::string sa = dblExpr(c.sub());
            std::string r = declIntUninit();
            line("if (!std::isfinite(" + sa + ")) " + r +
                 " = 0; else " + r + " = " +
                 trunc(k, "(int64_t)" + sa) + ";");
            return r;
          }
          case ExprKind::Index:
          case ExprKind::Field: {
            std::string r = refExpr(e);
            return declInt(load(k, r));
          }
          case ExprKind::Call:
            return callInt(static_cast<const CallExpr&>(*e), k);
          case ExprKind::Cond: {
            const auto& c = static_cast<const CondExpr&>(*e);
            std::string cc = intExpr(c.cond());
            std::string r = declIntUninit();
            line("if (" + cc + ") {");
            indented([&] {
                std::string tt = intExpr(c.thenE());
                line(r + " = " + tt + ";");
            });
            line("} else {");
            indented([&] {
                std::string ee = intExpr(c.elseE());
                line(r + " = " + ee + ";");
            });
            line("}");
            return r;
          }
          default:
            throw Unsupported{"unexpected int expr kind"};
        }
    }

    // ---- double expressions (compileDbl) -----------------------------

    std::string
    dblExpr(const ExprPtr& e)
    {
        if (!e->type()->isDouble())
            throw Unsupported{"dblExpr on non-double type"};
        switch (e->kind()) {
          case ExprKind::Const: {
            // Reproduce the exact bit pattern, not a decimal rounding.
            double v =
                static_cast<const ConstExpr&>(*e).value().asDouble();
            uint64_t bits;
            std::memcpy(&bits, &v, 8);
            char buf[32];
            std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                          static_cast<unsigned long long>(bits));
            std::string r = fresh();
            line("double " + r + "; { uint64_t zb = " + buf +
                 "; memcpy(&" + r + ", &zb, 8); }");
            return r;
          }
          case ExprKind::Var: {
            return declDbl("zr_ldd(" +
                           cell(static_cast<const VarExpr&>(*e).var()) +
                           ")");
          }
          case ExprKind::Bin: {
            const auto& b = static_cast<const BinExpr&>(*e);
            std::string a = dblExpr(b.lhs());
            std::string c = dblExpr(b.rhs());
            const char* op;
            switch (b.op()) {
              case BinOp::Add: op = "+"; break;
              case BinOp::Sub: op = "-"; break;
              case BinOp::Mul: op = "*"; break;
              case BinOp::Div: op = "/"; break;
              default:
                throw Unsupported{"unhandled double binop"};
            }
            return declDbl("(" + a + " " + op + " " + c + ")");
          }
          case ExprKind::Un: {
            const auto& u = static_cast<const UnExpr&>(*e);
            if (u.op() != UnOp::Neg)
                throw Unsupported{"unhandled double unop"};
            return declDbl("(-" + dblExpr(u.sub()) + ")");
          }
          case ExprKind::Cast: {
            const auto& c = static_cast<const CastExpr&>(*e);
            if (!c.sub()->type()->isIntegral())
                throw Unsupported{"double cast from non-integral"};
            return declDbl("(double)" + intExpr(c.sub()));
          }
          case ExprKind::Index:
          case ExprKind::Field:
            return declDbl("zr_ldd(" + refExpr(e) + ")");
          case ExprKind::Call:
            return callDbl(static_cast<const CallExpr&>(*e));
          case ExprKind::Cond: {
            const auto& c = static_cast<const CondExpr&>(*e);
            std::string cc = intExpr(c.cond());
            std::string r = fresh();
            line("double " + r + ";");
            line("if (" + cc + ") {");
            indented([&] { line(r + " = " + dblExpr(c.thenE()) + ";"); });
            line("} else {");
            indented([&] { line(r + " = " + dblExpr(c.elseE()) + ";"); });
            line("}");
            return r;
          }
          default:
            throw Unsupported{"unexpected double expr kind"};
        }
    }

    // ---- evaluate-into (compileInto) ---------------------------------

    void
    intoExpr(const ExprPtr& e, const std::string& dst)
    {
        const TypePtr& t = e->type();
        if (t->isUnit()) {
            if (e->kind() == ExprKind::Call)
                callInto(static_cast<const CallExpr&>(*e), dst);
            return;
        }
        if (t->isIntegral()) {
            std::string v = intExpr(e);
            store(t->kind(), dst, v);
            return;
        }
        if (t->isDouble()) {
            std::string v = dblExpr(e);
            line("zr_std(" + dst + ", " + v + ");");
            return;
        }
        if (t->isComplex()) {
            switch (e->kind()) {
              case ExprKind::Bin:
                binComplex(static_cast<const BinExpr&>(*e), t, dst);
                return;
              case ExprKind::Un: {
                const auto& u = static_cast<const UnExpr&>(*e);
                if (u.op() != UnOp::Neg)
                    throw Unsupported{"unhandled complex unop"};
                bool c16 = t->kind() == TypeKind::Complex16;
                std::string ba = declBuf(8);
                intoExpr(u.sub(), ba);
                storeC(c16, dst, "zr_cneg(" + loadC(c16, ba) + ")");
                return;
              }
              case ExprKind::Cast: {
                const auto& c = static_cast<const CastExpr&>(*e);
                const TypePtr& from = c.sub()->type();
                if (!from->isComplex())
                    throw Unsupported{"complex cast from non-complex"};
                std::string ba = declBuf(8);
                intoExpr(c.sub(), ba);
                std::string a =
                    loadC(from->kind() == TypeKind::Complex16, ba);
                if (t->kind() == TypeKind::Complex16)
                    storeC(true, dst, "zr_csat16(" + a + ")");
                else
                    storeC(false, dst, a);
                return;
              }
              default:
                break;  // generic cases below
            }
        }

        // Generic cases (complex leaves, arrays, structs).
        switch (e->kind()) {
          case ExprKind::Const: {
            std::vector<uint8_t> bytes =
                static_cast<const ConstExpr&>(*e).value().bytes();
            line("memcpy(" + dst + ", " + constImage(bytes) + ", " +
                 num(bytes.size()) + ");");
            return;
          }
          case ExprKind::Var:
          case ExprKind::Index:
          case ExprKind::Slice:
          case ExprKind::Field: {
            std::string r = refExpr(e);
            line("memmove(" + dst + ", " + r + ", " +
                 num(t->byteWidth()) + ");");
            return;
          }
          case ExprKind::ArrayLit: {
            const auto& a = static_cast<const ArrayLitExpr&>(*e);
            size_t ew = t->elem()->byteWidth();
            for (size_t i = 0; i < a.elems().size(); ++i)
                intoExpr(a.elems()[i],
                         "(" + dst + " + " + num(i * ew) + ")");
            return;
          }
          case ExprKind::StructLit: {
            const auto& sl = static_cast<const StructLitExpr&>(*e);
            size_t off = 0;
            for (size_t i = 0; i < sl.fieldExprs().size(); ++i) {
                intoExpr(sl.fieldExprs()[i],
                         "(" + dst + " + " + num(off) + ")");
                off += t->fields()[i].second->byteWidth();
            }
            return;
          }
          case ExprKind::Call:
            callInto(static_cast<const CallExpr&>(*e), dst);
            return;
          case ExprKind::Cond: {
            const auto& c = static_cast<const CondExpr&>(*e);
            std::string cc = intExpr(c.cond());
            line("if (" + cc + ") {");
            indented([&] { intoExpr(c.thenE(), dst); });
            line("} else {");
            indented([&] { intoExpr(c.elseE(), dst); });
            line("}");
            return;
          }
          default:
            throw Unsupported{"unexpected into expr kind"};
        }
    }

  private:
    // ---- references (compileRef / compileAddr) -----------------------

    std::string
    refExpr(const ExprPtr& e)
    {
        switch (e->kind()) {
          case ExprKind::Var:
          case ExprKind::Index:
          case ExprKind::Slice:
          case ExprKind::Field:
            return addrExpr(e);
          case ExprKind::Const: {
            // Read a constant aggregate in place.  Lvalue chains are
            // rooted at variables (zcheck), so nothing writes through
            // the pointer.
            std::vector<uint8_t> bytes =
                static_cast<const ConstExpr&>(*e).value().bytes();
            if (!bytes.empty())
                return "((uint8_t*)" + constImage(bytes) + ")";
            break;
          }
          default:
            break;
        }
        // Materialize the rvalue into local scratch.
        size_t w = e->type()->byteWidth();
        std::string buf = declBuf(w > 0 ? w : 1);
        intoExpr(e, buf);
        return buf;
    }

    /** Whether @p e is an integer literal within [lo, hi]. */
    static bool
    literalIn(const ExprPtr& e, long lo, long hi)
    {
        if (e->kind() != ExprKind::Const)
            return false;
        int64_t v = static_cast<const ConstExpr&>(*e).value().asInt();
        return v >= lo && v <= hi;
    }

    std::string
    addrExpr(const ExprPtr& e)
    {
        switch (e->kind()) {
          case ExprKind::Var: {
            return declPtr(cell(static_cast<const VarExpr&>(*e).var()));
          }
          case ExprKind::Index: {
            const auto& i = static_cast<const IndexExpr&>(*e);
            size_t w = e->type()->byteWidth();
            long n = i.arr()->type()->len();
            // Index first, bounds check, then the base address —
            // closure order (compileAddr).  A literal index already
            // known in range needs no check; one out of range keeps it
            // and traps when reached, as the closure does.
            std::string k = intExpr(i.idx());
            if (!literalIn(i.idx(), 0, n - 1))
                line("if (" + k + " < 0 || " + k + " >= " + num(n) +
                     ") zr_trap_index(zc, " + k + ", " + num(n) + ");");
            std::string base = refExpr(i.arr());
            return declPtr(base + " + (size_t)" + k + " * " + num(w));
          }
          case ExprKind::Slice: {
            const auto& s = static_cast<const SliceExpr&>(*e);
            size_t w = s.arr()->type()->elem()->byteWidth();
            long n = s.arr()->type()->len();
            long len = s.sliceLen();
            std::string k = intExpr(s.base());
            if (!literalIn(s.base(), 0, n - len))
                line("if (" + k + " < 0 || " + k + " + " + num(len) +
                     " > " + num(n) + ") zr_trap_slice(zc, " + k + ", " +
                     k + " + " + num(len) + ", " + num(n) + ");");
            std::string base = refExpr(s.arr());
            return declPtr(base + " + (size_t)" + k + " * " + num(w));
          }
          case ExprKind::Field: {
            const auto& fe = static_cast<const FieldExpr&>(*e);
            long off = fe.rec()->type()->fieldOffset(fe.field());
            if (off < 0)
                throw Unsupported{"unknown struct field"};
            std::string base = refExpr(fe.rec());
            return declPtr(base + " + " + num(off));
          }
          default:
            throw Unsupported{"not an lvalue"};
        }
    }

    // ---- binary operators --------------------------------------------

    std::string
    binInt(const BinExpr& b, TypeKind k)
    {
        const TypePtr& ot = b.lhs()->type();
        switch (b.op()) {
          case BinOp::Eq:
          case BinOp::Ne: {
            const char* op = b.op() == BinOp::Eq ? "==" : "!=";
            if (ot->isIntegral()) {
                std::string a = intExpr(b.lhs());
                std::string c = intExpr(b.rhs());
                return declInt("(int64_t)(" + a + " " + op + " " + c +
                               ")");
            }
            if (ot->isDouble()) {
                std::string a = dblExpr(b.lhs());
                std::string c = dblExpr(b.rhs());
                return declInt("(int64_t)(" + a + " " + op + " " + c +
                               ")");
            }
            // complex: bitwise comparison of the fixed-point pairs
            size_t w = ot->byteWidth();
            std::string ba = declBuf(8);
            std::string bb = declBuf(8);
            intoExpr(b.lhs(), ba);
            intoExpr(b.rhs(), bb);
            return declInt("(int64_t)(memcmp(" + ba + ", " + bb + ", " +
                           num(w) + ") " + op + " 0)");
          }
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge: {
            const char* op = b.op() == BinOp::Lt   ? "<"
                             : b.op() == BinOp::Le ? "<="
                             : b.op() == BinOp::Gt ? ">"
                                                   : ">=";
            if (ot->isDouble()) {
                std::string a = dblExpr(b.lhs());
                std::string c = dblExpr(b.rhs());
                return declInt("(int64_t)(" + a + " " + op + " " + c +
                               ")");
            }
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            return declInt("(int64_t)(" + a + " " + op + " " + c + ")");
          }
          case BinOp::LAnd: {
            std::string a = intExpr(b.lhs());
            std::string r = declIntUninit();
            line("if (" + a + ") {");
            indented([&] {
                line(r + " = " + intExpr(b.rhs()) + ";");
            });
            line("} else {");
            indented([&] { line(r + " = 0;"); });
            line("}");
            return r;
          }
          case BinOp::LOr: {
            std::string a = intExpr(b.lhs());
            std::string r = declIntUninit();
            line("if (" + a + ") {");
            indented([&] { line(r + " = 1;"); });
            line("} else {");
            indented([&] {
                line(r + " = " + intExpr(b.rhs()) + ";");
            });
            line("}");
            return r;
          }
          case BinOp::Add:
          case BinOp::Sub:
          case BinOp::Mul: {
            const char* op = b.op() == BinOp::Add   ? "+"
                             : b.op() == BinOp::Sub ? "-"
                                                    : "*";
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            std::string raw = "(" + a + " " + op + " " + c + ")";
            if (k == TypeKind::Int32)
                return declInt("(int64_t)(int32_t)" + raw);
            return declInt(trunc(k, raw));
          }
          case BinOp::Div: {
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            line("if (" + c +
                 " == 0) zr_trap_msg(zc, \"division by zero\");");
            std::string r = declIntUninit();
            line("if (" + c + " == -1) " + r + " = " +
                 trunc(k, "(-" + a + ")") + "; else " + r + " = " +
                 trunc(k, "(" + a + " / " + c + ")") + ";");
            return r;
          }
          case BinOp::Rem: {
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            line("if (" + c +
                 " == 0) zr_trap_msg(zc, \"remainder by zero\");");
            std::string r = declIntUninit();
            line("if (" + c + " == -1) " + r + " = 0; else " + r +
                 " = " + trunc(k, "(" + a + " % " + c + ")") + ";");
            return r;
          }
          case BinOp::Shl: {
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            int w = bitsOfKind(k);
            std::string r = declIntUninit();
            line("if (" + c + " < 0 || " + c + " >= " + num(w) + ") " +
                 r + " = 0; else " + r + " = " +
                 trunc(k, "(int64_t)((uint64_t)" + a + " << " + c +
                              ")") +
                 ";");
            return r;
          }
          case BinOp::Shr: {
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            int w = bitsOfKind(k);
            std::string r = declIntUninit();
            line("if (" + c + " < 0) " + r + " = 0; else if (" + c +
                 " >= " + num(w) + ") " + r + " = (" + a +
                 " < 0 ? -1 : 0); else " + r + " = (" + a + " >> " + c +
                 ");");
            return r;
          }
          case BinOp::BAnd:
          case BinOp::BOr:
          case BinOp::BXor: {
            const char* op = b.op() == BinOp::BAnd  ? "&"
                             : b.op() == BinOp::BOr ? "|"
                                                    : "^";
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            return declInt("(" + a + " " + op + " " + c + ")");
          }
        }
        throw Unsupported{"unhandled int binop"};
    }

    void
    binComplex(const BinExpr& b, const TypePtr& t, const std::string& dst)
    {
        bool c16 = t->kind() == TypeKind::Complex16;
        std::string ba = declBuf(8);
        intoExpr(b.lhs(), ba);
        if (b.op() == BinOp::Shl || b.op() == BinOp::Shr) {
            std::string sh = intExpr(b.rhs());
            const char* fn = b.op() == BinOp::Shl ? "zr_cshl(" : "zr_cshr(";
            storeC(c16, dst, fn + loadC(c16, ba) + ", " + sh + ")");
            return;
        }
        std::string bb = declBuf(8);
        intoExpr(b.rhs(), bb);
        const char* fn = b.op() == BinOp::Add   ? "zr_cadd("
                         : b.op() == BinOp::Sub ? "zr_csub("
                         : b.op() == BinOp::Mul ? "zr_cmul("
                                                : nullptr;
        if (!fn) {
            // The closure fatals at run time after evaluating both
            // operands; reproduce that.
            line("zr_trap_msg(zc, \"complex operator not supported\");");
            return;
        }
        storeC(c16, dst,
               fn + loadC(c16, ba) + ", " + loadC(c16, bb) + ")");
    }

    // ---- calls (prepareCall / compileCall*) --------------------------

    /**
     * Inline a non-native call: emit by-value argument stores (in arg
     * order) and the body, return the cloned return expression (null
     * for unit functions).  By-ref parameters are substituted with the
     * argument lvalues, exactly as prepareCall does.
     */
    ExprPtr
    prepare(const CallExpr& c)
    {
        const FunRef& f = c.fun();
        std::vector<ExprPtr> substArgs(c.args().size());
        for (size_t i = 0; i < c.args().size(); ++i) {
            if (f->paramByRef(i))
                substArgs[i] = c.args()[i];
        }
        InlinedFun inl = inlineFun(f, substArgs);
        for (size_t i = 0; i < c.args().size(); ++i) {
            if (f->paramByRef(i))
                continue;
            intoExpr(c.args()[i], cell(inl.params[i]));
        }
        stmtList(inl.body);
        return inl.ret;
    }

    void
    nativeCall(const CallExpr& c, const std::string& dst)
    {
        // Only a built-in itself has a runtime body; a host native that
        // merely shares its name keeps its own (bridged).
        const std::string& name = c.fun()->name;
        if (natives::lookup(name) != c.fun())
            throw Unsupported{"not a built-in native"};
        std::vector<std::string> refs;
        refs.reserve(c.args().size());
        for (const auto& a : c.args())
            refs.push_back(refExpr(a));
        std::string argv;
        for (size_t i = 0; i < refs.size(); ++i) {
            if (i)
                argv += ", ";
            argv += refs[i];
        }
        line("{ const uint8_t* zargs[] = {" + argv + "}; zr_nat_" +
             name + "(zargs, " + dst + "); }");
    }

    void
    callInto(const CallExpr& c, const std::string& dst)
    {
        if (c.fun()->isNative()) {
            nativeCall(c, dst);
            return;
        }
        ExprPtr ret = prepare(c);
        if (ret)
            intoExpr(ret, dst);
    }

    std::string
    callInt(const CallExpr& c, TypeKind k)
    {
        if (c.fun()->isNative()) {
            std::string buf = declBuf(8);
            nativeCall(c, buf);
            return declInt(load(k, buf));  // readIntRaw
        }
        ExprPtr ret = prepare(c);
        if (!ret)
            throw Unsupported{"int-typed call with no return"};
        return intExpr(ret);
    }

    std::string
    callDbl(const CallExpr& c)
    {
        if (c.fun()->isNative()) {
            std::string buf = declBuf(8);
            nativeCall(c, buf);
            return declDbl("zr_ldd(" + buf + ")");
        }
        ExprPtr ret = prepare(c);
        if (!ret)
            throw Unsupported{"double-typed call with no return"};
        return dblExpr(ret);
    }

    // ---- load/store/truncate by integral kind ------------------------

    std::string
    load(TypeKind k, const std::string& p)
    {
        switch (k) {
          case TypeKind::Bit:
          case TypeKind::Bool:
            return "(int64_t)*(" + p + ")";
          case TypeKind::Int8:
            return "zr_ld8(" + p + ")";
          case TypeKind::Int16:
            return "zr_ld16(" + p + ")";
          case TypeKind::Int32:
            return "zr_ld32(" + p + ")";
          case TypeKind::Int64:
            return "zr_ld64(" + p + ")";
          default:
            throw Unsupported{"load: not integral"};
        }
    }

    void
    store(TypeKind k, const std::string& p, const std::string& v)
    {
        switch (k) {
          case TypeKind::Bit:
          case TypeKind::Bool:
            line("*(" + p + ") = (uint8_t)(" + v + " & 1);");
            return;
          case TypeKind::Int8:
            line("zr_st8(" + p + ", " + v + ");");
            return;
          case TypeKind::Int16:
            line("zr_st16(" + p + ", " + v + ");");
            return;
          case TypeKind::Int32:
            line("zr_st32(" + p + ", " + v + ");");
            return;
          case TypeKind::Int64:
            line("zr_st64(" + p + ", " + v + ");");
            return;
          default:
            throw Unsupported{"store: not integral"};
        }
    }

    std::string
    trunc(TypeKind k, const std::string& v)
    {
        switch (k) {
          case TypeKind::Bit:
          case TypeKind::Bool:
            return "(" + v + " & 1)";
          case TypeKind::Int8:
            return "(int64_t)(int8_t)" + v;
          case TypeKind::Int16:
            return "(int64_t)(int16_t)" + v;
          case TypeKind::Int32:
            return "(int64_t)(int32_t)" + v;
          case TypeKind::Int64:
            return v;
          default:
            throw Unsupported{"trunc: not integral"};
        }
    }

    // ---- small emission helpers --------------------------------------

    std::string
    fresh()
    {
        return "z" + std::to_string(tmp_++);
    }

    void
    line(const std::string& s)
    {
        body_.append(static_cast<size_t>(ind_) * 2, ' ');
        body_ += s;
        body_ += "\n";
    }

    template <typename F>
    void
    indented(F&& f)
    {
        ++ind_;
        f();
        --ind_;
    }

    std::string
    declInt(const std::string& expr)
    {
        std::string r = fresh();
        line("int64_t " + r + " = " + expr + ";");
        return r;
    }

    std::string
    declIntUninit()
    {
        std::string r = fresh();
        line("int64_t " + r + ";");
        return r;
    }

    std::string
    declDbl(const std::string& expr)
    {
        std::string r = fresh();
        line("double " + r + " = " + expr + ";");
        return r;
    }

    std::string
    declPtr(const std::string& expr)
    {
        std::string r = fresh();
        line("uint8_t* " + r + " = " + expr + ";");
        return r;
    }

    std::string
    declBuf(size_t w)
    {
        std::string r = fresh();
        line("alignas(8) uint8_t " + r + "[" + num(w) + "];");
        return r;
    }

    /** A `static const` image of @p bytes (non-empty); its name. */
    std::string
    constImage(const std::vector<uint8_t>& bytes)
    {
        std::string name = fresh();
        std::string init;
        for (size_t i = 0; i < bytes.size(); ++i) {
            if (i)
                init += ",";
            init += std::to_string(bytes[i]);
        }
        line("static const uint8_t " + name + "[] = {" + init + "};");
        return name;
    }

    /** The runtime's load of the complex value at @p buf. */
    static std::string
    loadC(bool c16, const std::string& buf)
    {
        return std::string("zr_ldc(") + (c16 ? "1" : "0") + ", " + buf +
               ")";
    }

    void
    storeC(bool c16, const std::string& dst, const std::string& v)
    {
        line("zr_stc(" + std::string(c16 ? "1" : "0") + ", " + dst +
             ", " + v + ");");
    }

    std::string
    frAt(size_t off)
    {
        return "(fr + " + num(off) + ")";
    }

    /**
     * The cell of @p v.  Variables the closures use live in the frame.
     * The parameters and locals of a function inlined here are fresh
     * clones no closure ever allocated; they are dead at every park
     * point, so they become C++ locals rather than new frame cells.
     * Fused and native builds thus share one frame layout, which keeps
     * their snapshots interchangeable.
     */
    std::string
    cell(const VarRef& v)
    {
        if (layout_.has(v.get()))
            return frAt(layout_.offsetOf(v.get()));
        auto it = locals_.find(v.get());
        if (it == locals_.end()) {
            size_t w = v->type->byteWidth();
            it = locals_.emplace(v.get(), declBuf(w > 0 ? w : 1)).first;
        }
        return it->second;
    }

    const FrameLayout& layout_;
    int ind_;
    int tmp_ = 0;
    std::string body_;
    std::map<const VarSym*, std::string> locals_;
};

// -----------------------------------------------------------------------
// Region translation
// -----------------------------------------------------------------------

/** Translates one FuseProgram into kRegionSymbol. */
class RegionEmitter
{
  public:
    RegionEmitter(const FuseProgram& p, const FrameLayout& layout)
        : p_(p), layout_(layout)
    {
    }

    int hostBridges() const { return bridges_; }

    std::string
    emit()
    {
        out_ += std::string("extern \"C\" int ") + kRegionSymbol +
                "(ZrCtx* zc)\n{\n";
        out_ += "  uint8_t* const fr = zc->fr; (void)fr;\n";
        out_ += "  uint8_t* const st = zc->st; (void)st;\n";
        out_ += "  int64_t* const regs = zc->regs; (void)regs;\n";
        out_ += "  uint64_t spins = zc->spins;\n";
        out_ += "  uint32_t pc = zc->pc;\n";
        out_ += "zdispatch:\n";
        out_ += "  switch (pc) {\n";
        for (size_t i = 0; i < p_.instrs.size(); ++i)
            out_ += "    case " + std::to_string(i) + ": goto L" +
                    std::to_string(i) + ";\n";
        out_ += "    default: zr_trap_msg(zc, \"cgen: bad pc\"); "
                "return 2;\n";
        out_ += "  }\n";
        for (size_t i = 0; i < p_.instrs.size(); ++i)
            instr(static_cast<uint32_t>(i));
        // A well-formed program never falls off the end (it halts or
        // loops), but give stray `goto L<n>` a defined landing pad.
        out_ += "L" + std::to_string(p_.instrs.size()) + ":\n";
        out_ += "  zr_trap_msg(zc, \"cgen: pc off end\");\n";
        out_ += "  return 2;\n";
        out_ += "}\n";
        return std::move(out_);
    }

  private:
    std::string
    loc(uint32_t enc)
    {
        if (enc & kFrameBit)
            return "(fr + " + num(enc & ~kFrameBit) + ")";
        return "(st + " + num(enc) + ")";
    }

    std::string
    label(uint64_t i)
    {
        return "L" + std::to_string(i);
    }

    void
    ln(const std::string& s)
    {
        out_ += "  " + s + "\n";
    }

    /**
     * Emit a closure site: try straight-line C++ from the recorded
     * source AST; fall back to a host-callback bridge on any shape the
     * emitter does not cover (or when no source was recorded).
     */
    template <typename F>
    bool
    tryClosure(F&& f)
    {
        CppEmitter ce(layout_, 1);
        try {
            f(ce);
        } catch (const Unsupported&) {
            return false;
        }
        out_ += ce.take();
        return true;
    }

    void
    instr(uint32_t pc)
    {
        const Instr& i = p_.instrs[pc];
        const std::string I = num(pc);
        const std::string next = label(pc + 1);
        out_ += label(pc) + ": {\n";
        switch (i.op) {
          case Op::TakeExt:
            ln("if (regs[" + num(i.c) + "]) { regs[" + num(i.c) +
               "] = 0; spins = 0; goto " + next + "; }");
            ln("if (zc->inCur != zc->inEnd) { memcpy(" + loc(i.a) +
               ", zc->inCur, " + num(i.b) + "); zc->inCur += " +
               num(i.b) + "; spins = 0; goto " + next + "; }");
            ln("zc->pc = " + I + "; zc->spins = spins; return 1;");
            break;
          case Op::TakeManyExt: {
            const std::string have = "regs[" + num(i.c) + "]";
            ln("if (" + have + " < " + intLit(i.d) +
               " && zc->inCur != zc->inEnd) {");
            ln("  size_t k = (size_t)(zc->inEnd - zc->inCur) / " +
               num(i.b) + ", need = (size_t)(" + intLit(i.d) + " - " +
               have + ");");
            ln("  if (k > need) k = need;");
            ln("  memcpy(" + loc(i.a) + " + " + have + " * " + num(i.b) +
               ", zc->inCur, k * " + num(i.b) + "); zc->inCur += k * " +
               num(i.b) + "; " + have + " += (int64_t)k;");
            ln("}");
            ln("if (" + have + " >= " + intLit(i.d) +
               ") { spins = 0; goto " + next + "; }");
            ln("zc->pc = " + I + "; zc->spins = spins; return 1;");
            break;
          }
          case Op::TakeCh: {
            const std::string buf =
                "(st + " + num(p_.channels[i.c].bufOff) + ")";
            ln("if (zc->chFull[" + num(i.c) + "]) {");
            ln("  memcpy(" + loc(i.a) + ", " + buf + ", " + num(i.b) +
               ");");
            ln("  zc->chFull[" + num(i.c) +
               "] = 0; spins = 0; goto " + next + ";");
            ln("}");
            ln("zc->chConsPc[" + num(i.c) + "] = " + I +
               "; spins = 0; pc = zc->chProdPc[" + num(i.c) +
               "]; goto zdispatch;");
            break;
          }
          case Op::TakeManyCh: {
            const std::string buf =
                "(st + " + num(p_.channels[i.c].bufOff) + ")";
            ln("if (regs[" + num(i.e) + "] >= " + intLit(i.d) +
               ") { spins = 0; goto " + next + "; }");
            ln("if (zc->chFull[" + num(i.c) + "]) {");
            ln("  memcpy(" + loc(i.a) + " + regs[" + num(i.e) + "] * " +
               num(i.b) + ", " + buf + ", " + num(i.b) + ");");
            ln("  ++regs[" + num(i.e) + "]; zc->chFull[" + num(i.c) +
               "] = 0; spins = 0; goto " + label(pc) + ";");
            ln("}");
            ln("zc->chConsPc[" + num(i.c) + "] = " + I +
               "; pc = zc->chProdPc[" + num(i.c) + "]; goto zdispatch;");
            break;
          }
          case Op::EmitExt: {
            const std::string w = num(p_.outWidth);
            ln("zc->outPtr = " + loc(i.a) + ";");
            ln("if (zc->outCur != zc->outEnd) { memcpy(zc->outCur, " +
               loc(i.a) + ", " + w + "); zc->outCur += " + w +
               "; spins = 0; goto " + next + "; }");
            ln("zc->spins = 0; zc->pc = " + num(pc + 1) + "; return 0;");
            break;
          }
          case Op::EmitChSig:
            ln("zc->chFull[" + num(i.a) + "] = 1; zc->chProdPc[" +
               num(i.a) + "] = " + num(pc + 1) +
               "; spins = 0; pc = zc->chConsPc[" + num(i.a) +
               "]; goto zdispatch;");
            break;
          case Op::EmitCh: {
            const std::string buf =
                "(st + " + num(p_.channels[i.c].bufOff) + ")";
            ln("memcpy(" + buf + ", " + loc(i.a) + ", " + num(i.b) +
               ");");
            ln("zc->chFull[" + num(i.c) + "] = 1; zc->chProdPc[" +
               num(i.c) + "] = " + num(pc + 1) +
               "; spins = 0; pc = zc->chConsPc[" + num(i.c) +
               "]; goto zdispatch;");
            break;
          }
          case Op::EmitsExt: {
            const std::string idx = "regs[" + num(i.c) + "]";
            ln("if (" + idx + " >= " + intLit(i.d) + ") goto " +
               label(i.e) + ";");
            ln("if (zc->outCur != zc->outEnd) {");
            ln("  size_t k = (size_t)(zc->outEnd - zc->outCur) / " +
               num(i.b) + ", left = (size_t)(" + intLit(i.d) + " - " +
               idx + ");");
            ln("  if (k > left) k = left;");
            ln("  memcpy(zc->outCur, " + loc(i.a) + " + " + idx + " * " +
               num(i.b) + ", k * " + num(i.b) + "); zc->outCur += k * " +
               num(i.b) + "; " + idx + " += (int64_t)k;");
            ln("  zc->outPtr = " + loc(i.a) + " + (" + idx + " - 1) * " +
               num(i.b) + "; spins = 0; goto " + label(pc) + ";");
            ln("}");
            ln("zc->outPtr = " + loc(i.a) + " + " + idx + " * " +
               num(i.b) + ";");
            ln("++" + idx + "; zc->spins = 0; zc->pc = " + I +
               "; return 0;");
            break;
          }
          case Op::EmitsCh: {
            const uint32_t ch = static_cast<uint32_t>(i.fn);
            const std::string buf =
                "(st + " + num(p_.channels[ch].bufOff) + ")";
            ln("if (regs[" + num(i.c) + "] >= " + intLit(i.d) +
               ") goto " + label(i.e) + ";");
            ln("memcpy(" + buf + ", " + loc(i.a) + " + regs[" +
               num(i.c) + "] * " + num(i.b) + ", " + num(i.b) + ");");
            ln("++regs[" + num(i.c) + "]; zc->chFull[" + num(ch) +
               "] = 1; zc->chProdPc[" + num(ch) + "] = " + I +
               "; spins = 0; pc = zc->chConsPc[" + num(ch) +
               "]; goto zdispatch;");
            break;
          }
          case Op::EvalInto: {
            const ExprPtr& src = p_.intoSrc[i.fn];
            bool ok = src && tryClosure([&](CppEmitter& ce) {
                std::string dst = "(" + loc(i.a) + ")";
                ce.intoExpr(src, dst);
            });
            if (!ok) {
                ++bridges_;
                ln("zc->hostInto(zc->host, " + num(i.fn) + ", " +
                   loc(i.a) + ");");
            }
            ln("goto " + next + ";");
            break;
          }
          case Op::EvalInt: {
            const ExprPtr& src = p_.intSrc[i.fn];
            bool ok = src && tryClosure([&](CppEmitter& ce) {
                std::string v = ce.intExpr(src);
                ce.raw("regs[" + num(i.a) + "] = " + v + ";");
            });
            if (!ok) {
                ++bridges_;
                ln("regs[" + num(i.a) + "] = zc->hostInt(zc->host, " +
                   num(i.fn) + ");");
            }
            ln("goto " + next + ";");
            break;
          }
          case Op::Action: {
            bool have = i.fn >= 0 &&
                        static_cast<size_t>(i.fn) < p_.actionSrc.size();
            bool ok = have && tryClosure([&](CppEmitter& ce) {
                ce.stmtList(p_.actionSrc[i.fn]);
            });
            if (!ok) {
                ++bridges_;
                ln("zc->hostAction(zc->host, " + num(i.fn) + ");");
            }
            ln("goto " + next + ";");
            break;
          }
          case Op::Lut:
            if (!inlineLut(i)) {
                ++bridges_;
                ln("zc->hostLut(zc->host, " + num(i.fn) + ", " + loc(i.a) +
                   ");");
            }
            ln("goto " + next + ";");
            break;
          case Op::KStart:
            ln("zc->kStart(zc->host, " + num(i.fn) + ");");
            ln("goto " + next + ";");
            break;
          case Op::KNext:
            ln("ZrKernel* kk = &zc->kern[" + num(i.fn) + "];");
            ln("if (kk->head < kk->size) {");
            ln("  memcpy(" + loc(i.a) + ", kk->ring + kk->head, " +
               num(i.b) + "); kk->head += " + num(i.b) + "; goto " +
               next + ";");
            ln("}");
            ln("if (kk->finished) goto " + label(i.d) + ";");
            ln("goto " + label(i.c) + ";");
            break;
          case Op::KFeed:
            ln("zc->kFeed(zc->host, " + num(i.fn) + ", " + loc(i.a) +
               ");");
            ln("goto " + next + ";");
            break;
          case Op::Copy:
            ln("memcpy(" + loc(i.a) + ", " + loc(i.b) + ", " + num(i.c) +
               ");");
            ln("goto " + next + ";");
            break;
          case Op::Zero:
            ln("memset(" + loc(i.a) + ", 0, " + num(i.b) + ");");
            ln("goto " + next + ";");
            break;
          case Op::LoadByte:
            ln("regs[" + num(i.a) + "] = *" + loc(i.b) + ";");
            ln("goto " + next + ";");
            break;
          case Op::SetReg:
            ln("regs[" + num(i.a) + "] = " + intLit(i.b) + ";");
            ln("goto " + next + ";");
            break;
          case Op::IvWrite:
            storeKind(static_cast<TypeKind>(i.b),
                      "(fr + " + num(i.a) + ")", "regs[" + num(i.c) + "]");
            ln("goto " + next + ";");
            break;
          case Op::Jmp:
            ln("goto " + label(i.a) + ";");
            break;
          case Op::Jz:
            ln("if (regs[" + num(i.a) + "]) goto " + next + ";");
            ln("goto " + label(i.b) + ";");
            break;
          case Op::JgeRR:
            ln("if (regs[" + num(i.a) + "] >= regs[" + num(i.b) +
               "]) goto " + label(i.c) + ";");
            ln("goto " + next + ";");
            break;
          case Op::TimesStep:
            ln("++regs[" + num(i.a) + "];");
            ln("if (regs[" + num(i.a) + "] >= regs[" + num(i.b) +
               "]) goto " + next + ";");
            if (i.d != kNoTarget)
                storeKind(static_cast<TypeKind>(i.e),
                          "(fr + " + num(i.d) + ")",
                          "regs[" + num(i.a) + "]");
            ln("goto " + label(i.c) + ";");
            break;
          case Op::PipeInit:
            ln("zc->chProdPc[" + num(i.a) + "] = " + num(i.b) +
               "; zc->chConsPc[" + num(i.a) + "] = 0; zc->chFull[" +
               num(i.a) + "] = 0;");
            ln("goto " + next + ";");
            break;
          case Op::Spin:
            ln("if (++spins > 1048576ULL) zr_trap_msg(zc, \"repeat: "
               "body completed 2^20 times without taking or emitting "
               "(livelock)\");");
            ln("goto " + next + ";");
            break;
          case Op::Ctrl:
            if (i.b)
                ln("zc->ctrlPtr = " + loc(i.a) + ";");
            else
                ln("zc->ctrlPtr = 0;");
            ln("zc->ctrlWidth = " + num(i.b) + ";");
            ln("goto " + next + ";");
            break;
          case Op::Halt:
            ln("zc->pc = " + I + "; zc->spins = spins; return 2;");
            break;
        }
        out_ += "}\n";
    }

    /**
     * CompiledLut::apply unrolled with constant offsets: key bits from
     * the frame, the entry from the host table `zc->lut[fn]`, then the
     * return value and the state bits in apply()'s order.  False (the
     * caller bridges) for shapes off the per-bit path or with a Generic
     * return.
     */
    bool
    inlineLut(const Instr& i)
    {
        const CompiledLut& lut = *p_.luts[i.fn];
        using RetPath = CompiledLut::RetPath;
        if (!lut.bitKeyed() || lut.retPath() == RetPath::Generic)
            return false;
        std::string key;
        const std::vector<uint32_t>& kb = lut.keyBitOffsets();
        for (size_t b = 0; b < kb.size(); ++b) {
            key += (b ? " | " : "") + std::string("((uint64_t)(fr[") +
                   num(kb[b]) + "] & 1) << " + num(b) + ")";
        }
        ln("const uint8_t* e = zc->lut[" + num(i.fn) + "] + (" +
           (key.empty() ? "0" : key) + ") * " + num(lut.entryBytes()) +
           ";");
        const std::string dst = loc(i.a);
        switch (lut.retPath()) {
          case RetPath::Copy:
            ln("memcpy(" + dst + ", e, " + num(lut.retBytes()) + ");");
            break;
          case RetPath::Bits: {
            const std::vector<uint32_t>& rb = lut.retBitOffsets();
            for (size_t b = 0; b < rb.size(); ++b)
                ln(dst + "[" + num(rb[b]) + "] = (e[" + num(b >> 3) +
                   "] >> " + num(b & 7) + ") & 1;");
            break;
          }
          default:
            break;
        }
        for (const auto& [off, bit] : lut.stateBits())
            ln("fr[" + num(off) + "] = (e[" +
               num(lut.retBytes() + (bit >> 3)) + "] >> " + num(bit & 7) +
               ") & 1;");
        return true;
    }

    /** writeIntRaw by static kind (IvWrite / TimesStep). */
    void
    storeKind(TypeKind k, const std::string& p, const std::string& v)
    {
        switch (k) {
          case TypeKind::Bit:
          case TypeKind::Bool:
            ln("*" + p + " = (uint8_t)(" + v + " & 1);");
            return;
          case TypeKind::Int8:
            ln("zr_st8(" + p + ", " + v + ");");
            return;
          case TypeKind::Int16:
            ln("zr_st16(" + p + ", " + v + ");");
            return;
          case TypeKind::Int32:
            ln("zr_st32(" + p + ", " + v + ");");
            return;
          case TypeKind::Int64:
            ln("zr_st64(" + p + ", " + v + ");");
            return;
          default:
            panic("cgen: induction variable of non-integral kind");
        }
    }

    const FuseProgram& p_;
    const FrameLayout& layout_;
    int bridges_ = 0;
    std::string out_;
};

} // namespace

const char*
runtimeSource()
{
    return
#include "zcgen/runtime.inc"
        ;
}

std::string
abiStamp()
{
    return "extern \"C\" int zr_abi(void) { return " +
           std::to_string(kZrAbiVersion) + "; }\n"
           "static_assert(sizeof(ZrCtx) == " + num(sizeof(ZrCtx)) +
           " && offsetof(ZrCtx, lut) == " + num(offsetof(ZrCtx, lut)) +
           ", \"the unit's compiler lays out ZrCtx unlike the host\");\n";
}

EmitUnit
emitUnit(const FuseProgram& prog, const FrameLayout& layout)
{
    RegionEmitter re(prog, layout);
    EmitUnit u;
    u.source = "// Generated by ziria zcgen. Do not edit.\n";
    u.source += runtimeSource();
    u.source += "using std::memcpy;\nusing std::memmove;\n"
                "using std::memset;\n";
    u.source += abiStamp();
    u.source += re.emit();
    u.source += "\n";
    u.hostBridges = re.hostBridges();
    return u;
}

} // namespace zcgen
} // namespace ziria
