#include "zexpr/compile_expr.h"

#include <cmath>

#include "support/panic.h"
#include "zast/printer.h"
#include "zcgen/runtime.h"
#include "ztype/value.h"

namespace ziria {

int64_t
truncToKind(TypeKind k, int64_t v)
{
    switch (k) {
      case TypeKind::Bit:
      case TypeKind::Bool:
        return v & 1;
      case TypeKind::Int8:
        return static_cast<int8_t>(v);
      case TypeKind::Int16:
        return static_cast<int16_t>(v);
      case TypeKind::Int32:
        return static_cast<int32_t>(v);
      case TypeKind::Int64:
        return v;
      default:
        panic("truncToKind: not integral");
    }
}

namespace {

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
        panic("bitsOfKind: not integral");
    }
}

template <typename T>
int64_t
loadScalar(const uint8_t* p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return static_cast<int64_t>(v);
}

template <typename T>
void
storeScalar(uint8_t* p, int64_t v)
{
    T x = static_cast<T>(v);
    std::memcpy(p, &x, sizeof(T));
}

/** Build a load closure specialized to the integral kind. */
EvalInt
makeLoad(TypeKind k, RefFn ref)
{
    switch (k) {
      case TypeKind::Bit:
      case TypeKind::Bool:
        return [ref](Frame& f) -> int64_t { return *ref(f); };
      case TypeKind::Int8:
        return [ref](Frame& f) { return loadScalar<int8_t>(ref(f)); };
      case TypeKind::Int16:
        return [ref](Frame& f) { return loadScalar<int16_t>(ref(f)); };
      case TypeKind::Int32:
        return [ref](Frame& f) { return loadScalar<int32_t>(ref(f)); };
      case TypeKind::Int64:
        return [ref](Frame& f) { return loadScalar<int64_t>(ref(f)); };
      default:
        panic("makeLoad: not integral");
    }
}

/** Build a store-into-dst closure specialized to the integral kind. */
EvalInto
makeStore(TypeKind k, EvalInt val)
{
    switch (k) {
      case TypeKind::Bit:
      case TypeKind::Bool:
        return [val](Frame& f, uint8_t* dst) {
            *dst = static_cast<uint8_t>(val(f) & 1);
        };
      case TypeKind::Int8:
        return [val](Frame& f, uint8_t* dst) {
            storeScalar<int8_t>(dst, val(f));
        };
      case TypeKind::Int16:
        return [val](Frame& f, uint8_t* dst) {
            storeScalar<int16_t>(dst, val(f));
        };
      case TypeKind::Int32:
        return [val](Frame& f, uint8_t* dst) {
            storeScalar<int32_t>(dst, val(f));
        };
      case TypeKind::Int64:
        return [val](Frame& f, uint8_t* dst) {
            storeScalar<int64_t>(dst, val(f));
        };
      default:
        panic("makeStore: not integral");
    }
}

/**
 * A complex binary operator as one closure: evaluate both operands,
 * then apply the runtime helper @p Op (zcgen/runtime.h, the definition
 * generated code calls too).
 */
template <ZrC32 (*Op)(ZrC32, ZrC32)>
EvalInto
complexBin(EvalInto la, EvalInto ra, int c16)
{
    return [la, ra, c16](Frame& f, uint8_t* dst) {
        uint8_t ba[8], bb[8];
        la(f, ba);
        ra(f, bb);
        zr_stc(c16, dst, Op(zr_ldc(c16, ba), zr_ldc(c16, bb)));
    };
}

/** A complex shift by an integer count (runtime helper @p Op). */
template <ZrC32 (*Op)(ZrC32, int64_t)>
EvalInto
complexShift(EvalInto la, EvalInt sh, int c16)
{
    return [la, sh, c16](Frame& f, uint8_t* dst) {
        uint8_t ba[8];
        la(f, ba);
        zr_stc(c16, dst, Op(zr_ldc(c16, ba), sh(f)));
    };
}

} // namespace

// -----------------------------------------------------------------------
// Integral expressions
// -----------------------------------------------------------------------

EvalInt
ExprCompiler::compileInt(const ExprPtr& e)
{
    const TypePtr& t = e->type();
    ZIRIA_ASSERT(t->isIntegral(), "compileInt on non-integral type");
    TypeKind k = t->kind();

    switch (e->kind()) {
      case ExprKind::Const: {
        int64_t v = static_cast<const ConstExpr&>(*e).value().asInt();
        return [v](Frame&) { return v; };
      }
      case ExprKind::Var: {
        const auto& v = static_cast<const VarExpr&>(*e).var();
        size_t off = layout_.add(v);
        switch (k) {
          case TypeKind::Bit:
          case TypeKind::Bool:
            return [off](Frame& f) -> int64_t { return *f.at(off); };
          case TypeKind::Int8:
            return [off](Frame& f) { return loadScalar<int8_t>(f.at(off)); };
          case TypeKind::Int16:
            return
                [off](Frame& f) { return loadScalar<int16_t>(f.at(off)); };
          case TypeKind::Int32:
            return
                [off](Frame& f) { return loadScalar<int32_t>(f.at(off)); };
          default:
            return
                [off](Frame& f) { return loadScalar<int64_t>(f.at(off)); };
        }
      }
      case ExprKind::Bin: {
        const auto& b = static_cast<const BinExpr&>(*e);
        const TypePtr& ot = b.lhs()->type();
        switch (b.op()) {
          case BinOp::Eq:
          case BinOp::Ne: {
            bool wantEq = b.op() == BinOp::Eq;
            if (ot->isIntegral()) {
                EvalInt la = compileInt(b.lhs());
                EvalInt ra = compileInt(b.rhs());
                return [la, ra, wantEq](Frame& f) -> int64_t {
                    int64_t a = la(f);
                    int64_t b = ra(f);
                    return (a == b) == wantEq;
                };
            }
            if (ot->isDouble()) {
                EvalDbl la = compileDbl(b.lhs());
                EvalDbl ra = compileDbl(b.rhs());
                return [la, ra, wantEq](Frame& f) -> int64_t {
                    double a = la(f);
                    double b = ra(f);
                    return (a == b) == wantEq;
                };
            }
            // complex: bitwise comparison of the fixed-point pairs
            EvalInto la = compileInto(b.lhs());
            EvalInto ra = compileInto(b.rhs());
            size_t w = ot->byteWidth();
            return [la, ra, w, wantEq](Frame& f) -> int64_t {
                uint8_t ba[8], bb[8];
                la(f, ba);
                ra(f, bb);
                return (std::memcmp(ba, bb, w) == 0) == wantEq;
            };
          }
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge: {
            BinOp op = b.op();
            if (ot->isDouble()) {
                EvalDbl la = compileDbl(b.lhs());
                EvalDbl ra = compileDbl(b.rhs());
                switch (op) {
                  case BinOp::Lt:
                    return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a < b;
                    };
                  case BinOp::Le:
                    return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a <= b;
                    };
                  case BinOp::Gt:
                    return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a > b;
                    };
                  default:
                    return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a >= b;
                    };
                }
            }
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            switch (op) {
              case BinOp::Lt:
                return
                    [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a < b;
                    };
              case BinOp::Le:
                return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a <= b;
                    };
              case BinOp::Gt:
                return
                    [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a > b;
                    };
              default:
                return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a >= b;
                    };
            }
          }
          case BinOp::LAnd: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return [la, ra](Frame& f) -> int64_t {
                return la(f) ? ra(f) : 0;
            };
          }
          case BinOp::LOr: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return [la, ra](Frame& f) -> int64_t {
                return la(f) ? 1 : ra(f);
            };
          }
          case BinOp::Add: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            if (k == TypeKind::Int32) {
                return [la, ra](Frame& f) -> int64_t {
                    int64_t a = la(f);
                    int64_t b = ra(f);
                    return static_cast<int32_t>(a + b);
                };
            }
            return [la, ra, k](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return truncToKind(k, a + b);
            };
          }
          case BinOp::Sub: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            if (k == TypeKind::Int32) {
                return [la, ra](Frame& f) -> int64_t {
                    int64_t a = la(f);
                    int64_t b = ra(f);
                    return static_cast<int32_t>(a - b);
                };
            }
            return [la, ra, k](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return truncToKind(k, a - b);
            };
          }
          case BinOp::Mul: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            if (k == TypeKind::Int32) {
                return [la, ra](Frame& f) -> int64_t {
                    int64_t a = la(f);
                    int64_t b = ra(f);
                    return static_cast<int32_t>(a * b);
                };
            }
            return [la, ra, k](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return truncToKind(k, a * b);
            };
          }
          case BinOp::Div: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return EvalInt([la, ra, k](Frame& f) -> int64_t {
                int64_t n = la(f);
                int64_t d = ra(f);
                if (d == 0)
                    fatal("division by zero");
                if (d == -1)
                    return truncToKind(k, -n);
                return truncToKind(k, n / d);
            });
          }
          case BinOp::Rem: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return EvalInt([la, ra, k](Frame& f) -> int64_t {
                int64_t n = la(f);
                int64_t d = ra(f);
                if (d == 0)
                    fatal("remainder by zero");
                if (d == -1)
                    return 0;
                return truncToKind(k, n % d);
            });
          }
          case BinOp::Shl: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            int w = bitsOfKind(k);
            return [la, ra, k, w](Frame& f) {
                int64_t v = la(f);
                int64_t s = ra(f);
                if (s < 0 || s >= w)
                    return static_cast<int64_t>(0);
                return truncToKind(
                    k,
                    static_cast<int64_t>(static_cast<uint64_t>(v) << s));
            };
          }
          case BinOp::Shr: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            int w = bitsOfKind(k);
            return [la, ra, w](Frame& f) -> int64_t {
                int64_t v = la(f);
                int64_t s = ra(f);
                if (s < 0)
                    return 0;
                if (s >= w)
                    return v < 0 ? -1 : 0;
                return v >> s;
            };
          }
          case BinOp::BAnd: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return [la, ra](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return a & b;
            };
          }
          case BinOp::BOr: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return [la, ra](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return a | b;
            };
          }
          case BinOp::BXor: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return [la, ra](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return a ^ b;
            };
          }
        }
        panic("compileInt: unhandled binop");
      }
      case ExprKind::Un: {
        const auto& u = static_cast<const UnExpr&>(*e);
        EvalInt sa = compileInt(u.sub());
        switch (u.op()) {
          case UnOp::Neg:
            return [sa, k](Frame& f) { return truncToKind(k, -sa(f)); };
          case UnOp::BNot:
            return [sa, k](Frame& f) { return truncToKind(k, ~sa(f)); };
          case UnOp::LNot:
            return [sa](Frame& f) -> int64_t { return !sa(f); };
        }
        panic("compileInt: unhandled unop");
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(*e);
        const TypePtr& from = c.sub()->type();
        if (from->isIntegral()) {
            EvalInt sa = compileInt(c.sub());
            return [sa, k](Frame& f) { return truncToKind(k, sa(f)); };
        }
        ZIRIA_ASSERT(from->isDouble());
        EvalDbl sa = compileDbl(c.sub());
        return [sa, k](Frame& f) {
            double v = sa(f);
            if (!std::isfinite(v))
                return static_cast<int64_t>(0);
            return truncToKind(k, static_cast<int64_t>(v));
        };
      }
      case ExprKind::Index:
      case ExprKind::Field: {
        RefFn r = compileRef(e);
        return makeLoad(k, std::move(r));
      }
      case ExprKind::Call:
        return compileCallInt(static_cast<const CallExpr&>(*e));
      case ExprKind::Cond: {
        const auto& c = static_cast<const CondExpr&>(*e);
        EvalInt cc = compileInt(c.cond());
        EvalInt tt = compileInt(c.thenE());
        EvalInt ee = compileInt(c.elseE());
        return [cc, tt, ee](Frame& f) { return cc(f) ? tt(f) : ee(f); };
      }
      default:
        panicf("compileInt: unexpected expr kind for type ", t->show());
    }
}

// -----------------------------------------------------------------------
// Double expressions
// -----------------------------------------------------------------------

EvalDbl
ExprCompiler::compileDbl(const ExprPtr& e)
{
    ZIRIA_ASSERT(e->type()->isDouble(), "compileDbl on non-double type");
    switch (e->kind()) {
      case ExprKind::Const: {
        double v = static_cast<const ConstExpr&>(*e).value().asDouble();
        return [v](Frame&) { return v; };
      }
      case ExprKind::Var: {
        size_t off = layout_.add(static_cast<const VarExpr&>(*e).var());
        return [off](Frame& f) {
            double v;
            std::memcpy(&v, f.at(off), 8);
            return v;
        };
      }
      case ExprKind::Bin: {
        const auto& b = static_cast<const BinExpr&>(*e);
        EvalDbl la = compileDbl(b.lhs());
        EvalDbl ra = compileDbl(b.rhs());
        switch (b.op()) {
          case BinOp::Add:
            return [la, ra](Frame& f) {
                double a = la(f);
                double b = ra(f);
                return a + b;
            };
          case BinOp::Sub:
            return [la, ra](Frame& f) {
                double a = la(f);
                double b = ra(f);
                return a - b;
            };
          case BinOp::Mul:
            return [la, ra](Frame& f) {
                double a = la(f);
                double b = ra(f);
                return a * b;
            };
          case BinOp::Div:
            return [la, ra](Frame& f) {
                double a = la(f);
                double b = ra(f);
                return a / b;
            };
          default:
            panic("compileDbl: unhandled binop");
        }
      }
      case ExprKind::Un: {
        const auto& u = static_cast<const UnExpr&>(*e);
        ZIRIA_ASSERT(u.op() == UnOp::Neg);
        EvalDbl sa = compileDbl(u.sub());
        return [sa](Frame& f) { return -sa(f); };
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(*e);
        ZIRIA_ASSERT(c.sub()->type()->isIntegral());
        EvalInt sa = compileInt(c.sub());
        return [sa](Frame& f) { return static_cast<double>(sa(f)); };
      }
      case ExprKind::Index:
      case ExprKind::Field: {
        RefFn r = compileRef(e);
        return [r](Frame& f) {
            double v;
            std::memcpy(&v, r(f), 8);
            return v;
        };
      }
      case ExprKind::Call:
        return compileCallDbl(static_cast<const CallExpr&>(*e));
      case ExprKind::Cond: {
        const auto& c = static_cast<const CondExpr&>(*e);
        EvalInt cc = compileInt(c.cond());
        EvalDbl tt = compileDbl(c.thenE());
        EvalDbl ee = compileDbl(c.elseE());
        return [cc, tt, ee](Frame& f) { return cc(f) ? tt(f) : ee(f); };
      }
      default:
        panic("compileDbl: unexpected expr kind");
    }
}

// -----------------------------------------------------------------------
// Generic evaluation into a destination buffer
// -----------------------------------------------------------------------

EvalInto
ExprCompiler::compileInto(const ExprPtr& e)
{
    const TypePtr& t = e->type();
    if (t->isUnit()) {
        if (e->kind() == ExprKind::Call)
            return compileCallInto(static_cast<const CallExpr&>(*e));
        return [](Frame&, uint8_t*) {};
    }
    if (t->isIntegral())
        return makeStore(t->kind(), compileInt(e));
    if (t->isDouble()) {
        EvalDbl d = compileDbl(e);
        return [d](Frame& f, uint8_t* dst) {
            double v = d(f);
            std::memcpy(dst, &v, 8);
        };
    }
    if (t->isComplex()) {
        // Every operator is one call into the runtime shared with
        // generated code (zcgen/runtime.h).
        const int c16 = t->kind() == TypeKind::Complex16;
        switch (e->kind()) {
          case ExprKind::Bin: {
            const auto& b = static_cast<const BinExpr&>(*e);
            EvalInto la = compileInto(b.lhs());
            if (b.op() == BinOp::Shl)
                return complexShift<zr_cshl>(la, compileInt(b.rhs()), c16);
            if (b.op() == BinOp::Shr)
                return complexShift<zr_cshr>(la, compileInt(b.rhs()), c16);
            EvalInto ra = compileInto(b.rhs());
            switch (b.op()) {
              case BinOp::Add:
                return complexBin<zr_cadd>(la, ra, c16);
              case BinOp::Sub:
                return complexBin<zr_csub>(la, ra, c16);
              case BinOp::Mul:
                return complexBin<zr_cmul>(la, ra, c16);
              default:
                return [la, ra](Frame& f, uint8_t*) {
                    uint8_t ba[8], bb[8];
                    la(f, ba);
                    ra(f, bb);
                    fatal("complex operator not supported");
                };
            }
          }
          case ExprKind::Un: {
            const auto& u = static_cast<const UnExpr&>(*e);
            ZIRIA_ASSERT(u.op() == UnOp::Neg);
            EvalInto sa = compileInto(u.sub());
            return [sa, c16](Frame& f, uint8_t* dst) {
                uint8_t ba[8];
                sa(f, ba);
                zr_stc(c16, dst, zr_cneg(zr_ldc(c16, ba)));
            };
          }
          case ExprKind::Cast: {
            const auto& c = static_cast<const CastExpr&>(*e);
            const TypePtr& from = c.sub()->type();
            ZIRIA_ASSERT(from->isComplex());
            EvalInto sa = compileInto(c.sub());
            const int fromC16 = from->kind() == TypeKind::Complex16;
            if (c16) {
                return [sa, fromC16](Frame& f, uint8_t* dst) {
                    uint8_t ba[8];
                    sa(f, ba);
                    zr_stc(1, dst, zr_csat16(zr_ldc(fromC16, ba)));
                };
            }
            return [sa, fromC16](Frame& f, uint8_t* dst) {
                uint8_t ba[8];
                sa(f, ba);
                zr_stc(0, dst, zr_ldc(fromC16, ba));
            };
          }
          default:
            break;  // generic cases below
        }
    }

    // Generic cases (complex leaves, arrays, structs).
    switch (e->kind()) {
      case ExprKind::Const: {
        const Value& v = static_cast<const ConstExpr&>(*e).value();
        std::vector<uint8_t> bytes = v.bytes();
        return [bytes](Frame&, uint8_t* dst) {
            std::memcpy(dst, bytes.data(), bytes.size());
        };
      }
      case ExprKind::Var:
      case ExprKind::Index:
      case ExprKind::Slice:
      case ExprKind::Field: {
        RefFn r = compileRef(e);
        size_t w = t->byteWidth();
        return [r, w](Frame& f, uint8_t* dst) {
            std::memmove(dst, r(f), w);
        };
      }
      case ExprKind::ArrayLit: {
        const auto& a = static_cast<const ArrayLitExpr&>(*e);
        std::vector<EvalInto> elems;
        elems.reserve(a.elems().size());
        for (const auto& el : a.elems())
            elems.push_back(compileInto(el));
        size_t ew = t->elem()->byteWidth();
        return [elems, ew](Frame& f, uint8_t* dst) {
            uint8_t* p = dst;
            for (const auto& el : elems) {
                el(f, p);
                p += ew;
            }
        };
      }
      case ExprKind::StructLit: {
        const auto& sl = static_cast<const StructLitExpr&>(*e);
        std::vector<EvalInto> fields;
        std::vector<size_t> widths;
        for (size_t i = 0; i < sl.fieldExprs().size(); ++i) {
            fields.push_back(compileInto(sl.fieldExprs()[i]));
            widths.push_back(t->fields()[i].second->byteWidth());
        }
        return [fields, widths](Frame& f, uint8_t* dst) {
            uint8_t* p = dst;
            for (size_t i = 0; i < fields.size(); ++i) {
                fields[i](f, p);
                p += widths[i];
            }
        };
      }
      case ExprKind::Call:
        return compileCallInto(static_cast<const CallExpr&>(*e));
      case ExprKind::Cond: {
        const auto& c = static_cast<const CondExpr&>(*e);
        EvalInt cc = compileInt(c.cond());
        EvalInto tt = compileInto(c.thenE());
        EvalInto ee = compileInto(c.elseE());
        return [cc, tt, ee](Frame& f, uint8_t* dst) {
            if (cc(f))
                tt(f, dst);
            else
                ee(f, dst);
        };
      }
      default:
        panicf("compileInto: unexpected expr kind for ", t->show(), ": ",
               showExpr(e));
    }
}

// -----------------------------------------------------------------------
// References and lvalues
// -----------------------------------------------------------------------

RefFn
ExprCompiler::compileRef(const ExprPtr& e)
{
    switch (e->kind()) {
      case ExprKind::Var:
      case ExprKind::Index:
      case ExprKind::Slice:
      case ExprKind::Field:
        return compileAddr(e);
      default: {
        // Materialize the rvalue into per-closure scratch.
        EvalInto ev = compileInto(e);
        auto scratch =
            std::make_shared<std::vector<uint8_t>>(e->type()->byteWidth());
        return [ev, scratch](Frame& f) {
            ev(f, scratch->data());
            return scratch->data();
        };
      }
    }
}

RefFn
ExprCompiler::compileAddr(const ExprPtr& e)
{
    switch (e->kind()) {
      case ExprKind::Var: {
        size_t off = layout_.add(static_cast<const VarExpr&>(*e).var());
        return [off](Frame& f) { return f.at(off); };
      }
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(*e);
        RefFn base = compileRef(i.arr());
        EvalInt ix = compileInt(i.idx());
        size_t w = e->type()->byteWidth();
        long n = i.arr()->type()->len();
        return [base, ix, w, n](Frame& f) {
            int64_t k = ix(f);
            if (k < 0 || k >= n)
                fatalf("array index out of bounds: ", k, " not in [0, ", n,
                       ")");
            return base(f) + static_cast<size_t>(k) * w;
        };
      }
      case ExprKind::Slice: {
        const auto& s = static_cast<const SliceExpr&>(*e);
        RefFn base = compileRef(s.arr());
        EvalInt bx = compileInt(s.base());
        size_t w = s.arr()->type()->elem()->byteWidth();
        long n = s.arr()->type()->len();
        long len = s.sliceLen();
        return [base, bx, w, n, len](Frame& f) {
            int64_t k = bx(f);
            if (k < 0 || k + len > n)
                fatalf("slice out of bounds: [", k, ", ", k + len,
                       ") not within [0, ", n, ")");
            return base(f) + static_cast<size_t>(k) * w;
        };
      }
      case ExprKind::Field: {
        const auto& fe = static_cast<const FieldExpr&>(*e);
        RefFn base = compileRef(fe.rec());
        long off = fe.rec()->type()->fieldOffset(fe.field());
        ZIRIA_ASSERT(off >= 0);
        return [base, off](Frame& f) {
            return base(f) + static_cast<size_t>(off);
        };
      }
      default:
        fatalf("not an lvalue: ", showExpr(e));
    }
}

// -----------------------------------------------------------------------
// Statements
// -----------------------------------------------------------------------

Action
ExprCompiler::compileStmt(const StmtPtr& s)
{
    switch (s->kind()) {
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(*s);
        RefFn addr = compileAddr(a.lhs());
        const TypePtr& t = a.lhs()->type();
        EvalInto rhs = compileInto(a.rhs());
        if (t->isScalar())
            return [addr, rhs](Frame& f) { rhs(f, addr(f)); };
        // Aggregates go through scratch so self-overlapping assignments
        // (e.g. scrmbl_st[0:5] := scrmbl_st[1:6]) behave like memmove.
        size_t w = t->byteWidth();
        auto scratch = std::make_shared<std::vector<uint8_t>>(w);
        return [addr, rhs, w, scratch](Frame& f) {
            rhs(f, scratch->data());
            std::memcpy(addr(f), scratch->data(), w);
        };
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(*s);
        EvalInt c = compileInt(i.cond());
        Action t = compileStmts(i.thenStmts());
        Action e = compileStmts(i.elseStmts());
        return [c, t, e](Frame& f) {
            if (c(f))
                t(f);
            else
                e(f);
        };
      }
      case StmtKind::For: {
        const auto& fo = static_cast<const ForStmt&>(*s);
        size_t ivOff = layout_.add(fo.inductionVar());
        TypeKind ivk = fo.inductionVar()->type->kind();
        EvalInt lo = compileInt(fo.lo());
        EvalInt hi = compileInt(fo.hi());
        Action body = compileStmts(fo.body());
        return [ivOff, ivk, lo, hi, body](Frame& f) {
            int64_t h = hi(f);
            for (int64_t i = lo(f); i < h; ++i) {
                writeIntRaw(ivk, f.at(ivOff), i);
                body(f);
            }
        };
      }
      case StmtKind::While: {
        const auto& w = static_cast<const WhileStmt&>(*s);
        EvalInt c = compileInt(w.cond());
        Action body = compileStmts(w.body());
        return [c, body](Frame& f) {
            while (c(f))
                body(f);
        };
      }
      case StmtKind::VarDecl: {
        const auto& d = static_cast<const VarDeclStmt&>(*s);
        size_t off = layout_.add(d.var());
        size_t w = d.var()->type->byteWidth();
        if (d.init()) {
            EvalInto init = compileInto(d.init());
            return [off, init](Frame& f) { init(f, f.at(off)); };
        }
        return [off, w](Frame& f) { std::memset(f.at(off), 0, w); };
      }
      case StmtKind::Eval: {
        const auto& ev = static_cast<const EvalStmt&>(*s);
        size_t w = ev.expr()->type()->byteWidth();
        EvalInto e = compileInto(ev.expr());
        auto scratch = std::make_shared<std::vector<uint8_t>>(w);
        return [e, scratch](Frame& f) { e(f, scratch->data()); };
      }
    }
    panic("compileStmt: unknown stmt kind");
}

Action
ExprCompiler::compileStmts(const StmtList& stmts)
{
    if (stmts.empty())
        return [](Frame&) {};
    if (stmts.size() == 1)
        return compileStmt(stmts[0]);
    std::vector<Action> acts;
    acts.reserve(stmts.size());
    for (const auto& s : stmts)
        acts.push_back(compileStmt(s));
    return [acts](Frame& f) {
        for (const auto& a : acts)
            a(f);
    };
}

// -----------------------------------------------------------------------
// Calls
// -----------------------------------------------------------------------

ExprCompiler::PreparedCall
ExprCompiler::prepareCall(const CallExpr& c)
{
    const FunRef& f = c.fun();
    ZIRIA_ASSERT(!f->isNative());

    // By-ref parameters are replaced by the argument lvalue (inlining by
    // substitution); by-value parameters get fresh slots per call site.
    std::vector<ExprPtr> substArgs(c.args().size());
    for (size_t i = 0; i < c.args().size(); ++i) {
        if (f->paramByRef(i))
            substArgs[i] = c.args()[i];
    }
    InlinedFun inl = inlineFun(f, substArgs);

    std::vector<Action> setups;
    for (size_t i = 0; i < c.args().size(); ++i) {
        if (f->paramByRef(i))
            continue;
        size_t off = layout_.add(inl.params[i]);
        EvalInto argv = compileInto(c.args()[i]);
        setups.push_back([off, argv](Frame& fr) { argv(fr, fr.at(off)); });
    }

    PreparedCall out;
    out.setup = [setups](Frame& fr) {
        for (const auto& s : setups)
            s(fr);
    };
    out.body = compileStmts(inl.body);
    out.ret = inl.ret;
    return out;
}

EvalInto
ExprCompiler::compileCallInto(const CallExpr& c)
{
    const FunRef& f = c.fun();
    if (f->isNative()) {
        std::vector<RefFn> argRefs;
        argRefs.reserve(c.args().size());
        for (const auto& a : c.args())
            argRefs.push_back(compileRef(a));
        NativeFn nf = f->native;
        size_t n = argRefs.size();
        ZIRIA_ASSERT(n <= 16, "too many native function arguments");
        return [argRefs, nf, n](Frame& fr, uint8_t* dst) {
            const uint8_t* ptrs[16];
            for (size_t i = 0; i < n; ++i)
                ptrs[i] = argRefs[i](fr);
            nf(ptrs, dst);
        };
    }
    PreparedCall pc = prepareCall(c);
    if (!pc.ret) {
        Action setup = pc.setup;
        Action body = pc.body;
        return [setup, body](Frame& fr, uint8_t*) {
            setup(fr);
            body(fr);
        };
    }
    EvalInto retv = compileInto(pc.ret);
    Action setup = pc.setup;
    Action body = pc.body;
    return [setup, body, retv](Frame& fr, uint8_t* dst) {
        setup(fr);
        body(fr);
        retv(fr, dst);
    };
}

EvalInt
ExprCompiler::compileCallInt(const CallExpr& c)
{
    const FunRef& f = c.fun();
    TypeKind k = c.type()->kind();
    if (f->isNative()) {
        EvalInto callFn = compileCallInto(c);
        size_t w = c.type()->byteWidth();
        ZIRIA_ASSERT(w <= 8);
        return [callFn, k](Frame& fr) {
            uint8_t buf[8];
            callFn(fr, buf);
            return readIntRaw(k, buf);
        };
    }
    PreparedCall pc = prepareCall(c);
    ZIRIA_ASSERT(pc.ret != nullptr, "int-typed call with no return");
    EvalInt retv = compileInt(pc.ret);
    Action setup = pc.setup;
    Action body = pc.body;
    return [setup, body, retv](Frame& fr) {
        setup(fr);
        body(fr);
        return retv(fr);
    };
}

EvalDbl
ExprCompiler::compileCallDbl(const CallExpr& c)
{
    const FunRef& f = c.fun();
    if (f->isNative()) {
        EvalInto callFn = compileCallInto(c);
        return [callFn](Frame& fr) {
            uint8_t buf[8];
            callFn(fr, buf);
            double v;
            std::memcpy(&v, buf, 8);
            return v;
        };
    }
    PreparedCall pc = prepareCall(c);
    ZIRIA_ASSERT(pc.ret != nullptr, "double-typed call with no return");
    EvalDbl retv = compileDbl(pc.ret);
    Action setup = pc.setup;
    Action body = pc.body;
    return [setup, body, retv](Frame& fr) {
        setup(fr);
        body(fr);
        return retv(fr);
    };
}

// -----------------------------------------------------------------------
// Kernels
// -----------------------------------------------------------------------

CompiledKernel
ExprCompiler::compileKernel(const FunRef& f)
{
    ZIRIA_ASSERT(!f->isNative(), "compileKernel on a native function");
    for (size_t i = 0; i < f->params.size(); ++i)
        ZIRIA_ASSERT(!f->paramByRef(i),
                     "compileKernel: by-ref parameters unsupported");
    InlinedFun inl = inlineFun(f);
    CompiledKernel k;
    for (const auto& p : inl.params) {
        k.paramOffsets.push_back(layout_.add(p));
        k.paramWidths.push_back(p->type->byteWidth());
    }
    k.body = compileStmts(inl.body);
    k.bodySrc = inl.body;
    if (inl.ret) {
        k.retInto = compileInto(inl.ret);
        k.retWidth = inl.ret->type()->byteWidth();
        k.retSrc = inl.ret;
    }
    return k;
}

} // namespace ziria
