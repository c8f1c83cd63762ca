#include "support/shapes.h"

#include <cstring>

#include "support/fault_injector.h"
#include "support/state_io.h"

namespace ziria {
namespace testsupport {

using namespace zb;

namespace {

int32_t
ld32(const uint8_t* p)
{
    int32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

class BurstKernel : public NativeKernel
{
  public:
    void
    reset() override
    {
        sum_ = 0;
        n_ = 0;
    }

    bool
    consume(const uint8_t* in, Emitter& em) override
    {
        sum_ += ld32(in);
        ++n_;
        int32_t out[2] = {sum_, sum_ ^ n_};
        for (int32_t i = 0; i < n_ % 3; ++i)
            em.emit(reinterpret_cast<const uint8_t*>(&out[i]));
        return false;
    }

    void
    snapshot(StateWriter& w) const override
    {
        w.i64(sum_);
        w.i64(n_);
    }

    void
    restore(StateReader& r) override
    {
        sum_ = static_cast<int32_t>(r.i64());
        n_ = static_cast<int32_t>(r.i64());
    }

  private:
    int32_t sum_ = 0;
    int32_t n_ = 0;
};

class SumNKernel : public NativeKernel
{
  public:
    explicit SumNKernel(int64_t count) : count_(count) {}

    bool
    consume(const uint8_t* in, Emitter& em) override
    {
        int32_t x = ld32(in);
        sum_ += x;
        int32_t twice = x * 2;
        em.emit(reinterpret_cast<const uint8_t*>(&twice));
        if (++seen_ < count_)
            return false;
        ctrl_.resize(4);
        std::memcpy(ctrl_.data(), &sum_, 4);
        return true;
    }

    const std::vector<uint8_t>& ctrl() const override { return ctrl_; }

    void
    snapshot(StateWriter& w) const override
    {
        w.i64(sum_);
        w.i64(seen_);
        w.blob(ctrl_.data(), ctrl_.size());
    }

    void
    restore(StateReader& r) override
    {
        sum_ = static_cast<int32_t>(r.i64());
        seen_ = r.i64();
        ctrl_ = r.blob();
    }

  private:
    int64_t count_;
    int32_t sum_ = 0;
    int64_t seen_ = 0;
    std::vector<uint8_t> ctrl_;
};

} // namespace

CompPtr
burstBlock()
{
    auto spec = std::make_shared<NativeBlockSpec>();
    spec->name = "Burst";
    spec->ctype = CompType{false, nullptr, Type::int32(), Type::int32()};
    spec->make = [](const std::vector<Value>&) {
        return std::make_unique<BurstKernel>();
    };
    return native(spec);
}

CompPtr
sumNBlock(ExprPtr count)
{
    auto spec = std::make_shared<NativeBlockSpec>();
    spec->name = "SumN";
    spec->ctype =
        CompType{true, Type::int32(), Type::int32(), Type::int32()};
    spec->make = [](const std::vector<Value>& args) {
        return std::make_unique<SumNKernel>(args.at(0).asInt());
    };
    return native(spec, {std::move(count)});
}

CompPtr
incBlock(int32_t delta)
{
    VarRef x = freshVar("x", Type::int32());
    return repeatc(seqc({bindc(x, take(Type::int32())),
                         just(emit(var(x) + delta))}));
}

const std::vector<Shape>&
resetShapes()
{
    static const std::vector<Shape> shapes = [] {
        std::vector<Shape> s;
        s.push_back({"repeat-bind-emit", [] { return incBlock(1); }});
        s.push_back({"map", [] {
            VarRef x = freshVar("x", Type::int32());
            FunRef f = fun("inc3", {x}, {}, var(x) + 3);
            return mapc(f);
        }});
        s.push_back({"pipe-maps", [] {
            VarRef x = freshVar("x", Type::int32());
            VarRef y = freshVar("y", Type::int32());
            FunRef f = fun("addA", {x}, {}, var(x) + 5);
            FunRef g = fun("addB", {y}, {}, var(y) * 2);
            return pipe(mapc(f), mapc(g));
        }});
        s.push_back({"pipe-repeats", [] {
            return pipe(incBlock(1), incBlock(10));
        }});
        s.push_back({"filter", [] {
            VarRef x = freshVar("x", Type::int32());
            FunRef p = fun("odd", {x}, {}, (var(x) % 2) != 0);
            return filterc(p);
        }});
        s.push_back({"seq-two-takes", [] {
            VarRef a = freshVar("a", Type::int32());
            VarRef b = freshVar("b", Type::int32());
            return repeatc(seqc({bindc(a, take(Type::int32())),
                                 bindc(b, take(Type::int32())),
                                 just(emit(var(a) + var(b)))}));
        }});
        s.push_back({"times", [] {
            VarRef x = freshVar("x", Type::int32());
            return repeatc(timesc(
                cInt(4), seqc({bindc(x, take(Type::int32())),
                               just(emit(var(x) * 2))})));
        }});
        s.push_back({"while-letvar", [] {
            // A computer: consumes 8 elements, then halts.
            VarRef i = freshVar("i", Type::int32());
            VarRef x = freshVar("x", Type::int32());
            return letvar(
                i, cInt(0),
                whilec(var(i) < 8,
                       seqc({just(doS({assign(var(i), var(i) + 1)})),
                             bindc(x, take(Type::int32())),
                             just(emit(var(x) + 100))})));
        }});
        s.push_back({"if", [] {
            return ifc(cInt(1) == 1, incBlock(5), incBlock(7));
        }});
        s.push_back({"emits", [] {
            VarRef x = freshVar("x", Type::int32());
            return repeatc(seqc(
                {bindc(x, take(Type::int32())),
                 just(emits(arrayLit({var(x), var(x) + 1})))}));
        }});
        s.push_back({"letvar-accumulator", [] {
            // Running sum: stale accumulator state is directly visible
            // in the output, so a reset()/restore() that mishandles the
            // letvar cell fails.
            VarRef acc = freshVar("acc", Type::int32());
            VarRef x = freshVar("x", Type::int32());
            return letvar(
                acc, cInt(0),
                repeatc(seqc(
                    {bindc(x, take(Type::int32())),
                     just(doS({assign(var(acc), var(acc) + var(x))})),
                     just(emit(var(acc)))})));
        }});
        s.push_back({"native", [] {
            // Native pass-through (fault tick unreachably high):
            // exercises the kernel-recreation path.
            return throwAtBlock(uint64_t(1) << 62);
        }});
        s.push_back({"native-burst-pipe", [] {
            // A stateful kernel emitting 0-2 elements per input, between
            // two fused stages.
            return pipe(incBlock(1), pipe(burstBlock(), incBlock(10)));
        }});
        s.push_back({"native-computer", [] {
            // A native computer made from a seq binder, re-made every
            // repeat iteration, its control value bound and emitted.
            VarRef n = freshVar("n", Type::int32());
            VarRef s = freshVar("s", Type::int32());
            return repeatc(seqc(
                {bindc(n, take(Type::int32())),
                 bindc(s, sumNBlock(var(n) % 3 + 1)),
                 just(emit(var(s)))}));
        }});
        return s;
    }();
    return shapes;
}

} // namespace testsupport
} // namespace ziria
