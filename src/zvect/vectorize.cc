#include "zvect/vectorize.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <cstdlib>
#include <numeric>
#include <unordered_set>

#include "support/panic.h"
#include "zast/builder.h"
#include "zvect/simple_comp.h"

namespace ziria {

namespace {

/** A lazily built vectorization candidate; width 0 = unconstrained. */
struct Cand
{
    int din = 0;
    int dout = 0;
    double util = 0.0;
    std::function<CompPtr()> build;
};

struct CandSet
{
    std::vector<Cand> cands;
    std::unordered_map<long, size_t> index;  ///< (din,dout) -> position

    auto begin() const { return cands.begin(); }
    auto end() const { return cands.end(); }
    bool empty() const { return cands.empty(); }
    size_t size() const { return cands.size(); }
};

/** Pipeline placement: computers adjacent on the data path (§3.2). */
struct Ctx
{
    bool compLeft = false;
    bool compRight = false;
};

int
unifyWidth(int a, int b)
{
    if (a == 0)
        return b;
    if (b == 0)
        return a;
    return a == b ? a : -1;
}

std::vector<int>
divisorsOf(long n)
{
    std::vector<int> out;
    for (long d = 1; d <= n; ++d) {
        if (n % d == 0)
            out.push_back(static_cast<int>(d));
    }
    return out;
}

class Vectorizer
{
  public:
    Vectorizer(const VectConfig& cfg, VectStats* stats)
        : cfg_(cfg), stats_(stats)
    {
    }

    CompPtr
    run(const CompPtr& root)
    {
        CandSet cands = vect(root, Ctx{});
        ZIRIA_ASSERT(!cands.empty());
        const Cand* best = nullptr;
        double bestU = 0;
        for (const auto& c : cands) {
            double u = c.util + f(std::max(c.din, 1)) +
                       f(std::max(c.dout, 1));
            if (!best || u > bestU ||
                (u == bestU && c.din + c.dout > best->din + best->dout)) {
                best = &c;
                bestU = u;
            }
        }
        if (stats_) {
            stats_->chosenIn = best->din;
            stats_->chosenOut = best->dout;
        }
        return best->build();
    }

  private:
    double
    f(int d) const
    {
        switch (cfg_.utility) {
          case VectUtility::Log:
            return std::log2(static_cast<double>(d));
          case VectUtility::Sum:
            return static_cast<double>(d);
          case VectUtility::MaxMin:
            return -std::pow(static_cast<double>(d), -4.0);
        }
        return 0;
    }

    void
    addCand(CandSet& set, Cand c)
    {
        if (stats_)
            ++stats_->generated;
        if (cfg_.prune) {
            long key = static_cast<long>(c.din) * 1000000 + c.dout;
            auto it = set.index.find(key);
            if (it != set.index.end()) {
                Cand& existing = set.cands[it->second];
                if (c.util > existing.util)
                    existing = std::move(c);
                return;
            }
            set.index.emplace(key, set.cands.size());
            keep(set, std::move(c));
            return;
        }
        if (static_cast<long>(set.size()) >= cfg_.candidateCap) {
            if (stats_)
                stats_->capped = true;
            return;
        }
        keep(set, std::move(c));
    }

    /** A candidate that survives local pruning (and the cap). */
    void
    keep(CandSet& set, Cand c)
    {
        if (stats_)
            ++stats_->kept;
        set.cands.push_back(std::move(c));
    }

    /**
     * Width filter: beyond small widths, only byte-ish multiples are
     * worth carrying through the joint optimization (the paper similarly
     * imposes limits on candidate array sizes).
     */
    static bool
    niceWidth(int w)
    {
        return w <= 8 || w % 8 == 0 || w % 12 == 0;
    }

    Cand
    identity(const CompPtr& c)
    {
        int din = c->ctype().in ? 1 : 0;
        int dout = c->ctype().out ? 1 : 0;
        return Cand{din, dout, 0.0, [c] { return c; }};
    }

    /** Candidate from a normalized body. */
    void
    addRewrite(CandSet& out, const std::shared_ptr<SimpleComp>& sc,
               const TypePtr& inT, const TypePtr& outT, int U, int din,
               int dout, bool wrapRepeat,
               const std::optional<VectHint>& hint)
    {
        if (din > cfg_.maxWidth || dout > cfg_.maxWidth)
            return;
        // Cap the physical chunk size too: elements may themselves be
        // arrays (e.g. whole OFDM symbols), and unbounded batching would
        // starve finite streams and blow up unrolled code.
        size_t inBytes = static_cast<size_t>(din) *
                         (inT ? inT->byteWidth() : 1);
        size_t outBytes = static_cast<size_t>(dout) *
                          (outT ? outT->byteWidth() : 1);
        if (inBytes > static_cast<size_t>(cfg_.maxWidthBytes) ||
            outBytes > static_cast<size_t>(cfg_.maxWidthBytes))
            return;
        if (static_cast<long>(U) * static_cast<long>(sc->steps.size()) >
            cfg_.maxSteps)
            return;
        if (hint) {
            if (hint->in && sc->takes && din != hint->in)
                return;
            if (hint->out && sc->emits && dout != hint->out)
                return;
        }
        int cdin = sc->takes ? din : 0;
        int cdout = sc->emits ? dout : 0;
        // LUT awareness: a candidate whose vectorized body will auto-map
        // into a kernel with a small semantic key (input bits + captured
        // state bits) is what enables the Figure 3 LUT synergy; give it a
        // utility bonus so the joint optimization prefers it.
        double util = 0.0;
        if (cfg_.lutBonus > 0 && sc->takes > 0 && sc->emits > 0 &&
            din == U * sc->takes && dout == U * sc->emits &&
            !sc->retExpr && inT) {
            long elemBits = inT->bitWidth();
            long outBits = outT ? outT->bitWidth() : 0;
            long stateBits = stateBitsOf(*sc);
            long keyBits = din * elemBits + stateBits;
            if (elemBits > 0 && outBits > 0 && stateBits >= 0 &&
                keyBits <= cfg_.lutKeyBits) {
                long entryBytes = (dout * outBits + 7) / 8 +
                                  (stateBits + 7) / 8;
                if ((entryBytes << keyBits) <= (1 << 20))
                    util += cfg_.lutBonus;
            }
        }
        Cand c{cdin, cdout, util,
               [sc, inT, outT, U, din, dout, wrapRepeat]() -> CompPtr {
                   CompPtr body = rewriteVectorized(*sc, inT, outT, U, din,
                                                    dout);
                   return wrapRepeat ? zb::repeatc(std::move(body))
                                     : body;
               }};
        addCand(out, std::move(c));
    }

    /**
     * Semantic bits of captured (non-scratch) state read by a normalized
     * body; -1 when any captured value is not LUT-able.
     */
    static long
    stateBitsOf(const SimpleComp& sc)
    {
        std::vector<VarRef> frees;
        for (const auto& st : sc.steps) {
            freeVarsStmts(st.stmts, frees);
            freeVarsExpr(st.expr, frees);
        }
        freeVarsExpr(sc.retExpr, frees);
        // The per-step collections overlap; count each symbol once.
        std::unordered_set<const VarSym*> seen;
        long bits = 0;
        for (const auto& v : frees) {
            if (v->scratch || !seen.insert(v.get()).second)
                continue;
            long b = v->type->bitWidth();
            if (b < 0)
                return -1;
            bits += b;
        }
        return bits;
    }

    /**
     * Enumerate the feasible (U, din, dout) family for a normalized
     * transformer body under the Section 3.2 placement rules:
     *   - down-vectorization: U = 1, din | ain, dout | aout;
     *   - before a computer: dout = U*aout (one flush), din | U*ain;
     *   - after a computer:  din = U*ain (one take), dout | U*aout;
     *   - computers on both sides: din = U*ain and dout = U*aout;
     *   - no adjacent computers: din | U*ain, dout | U*aout.
     */
    void
    addFamilies(CandSet& out, const std::shared_ptr<SimpleComp>& sc,
                const TypePtr& inT, const TypePtr& outT, Ctx ctx,
                const std::optional<VectHint>& hint)
    {
        const long ain = sc->takes;
        const long aout = sc->emits;
        for (int U = 1; U <= cfg_.maxScale; ++U) {
            std::vector<int> dins, douts;
            if (ain == 0) {
                dins = {1};
            } else if (ctx.compLeft && U > 1) {
                dins = {static_cast<int>(U * ain)};
            } else {
                dins = divisorsOf(U * ain);
            }
            if (aout == 0) {
                douts = {1};
            } else if (ctx.compRight && U > 1) {
                douts = {static_cast<int>(U * aout)};
            } else if (U > 1 && !ctx.compLeft && !ctx.compRight) {
                douts = divisorsOf(U * aout);
            } else if (U > 1) {
                douts = {static_cast<int>(U * aout)};
            } else {
                douts = divisorsOf(aout);
            }
            for (int di : dins) {
                if (!niceWidth(di))
                    continue;
                for (int dj : douts) {
                    if (!niceWidth(dj))
                        continue;
                    addRewrite(out, sc, inT, outT, U, di, dj, true, hint);
                }
            }
        }
    }

    /** Feasible set for `repeat body` given pipeline placement. */
    CandSet
    repeatCands(const CompPtr& self, const RepeatComp& r, Ctx ctx)
    {
        CandSet out;
        addCand(out, identity(self));

        auto norm = normalizeComp(r.body(), cfg_.maxSteps);
        if (!norm) {
            // Dynamic body: honor a forced-width annotation with rate
            // adapters, as for the paper's CRC block.
            if (r.hint())
                addForced(out, self, *r.hint());
            return out;
        }
        auto sc = std::make_shared<SimpleComp>(std::move(*norm));
        const long ain = sc->takes;
        const long aout = sc->emits;
        if (ain == 0 && aout == 0)
            return out;
        TypePtr inT = r.body()->ctype().in;
        TypePtr outT = r.body()->ctype().out;

        (void)ain;
        (void)aout;
        addFamilies(out, sc, inT, outT, ctx, r.hint());
        return out;
    }

    /**
     * Forced vectorization of a dynamic-cardinality transformer: wrap it
     * in rate adapters so the data path sees the annotated widths.
     */
    void
    addForced(CandSet& out, const CompPtr& self, const VectHint& hint)
    {
        const CompType& ct = self->ctype();
        if (!ct.in || !ct.out)
            return;
        int wi = hint.in > 1 ? hint.in : 1;
        int wo = hint.out > 1 ? hint.out : 1;
        if (wi == 1 && wo == 1)
            return;
        TypePtr inT = ct.in;
        TypePtr outT = ct.out;
        Cand c{wi, wo, 0.0, [self, inT, outT, wi, wo]() -> CompPtr {
                   CompPtr mid = self;
                   if (wi > 1) {
                       VarRef xa =
                           freshVar("vin_fwd", Type::array(inT, wi));
                       xa->scratch = true;
                       CompPtr unpack = zb::repeatc(zb::seqc(
                           {zb::bindc(xa, zb::take(xa->type)),
                            zb::just(zb::emits(zb::var(xa)))}));
                       mid = zb::pipe(std::move(unpack), std::move(mid));
                   }
                   if (wo > 1) {
                       VarRef arr = freshVar("vout_fwd",
                                             Type::array(outT, wo));
                       arr->scratch = true;
                       CompPtr pack = zb::repeatc(
                           zb::seqc({zb::bindc(arr, zb::takes(outT, wo)),
                                     zb::just(zb::emit(zb::var(arr)))}));
                       mid = zb::pipe(std::move(mid), std::move(pack));
                   }
                   return mid;
               }};
        addCand(out, std::move(c));
    }

    /** Down-vectorization set for a computer. */
    CandSet
    computerCands(const CompPtr& c)
    {
        CandSet out;
        addCand(out, identity(c));
        if (!c->ctype().isComputer)
            return out;
        auto norm = normalizeComp(c, cfg_.maxSteps);
        if (!norm)
            return out;
        auto sc = std::make_shared<SimpleComp>(std::move(*norm));
        if (sc->takes == 0 && sc->emits == 0)
            return out;
        TypePtr inT = c->ctype().in;
        TypePtr outT = c->ctype().out;
        for (int di : sc->takes ? divisorsOf(sc->takes)
                                : std::vector<int>{1}) {
            for (int dj : sc->emits ? divisorsOf(sc->emits)
                                    : std::vector<int>{1}) {
                if (di == 1 && dj == 1)
                    continue;  // identity already present
                addRewrite(out, sc, inT, outT, 1, di, dj, false,
                           std::nullopt);
            }
        }
        return out;
    }

    CandSet
    vect(const CompPtr& c, Ctx ctx)
    {
        switch (c->kind()) {
          case CompKind::Repeat:
            return repeatCands(c, static_cast<const RepeatComp&>(*c), ctx);
          case CompKind::Map: {
            // Treat `map f` as its repeat expansion for vectorization
            // purposes; auto-mapping later recovers the map form.
            const auto& m = static_cast<const MapComp&>(*c);
            CandSet out;
            addCand(out, identity(c));
            const FunRef& fn = m.fun();
            auto sc = std::make_shared<SimpleComp>();
            VarRef x = freshVar("x", fn->params[0]->type);
            x->scratch = true;
            SimpleStep t;
            t.kind = SimpleStep::Kind::TakeBind;
            t.bind = x;
            t.takeType = x->type;
            sc->steps.push_back(std::move(t));
            SimpleStep e;
            e.kind = SimpleStep::Kind::Emit;
            e.expr = zb::call(fn, {zb::var(x)});
            sc->steps.push_back(std::move(e));
            sc->takes = 1;
            sc->emits = 1;
            // Same families as a repeat with ain = aout = 1.
            addFamilies(out, sc, x->type, fn->retType, ctx, std::nullopt);
            return out;
          }
          case CompKind::Pipe: {
            const auto& p = static_cast<const PipeComp&>(*c);
            bool lC = p.left()->ctype().isComputer;
            bool rC = p.right()->ctype().isComputer;
            CandSet L = vect(p.left(),
                             Ctx{ctx.compLeft, rC || ctx.compRight});
            CandSet R = vect(p.right(),
                             Ctx{lC || ctx.compLeft, ctx.compRight});
            bool threaded = p.threaded();
            CandSet out;
            for (const auto& l : L) {
                for (const auto& r : R) {
                    int mid = unifyWidth(l.dout, r.din);
                    if (mid < 0)
                        continue;
                    double u = l.util + r.util +
                               (mid > 0 ? f(mid) : 0.0);
                    auto lb = l.build;
                    auto rb = r.build;
                    addCand(out,
                            Cand{l.din, r.dout, u,
                                 [lb, rb, threaded]() -> CompPtr {
                                     return std::make_shared<PipeComp>(
                                         lb(), rb(), threaded);
                                 }});
                }
            }
            if (out.empty())
                addCand(out, identity(c));
            return out;
          }
          case CompKind::Seq: {
            // Whole-computer down-vectorization (cardinality-based), plus
            // the Figure 2 composition rule over the items.
            CandSet out = computerCands(c);
            const auto& s = static_cast<const SeqComp&>(*c);

            struct Partial
            {
                int din = 0;
                int dout = 0;
                double util = 0;
                std::vector<std::function<CompPtr()>> builds;
            };
            std::vector<Partial> acc{Partial{}};
            bool ok = true;
            for (const auto& it : s.items()) {
                CandSet ic = vect(it.comp, ctx);
                std::vector<Partial> next;
                for (const auto& pa : acc) {
                    for (const auto& cand : ic) {
                        int di = unifyWidth(pa.din, cand.din);
                        int dj = unifyWidth(pa.dout, cand.dout);
                        if (di < 0 || dj < 0)
                            continue;
                        Partial np = pa;
                        np.din = di;
                        np.dout = dj;
                        np.util += cand.util;
                        np.builds.push_back(cand.build);
                        next.push_back(std::move(np));
                        if (static_cast<long>(next.size()) >
                            cfg_.candidateCap) {
                            ok = false;
                            break;
                        }
                    }
                    if (!ok)
                        break;
                }
                if (!ok)
                    break;
                // Local pruning on partial compositions.
                if (cfg_.prune) {
                    std::vector<Partial> pruned;
                    for (auto& np : next) {
                        bool merged = false;
                        for (auto& ex : pruned) {
                            if (ex.din == np.din && ex.dout == np.dout) {
                                if (np.util > ex.util)
                                    ex = std::move(np);
                                merged = true;
                                break;
                            }
                        }
                        if (!merged)
                            pruned.push_back(std::move(np));
                    }
                    next = std::move(pruned);
                }
                acc = std::move(next);
            }
            if (ok) {
                std::vector<SeqComp::Item> proto;
                for (const auto& it : s.items())
                    proto.push_back(SeqComp::Item{it.bind, nullptr});
                for (auto& pa : acc) {
                    auto builds = std::make_shared<
                        std::vector<std::function<CompPtr()>>>(
                        std::move(pa.builds));
                    auto binds = std::make_shared<
                        std::vector<SeqComp::Item>>(proto);
                    addCand(out,
                            Cand{pa.din, pa.dout, pa.util,
                                 [builds, binds]() -> CompPtr {
                                     std::vector<SeqComp::Item> items;
                                     for (size_t i = 0;
                                          i < builds->size(); ++i) {
                                         items.push_back(SeqComp::Item{
                                             (*binds)[i].bind,
                                             (*builds)[i]()});
                                     }
                                     return std::make_shared<SeqComp>(
                                         std::move(items));
                                 }});
                }
            }
            return out;
          }
          case CompKind::If: {
            const auto& i = static_cast<const IfComp&>(*c);
            CandSet out = computerCands(c);
            if (!i.elseC())
                return out;
            CandSet T = vect(i.thenC(), ctx);
            CandSet E = vect(i.elseC(), ctx);
            ExprPtr cond = i.cond();
            for (const auto& t : T) {
                for (const auto& e : E) {
                    int di = unifyWidth(t.din, e.din);
                    int dj = unifyWidth(t.dout, e.dout);
                    if (di < 0 || dj < 0)
                        continue;
                    auto tb = t.build;
                    auto eb = e.build;
                    addCand(out, Cand{di, dj, t.util + e.util,
                                      [cond, tb, eb]() -> CompPtr {
                                          return zb::ifc(cond, tb(), eb());
                                      }});
                }
            }
            return out;
          }
          case CompKind::LetVar: {
            const auto& l = static_cast<const LetVarComp&>(*c);
            CandSet body = vect(l.body(), ctx);
            CandSet out;
            VarRef v = l.var();
            ExprPtr init = l.init();
            for (const auto& b : body) {
                auto bb = b.build;
                addCand(out, Cand{b.din, b.dout, b.util,
                                  [v, init, bb]() -> CompPtr {
                                      return zb::letvar(v, init, bb());
                                  }});
            }
            return out;
          }
          default:
            return computerCands(c);
        }
    }

    const VectConfig& cfg_;
    VectStats* stats_;
};

} // namespace

CompPtr
vectorizeComp(const CompPtr& root, const VectConfig& cfg, VectStats* stats)
{
    Vectorizer v(cfg, stats);
    return v.run(root);
}

} // namespace ziria
