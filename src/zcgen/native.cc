/**
 * @file
 * The native build driver.
 *
 * buildNodeNative runs the fused backend's region walk, then emits +
 * compiles ONE translation unit covering every region it made, so a
 * pipeline pays at most one compiler invocation (usually zero: the
 * shared-object cache in jit.cc), and binds each `zr_region_<i>` into
 * its FusedNode.  A region left unbound — no compiler on the host, a
 * failed compile, a missing symbol — stays on the bytecode
 * interpreter over the very same state, so the fallback ladder
 * (native -> fused) never changes observable behaviour, only speed.
 */
#include "zcgen/cgen.h"

#include <cstdio>

#include "support/metrics.h"
#include "zcgen/emit.h"

namespace ziria {

using zfuse::FuseProgram;

NodePtr
buildNodeNative(const CompPtr& c, ExprCompiler& ec,
                const BuildOptions& opt, BuildStats* stats,
                FuseStats* fstats, CgenStats* cstats,
                const std::string& cacheDir, const std::string& path)
{
    std::vector<FusedNode*> pending;
    NodePtr root =
        buildNodeFused(c, ec, opt, stats, fstats, path, &pending, "cgen");

    CgenStats local;
    CgenStats* cs = cstats ? cstats : &local;
    cs->regions += static_cast<int>(pending.size());
    auto& reg = metrics::Registry::global();

    if (pending.empty())
        return root;

    if (!zcgen::compilerAvailable()) {
        std::fprintf(stderr,
                     "ziria: cgen: no C++ compiler found; %zu region(s) "
                     "fall back to the fused interpreter\n",
                     pending.size());
        cs->fallbacks += static_cast<int>(pending.size());
        reg.counter("ziria.cgen.fallbacks").add(pending.size());
        return root;
    }

    std::vector<const FuseProgram*> progs;
    progs.reserve(pending.size());
    for (FusedNode* n : pending)
        progs.push_back(&n->program());
    zcgen::EmitUnit unit = zcgen::emitUnit(progs, ec.layout());
    cs->emitted += static_cast<int>(pending.size());
    cs->hostBridges += unit.hostBridges;
    reg.counter("ziria.cgen.emitted").add(pending.size());

    zcgen::JitResult jr = zcgen::compileUnit(
        unit.source, zcgen::resolveCacheDir(cacheDir));
    cs->cacheKey = jr.key;
    cs->compiler = zcgen::compilerVersion();
    cs->compileSec += jr.compileSec;
    if (jr.cacheHit) {
        ++cs->cacheHits;
        reg.counter("ziria.cgen.cache_hits").inc();
    } else {
        ++cs->cacheMisses;
        reg.counter("ziria.cgen.cache_misses").inc();
        if (jr.lib) {
            ++cs->compiled;
            reg.counter("ziria.cgen.compiled").inc();
        }
    }
    if (!jr.lib) {
        std::fprintf(stderr,
                     "ziria: cgen: native compilation failed; %zu "
                     "region(s) fall back to the fused interpreter: %s\n",
                     pending.size(), jr.error.c_str());
        cs->fallbacks += static_cast<int>(pending.size());
        reg.counter("ziria.cgen.fallbacks").add(pending.size());
        return root;
    }

    for (size_t i = 0; i < pending.size(); ++i) {
        std::string sym = "zr_region_" + std::to_string(i);
        void* fp = jr.lib->sym(sym.c_str());
        if (!fp) {
            std::fprintf(stderr,
                         "ziria: cgen: symbol %s missing; region falls "
                         "back to the fused interpreter\n", sym.c_str());
            ++cs->fallbacks;
            reg.counter("ziria.cgen.fallbacks").inc();
            continue;
        }
        pending[i]->bindNative(jr.lib,
                               reinterpret_cast<zcgen::ZrRegionFn>(fp));
    }
    return root;
}

} // namespace ziria
