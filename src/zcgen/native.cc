/**
 * @file
 * The native build driver.
 *
 * buildNodeNative lowers the partition to its one fused region, then
 * emits + compiles it as ONE translation unit (usually a shared-object
 * cache hit: jit.cc) and binds its `zr_region_0` into the FusedNode.
 * A region left unbound — no compiler on the host, a failed compile, a
 * missing symbol — stays on the bytecode interpreter over the very same
 * state, so the fallback ladder (native -> fused) never changes
 * observable behaviour, only speed.
 */
#include "zcgen/cgen.h"

#include <cstdio>

#include "support/metrics.h"
#include "zcgen/emit.h"

namespace ziria {

namespace {

/**
 * Emit, compile and bind @p region; returns why it stays on the
 * interpreter ("" once bound).
 */
std::string
bindRegion(FusedNode& region, const FrameLayout& layout, CgenStats& cs,
           const std::string& cacheDir)
{
    if (!zcgen::compilerAvailable())
        return "no C++ compiler found";

    auto& reg = metrics::Registry::global();
    zcgen::EmitUnit unit = zcgen::emitUnit(region.program(), layout);
    ++cs.emitted;
    cs.hostBridges += unit.hostBridges;
    reg.counter("ziria.cgen.emitted").inc();

    zcgen::JitResult jr = zcgen::compileUnit(
        unit.source, zcgen::resolveCacheDir(cacheDir));
    cs.cacheKey = jr.key;
    cs.compiler = zcgen::compilerVersion();
    cs.compileSec += jr.compileSec;
    if (jr.cacheHit) {
        ++cs.cacheHits;
        reg.counter("ziria.cgen.cache_hits").inc();
    } else {
        ++cs.cacheMisses;
        reg.counter("ziria.cgen.cache_misses").inc();
        if (jr.lib) {
            ++cs.compiled;
            reg.counter("ziria.cgen.compiled").inc();
        }
    }
    if (!jr.lib)
        return "native compilation failed: " + jr.error;

    void* fp = jr.lib->sym(zcgen::kRegionSymbol);
    if (!fp)
        return std::string("symbol ") + zcgen::kRegionSymbol + " missing";
    region.bindNative(jr.lib, reinterpret_cast<zcgen::ZrRegionFn>(fp));
    return "";
}

} // namespace

NodePtr
buildNodeNative(const CompPtr& c, ExprCompiler& ec,
                const BuildOptions& opt, BuildStats* stats,
                FuseStats* fstats, CgenStats* cstats,
                const std::string& cacheDir, const std::string& path)
{
    std::unique_ptr<FusedNode> region =
        buildRegion(c, ec, opt, stats, fstats, path);

    CgenStats local;
    CgenStats& cs = cstats ? *cstats : local;
    ++cs.regions;
    std::string why = bindRegion(*region, ec.layout(), cs, cacheDir);
    if (!why.empty()) {
        std::fprintf(stderr,
                     "ziria: cgen: %s; the region falls back to the fused "
                     "interpreter\n", why.c_str());
        ++cs.fallbacks;
        metrics::Registry::global().counter("ziria.cgen.fallbacks").inc();
    }
    return finishRegion(std::move(region), c, opt, path, "cgen");
}

} // namespace ziria
