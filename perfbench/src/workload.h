/**
 * @file
 * Helpers shared by the three workload sources: timed compilation with
 * the compiler's own report folded into per-layer metrics, registry
 * deltas and the timed set-up.
 */
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <string>
#include <vector>

#include "harness.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/timing.h"
#include "wifi/params.h"
#include "zir/compiler.h"

namespace perfbench {

using namespace ziria;

/** "r6", "r9", ... for per-rate metric names. */
inline std::string
rateKey(wifi::Rate r)
{
    return "r" + std::to_string(wifi::rateInfo(r).mbps);
}

/**
 * Every compile call of a run: wall time per call, and the compiler's
 * report summed over one instantiation of the workload's programs (the
 * set compiled by the last timed set-up).
 */
class CompileLog
{
  public:
    /** Start a fresh instantiation (the per-set sums restart). */
    void beginSet() { set_ = Sums{}; }

    /** Record one compile call. */
    void
    add(double sec, const CompileReport& rep)
    {
        callsMs_.push_back(sec * 1e3);
        set_.ms += sec * 1e3;
        set_.frontend += rep.frontendSec * 1e3;
        set_.vectorize += rep.vectorizeSec * 1e3;
        set_.optimize += rep.optimizeSec * 1e3;
        set_.build += rep.buildSec * 1e3;
        set_.generated += static_cast<double>(rep.vect.generated);
        set_.kept += static_cast<double>(rep.vect.kept);
        set_.autoMapped += rep.maps.autoMapped;
        set_.mapsFused += rep.maps.fused;
        set_.luts += rep.build.lutsBuilt;
        set_.lutBytes += static_cast<double>(rep.build.lutBytes);
        set_.nodesFused += rep.fuse.nodesFused;
        set_.fuseFallbacks += rep.fuse.fallbacks;
        set_.fusedOps += rep.fuse.fusedOps;
        set_.regions += rep.cgen.regions;
        set_.hits += rep.cgen.cacheHits;
        set_.misses += rep.cgen.cacheMisses;
        set_.bridges += rep.cgen.hostBridges;
        if (!rep.cgen.compiler.empty())
            compiler_ = rep.cgen.compiler;
    }

    /** Compile @p comp single-threaded, timing and recording it. */
    std::unique_ptr<Pipeline>
    pipeline(const CompPtr& comp, const CompilerOptions& opt)
    {
        Span span("zir.compile");
        CompileReport rep;
        Stopwatch sw;
        auto p = compilePipeline(comp, opt, &rep);
        add(sw.elapsedSec(), rep);
        return p;
    }

    /** Compile @p comp for the threaded driver. */
    std::unique_ptr<ThreadedPipeline>
    threaded(const CompPtr& comp, const CompilerOptions& opt)
    {
        Span span("zir.compile");
        CompileReport rep;
        Stopwatch sw;
        auto p = compileThreadedPipeline(comp, opt, &rep);
        add(sw.elapsedSec(), rep);
        return p;
    }

    /** CgenStats::compiler of the last native build ("" if none). */
    const std::string& compiler() const { return compiler_; }

    void
    fill(Result& r) const
    {
        r.layer["zir.compile_ms_sum"] = set_.ms;
        r.layer["zir.compile_ms_p99"] = tail(callsMs_).value;
        r.layer["zir.frontend_ms"] = set_.frontend;
        r.layer["zvect.vectorize_ms"] = set_.vectorize;
        r.layer["zvect.candidates_generated"] = set_.generated;
        r.layer["zvect.candidates_kept"] = set_.kept;
        r.layer["zopt.optimize_ms"] = set_.optimize;
        r.layer["zopt.auto_mapped"] = set_.autoMapped;
        r.layer["zopt.maps_fused"] = set_.mapsFused;
        r.layer["zexpr.build_ms"] = set_.build;
        r.layer["zexpr.luts_built"] = set_.luts;
        r.layer["zexpr.lut_bytes"] = set_.lutBytes;
        r.layer["zfuse.nodes_fused"] = set_.nodesFused;
        r.layer["zfuse.fallbacks"] = set_.fuseFallbacks;
        r.layer["zfuse.ops"] = set_.fusedOps;
        r.layer["zcgen.regions"] = set_.regions;
        r.layer["zcgen.cache_hits"] = set_.hits;
        r.layer["zcgen.cache_misses"] = set_.misses;
        r.layer["zcgen.host_bridges"] = set_.bridges;
    }

  private:
    struct Sums
    {
        double ms = 0, frontend = 0, vectorize = 0, optimize = 0,
               build = 0, generated = 0, kept = 0, autoMapped = 0,
               mapsFused = 0, luts = 0, lutBytes = 0, nodesFused = 0,
               fuseFallbacks = 0, fusedOps = 0, regions = 0, hits = 0,
               misses = 0, bridges = 0;
    };

    std::vector<double> callsMs_;
    Sums set_;
    std::string compiler_;
};

/** Snapshot of registry counters, for before/after deltas. */
class CounterDelta
{
  public:
    explicit CounterDelta(std::vector<std::string> names)
        : names_(std::move(names)), base_(read())
    {
    }

    /** Each counter's growth since construction, in constructor order. */
    std::vector<double>
    delta() const
    {
        std::vector<double> now = read(), out(names_.size());
        for (size_t i = 0; i < names_.size(); ++i)
            out[i] = now[i] - base_[i];
        return out;
    }

  private:
    std::vector<double>
    read() const
    {
        auto& reg = metrics::Registry::global();
        std::vector<double> v;
        for (const auto& n : names_)
            v.push_back(static_cast<double>(reg.counter(n).value()));
        return v;
    }

    std::vector<std::string> names_;
    std::vector<double> base_;
};

/** Set-up time of one workload run. */
struct SetupTime
{
    double sec = 0;      ///< setup_s: in calibration chunks, as seconds
    double wallSec = 0;  ///< plain median wall time
};

/**
 * Build the workload's programs @p reps times.  Each build's wall time
 * is divided by the calibration time measured right before and after
 * it, and the median ratio is scaled back to seconds with
 * Calibration::kRefSec: the set-up time on the reference machine.  The
 * previous build is destroyed before each timed one starts; the last
 * build is returned.
 */
template <typename Fn>
auto
medianSetup(int reps, Calibration& calib, SetupTime* out, Fn&& build)
{
    std::vector<double> rel, wall;
    decltype(build()) keep{};
    for (int i = 0; i < reps; ++i) {
        keep = {};
        double before = calib.sample(5);
        Stopwatch sw;
        auto built = build();
        double sec = sw.elapsedSec();
        double after = calib.sample(5);
        rel.push_back(sec / ((before + after) / 2));
        wall.push_back(sec);
        keep = std::move(built);
    }
    out->sec = median(rel) * Calibration::kRefSec;
    out->wallSec = median(wall);
    return keep;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
