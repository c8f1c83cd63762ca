#include "zir/compiler.h"

#include "support/timing.h"
#include "zcheck/check.h"

namespace ziria {

CompilerOptions
CompilerOptions::forLevel(OptLevel level)
{
    CompilerOptions opt;
    switch (level) {
      case OptLevel::None:
        opt.fold = false;
        opt.vectorize = false;
        opt.autoMap = false;
        opt.fuse = false;
        opt.autoLut = false;
        break;
      case OptLevel::Vectorize:
        opt.autoLut = false;
        opt.fuse = false;
        opt.vect.lutBonus = 0;
        break;
      case OptLevel::All:
        break;
    }
    return opt;
}

namespace {

/**
 * Run one AST pass with optional tracing.  All counting/timing
 * bookkeeping is skipped when no tracer is attached, so untraced
 * compiles (bench_compile_time) pay nothing.
 */
template <typename Fn>
CompPtr
runPass(const CompilerOptions& opt, CompileReport* report,
        const char* name, CompPtr c, Fn&& fn)
{
    if (!opt.tracer)
        return fn(std::move(c));
    int before = countComp(c);
    Stopwatch sw;
    CompPtr out = fn(std::move(c));
    double sec = sw.elapsedSec();
    int after = countComp(out);
    opt.tracer->onPass(name, sec, before, after, out);
    if (report)
        report->passes.push_back({name, sec, before, after});
    return out;
}

} // namespace

CompPtr
optimizeComp(const CompPtr& program, const CompilerOptions& opt,
             CompileReport* report)
{
    Stopwatch sw;
    CompPtr c = runPass(opt, report, "elaborate", program,
                        [](CompPtr x) { return elaborateComp(x); });
    if (opt.fold)
        c = runPass(opt, report, "fold", std::move(c),
                    [](CompPtr x) { return foldComp(x); });
    c = runPass(opt, report, "check", std::move(c), [](CompPtr x) {
        checkComp(x);
        return x;
    });
    if (report)
        report->frontendSec = sw.elapsedSec();

    if (opt.vectorize) {
        sw.reset();
        c = runPass(opt, report, "vectorize", std::move(c),
                    [&](CompPtr x) {
                        return vectorizeComp(
                            x, opt.vect, report ? &report->vect : nullptr);
                    });
        c = runPass(opt, report, "check", std::move(c), [](CompPtr x) {
            checkComp(x);
            return x;
        });
        if (report)
            report->vectorizeSec = sw.elapsedSec();
    }

    sw.reset();
    MapStats ms;
    if (opt.autoMap)
        c = runPass(opt, report, "auto-map", std::move(c),
                    [&](CompPtr x) { return autoMapComp(x, &ms); });
    if (opt.fuse)
        c = runPass(opt, report, "fuse", std::move(c),
                    [&](CompPtr x) { return fuseMaps(x, &ms); });
    c = runPass(opt, report, "check", std::move(c), [](CompPtr x) {
        checkComp(x);
        return x;
    });
    if (report) {
        report->maps = ms;
        report->optimizeSec = sw.elapsedSec();
        report->signature = c->ctype();
    }
    return c;
}

namespace {

/** Split the top-level `|>>>|` chain into per-thread partitions. */
void
splitStages(const CompPtr& c, std::vector<CompPtr>& out)
{
    if (c->kind() == CompKind::Pipe) {
        const auto& p = static_cast<const PipeComp&>(*c);
        if (p.threaded()) {
            splitStages(p.left(), out);
            splitStages(p.right(), out);
            return;
        }
    }
    out.push_back(c);
}

} // namespace

std::unique_ptr<Pipeline>
compilePipeline(const CompPtr& program, const CompilerOptions& opt,
                CompileReport* report)
{
    CompPtr c = optimizeComp(program, opt, report);

    Stopwatch sw;
    FrameLayout layout;
    ExprCompiler ec(layout);
    std::shared_ptr<PipelineMetrics> pm;
    BuildOptions bo;
    bo.autoLut = opt.autoLut;
    bo.lutLimits = opt.lut;
    if (opt.instrument) {
        pm = std::make_shared<PipelineMetrics>();
        bo.instrument = true;
        bo.sampleShift = opt.sampleShift;
        bo.metrics = pm.get();
    }
    BuildStats bs;
    NodePtr root;
    switch (opt.backend) {
      case Backend::Fused:
        root = buildNodeFused(c, ec, bo, &bs,
                              report ? &report->fuse : nullptr);
        break;
      case Backend::Native:
        root = buildNodeNative(c, ec, bo, &bs,
                               report ? &report->fuse : nullptr,
                               report ? &report->cgen : nullptr,
                               opt.cgenCacheDir);
        break;
      case Backend::Vm:
        root = buildNode(c, ec, bo, &bs);
        break;
    }
    size_t inW = root->inWidth();
    size_t outW = root->outWidth();
    auto p = std::make_unique<Pipeline>(std::move(root),
                                        layout.frameSize(), inW, outW);
    p->setRestartPolicy(opt.restart);
    p->setCheckpoint(opt.checkpoint);
    p->setMetrics(std::move(pm));
    if (report) {
        report->build = bs;
        report->buildSec = sw.elapsedSec();
        report->frameBytes = layout.frameSize();
    }
    return p;
}

std::unique_ptr<ThreadedPipeline>
compileThreadedPipeline(const CompPtr& program, const CompilerOptions& opt,
                        CompileReport* report)
{
    CompPtr c = optimizeComp(program, opt, report);

    Stopwatch sw;
    std::vector<CompPtr> parts;
    splitStages(c, parts);

    FrameLayout layout;
    ExprCompiler ec(layout);
    std::shared_ptr<PipelineMetrics> pm;
    BuildOptions bo;
    bo.autoLut = opt.autoLut;
    bo.lutLimits = opt.lut;
    if (opt.instrument) {
        pm = std::make_shared<PipelineMetrics>();
        bo.instrument = true;
        bo.sampleShift = opt.sampleShift;
        bo.metrics = pm.get();
    }
    BuildStats bs;
    std::vector<NodePtr> stages;
    stages.reserve(parts.size());
    // Partitions are built one after another over the bump-allocated
    // layout, so each stage's frame cells are one contiguous range.
    std::vector<ThreadedPipeline::FrameRange> frames;
    for (size_t i = 0; i < parts.size(); ++i) {
        const size_t frameBegin = layout.frameSize();
        std::string stagePath = "stage" + std::to_string(i);
        switch (opt.backend) {
          case Backend::Fused:
            stages.push_back(buildNodeFused(
                parts[i], ec, bo, &bs,
                report ? &report->fuse : nullptr, stagePath));
            break;
          case Backend::Native:
            stages.push_back(buildNodeNative(
                parts[i], ec, bo, &bs,
                report ? &report->fuse : nullptr,
                report ? &report->cgen : nullptr, opt.cgenCacheDir,
                stagePath));
            break;
          case Backend::Vm:
            stages.push_back(buildNode(parts[i], ec, bo, &bs, stagePath));
            break;
        }
        frames.push_back({frameBegin, layout.frameSize()});
    }

    size_t inW = stages.front()->inWidth();
    size_t outW = stages.back()->outWidth();
    // Stage boundary widths must agree (checked stream types guarantee
    // it); queue widths are derived per boundary inside ThreadedPipeline.
    auto p = std::make_unique<ThreadedPipeline>(
        std::move(stages), std::move(frames), layout.frameSize(), inW, outW,
        opt.queueCapacity);
    p->setStallDeadline(opt.stallDeadlineMs);
    p->setRestartPolicy(opt.restart);
    // Stage/queue telemetry is recorded on every run once a metrics
    // object is attached; node-level counters ride the same object.
    if (!pm)
        pm = std::make_shared<PipelineMetrics>();
    p->setMetrics(std::move(pm));
    if (report) {
        report->build = bs;
        report->buildSec = sw.elapsedSec();
        report->frameBytes = layout.frameSize();
    }
    return p;
}

void
CompileReport::writeJson(metrics::JsonWriter& w) const
{
    w.field("total_sec", totalSec());
    w.field("frontend_sec", frontendSec);
    w.field("vectorize_sec", vectorizeSec);
    w.field("optimize_sec", optimizeSec);
    w.field("build_sec", buildSec);
    w.field("frame_bytes", frameBytes);
    w.field("signature", signature.show());
    w.beginObject("vect");
    w.field("candidates", static_cast<int64_t>(vect.generated));
    w.field("kept", static_cast<int64_t>(vect.kept));
    w.field("capped", vect.capped);
    w.field("chosen_in", vect.chosenIn);
    w.field("chosen_out", vect.chosenOut);
    w.endObject();
    w.beginObject("maps");
    w.field("auto_mapped", maps.autoMapped);
    w.field("fused", maps.fused);
    w.endObject();
    w.beginObject("build");
    w.field("nodes", build.nodes);
    w.field("map_nodes", build.mapNodes);
    w.field("luts_built", build.lutsBuilt);
    w.field("lut_bytes", build.lutBytes);
    w.endObject();
    w.beginObject("fuse");
    w.field("nodes_fused", fuse.nodesFused);
    w.field("fallbacks", fuse.fallbacks);
    w.field("fused_ops", fuse.fusedOps);
    w.field("channels", fuse.channels);
    w.endObject();
    w.beginObject("cgen");
    w.field("regions", cgen.regions);
    w.field("emitted", cgen.emitted);
    w.field("compiled", cgen.compiled);
    w.field("cache_hits", cgen.cacheHits);
    w.field("cache_misses", cgen.cacheMisses);
    w.field("fallbacks", cgen.fallbacks);
    w.field("host_bridges", cgen.hostBridges);
    w.field("compile_sec", cgen.compileSec);
    w.field("compiler", cgen.compiler);
    w.field("cache_key", cgen.cacheKey);
    w.endObject();
    w.beginArray("passes");
    for (const auto& p : passes) {
        w.beginObject();
        w.field("name", p.name);
        w.field("sec", p.sec);
        w.field("nodes_before", p.nodesBefore);
        w.field("nodes_after", p.nodesAfter);
        w.endObject();
    }
    w.endArray();
}

} // namespace ziria
