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

/**
 * The node build both drivers share: the build options and metrics sink
 * @p opt selects, one frame layout, and the backend switch.  build()
 * builds one partition; partitions built one after another over the
 * bump-allocated layout own contiguous frame ranges.
 */
class PartitionMaker
{
  public:
    PartitionMaker(const CompilerOptions& opt, CompileReport* report)
        : opt_(opt), report_(report), ec_(layout_)
    {
        bo_.autoLut = opt.autoLut;
        bo_.lutLimits = opt.lut;
        if (opt.instrument) {
            pm_ = std::make_shared<PipelineMetrics>();
            bo_.instrument = true;
            bo_.sampleShift = opt.sampleShift;
            bo_.metrics = pm_.get();
        }
    }

    // ec_ refers to layout_
    PartitionMaker(const PartitionMaker&) = delete;

    /** Build @p c under the stable node-path prefix @p path. */
    NodePtr
    build(const CompPtr& c, const std::string& path)
    {
        FuseStats* fs = report_ ? &report_->fuse : nullptr;
        switch (opt_.backend) {
          case Backend::Fused:
            return buildNodeFused(c, ec_, bo_, &bs_, fs, path);
          case Backend::Native:
            return buildNodeNative(c, ec_, bo_, &bs_, fs,
                                   report_ ? &report_->cgen : nullptr,
                                   opt_.cgenCacheDir, path);
          case Backend::Vm:
            break;
        }
        return buildNode(c, ec_, bo_, &bs_, path);
    }

    size_t frameSize() const { return layout_.frameSize(); }

    /** Record the build in the report; hand over the metrics sink
     *  (null unless instrumented). */
    std::shared_ptr<PipelineMetrics>
    finish()
    {
        if (report_) {
            report_->build = bs_;
            report_->buildSec = sw_.elapsedSec();
            report_->frameBytes = layout_.frameSize();
        }
        return std::move(pm_);
    }

  private:
    const CompilerOptions& opt_;
    CompileReport* report_;
    Stopwatch sw_;
    FrameLayout layout_;
    ExprCompiler ec_;
    std::shared_ptr<PipelineMetrics> pm_;
    BuildOptions bo_;
    BuildStats bs_;
};

} // namespace

std::unique_ptr<Pipeline>
compilePipeline(const CompPtr& program, const CompilerOptions& opt,
                CompileReport* report)
{
    CompPtr c = optimizeComp(program, opt, report);

    PartitionMaker b(opt, report);
    NodePtr root = b.build(c, "root");
    size_t inW = root->inWidth();
    size_t outW = root->outWidth();
    auto p = std::make_unique<Pipeline>(std::move(root), b.frameSize(),
                                        inW, outW);
    p->setRestartPolicy(opt.restart);
    p->setCheckpoint(opt.checkpoint);
    p->setMetrics(b.finish());
    return p;
}

std::unique_ptr<ThreadedPipeline>
compileThreadedPipeline(const CompPtr& program, const CompilerOptions& opt,
                        CompileReport* report)
{
    CompPtr c = optimizeComp(program, opt, report);

    PartitionMaker b(opt, report);
    std::vector<CompPtr> parts;
    splitStages(c, parts);
    std::vector<NodePtr> stages;
    std::vector<FrameRange> frames;  // each stage's contiguous cells
    for (size_t i = 0; i < parts.size(); ++i) {
        const size_t frameBegin = b.frameSize();
        stages.push_back(b.build(parts[i], "stage" + std::to_string(i)));
        frames.push_back({frameBegin, b.frameSize()});
    }

    size_t inW = stages.front()->inWidth();
    size_t outW = stages.back()->outWidth();
    // Stage boundary widths must agree (checked stream types guarantee
    // it); queue widths are derived per boundary inside ThreadedPipeline.
    auto p = std::make_unique<ThreadedPipeline>(
        std::move(stages), std::move(frames), b.frameSize(), inW, outW,
        opt.queueCapacity);
    p->setStallDeadline(opt.stallDeadlineMs);
    p->setRestartPolicy(opt.restart);
    p->setCheckpoint(opt.checkpoint);
    // Stage/queue telemetry is recorded on every run once a metrics
    // object is attached; node-level counters ride the same object.
    std::shared_ptr<PipelineMetrics> pm = b.finish();
    p->setMetrics(pm ? std::move(pm) : std::make_shared<PipelineMetrics>());
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
