/**
 * @file
 * Figure 4: overheads of the execution model.
 *
 *  (top)    cost of control-path composition: n sin() components bound in
 *           sequence vs all n sins in one block (paper: ~3 ns per seq);
 *  (middle) cost of data-path composition: n `repeat{x<-take; emit sin x}`
 *           blocks composed with >>> vs the map variant vs a single fused
 *           block (paper: ~24 ns per >>> with repeat, ~1 ns with map);
 *  (bottom) pipelined composition |>>>|: n sin calls per datum on one vs
 *           two threads; the paper's break-even is ~30 calls per datum.
 */
#include <unistd.h>

#include <cmath>
#include <thread>

#include "bench_util.h"
#include "zexec/ckpt_store.h"
#include "zexec/span.h"
#include "zexpr/natives.h"

using namespace ziria;
using namespace zbench;
using namespace zb;

namespace {

std::vector<uint8_t>
doubleInput(size_t n)
{
    Rng rng(3);
    std::vector<double> xs(n);
    for (auto& x : xs)
        x = rng.uniform();
    std::vector<uint8_t> out(n * 8);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

ExprPtr
sinOf(ExprPtr e)
{
    return call(natives::lookup("sin"), {std::move(e)});
}

/** repeat { x <- take; do y := sin y (n separate seq items); emit y } */
CompPtr
seqChain(int n)
{
    VarRef x = freshVar("x", Type::real());
    VarRef y = freshVar("y", Type::real());
    std::vector<SeqComp::Item> items;
    items.push_back(bindc(x, take(Type::real())));
    items.push_back(just(doS({assign(var(y), var(x))})));
    for (int i = 0; i < n; ++i)
        items.push_back(just(doS({assign(var(y), sinOf(var(y)))})));
    items.push_back(just(emit(var(y))));
    return repeatc(seqc(std::move(items)));
}

/** Same n sin statements, all inside one block — the baseline. */
CompPtr
fusedChain(int n)
{
    VarRef x = freshVar("x", Type::real());
    VarRef y = freshVar("y", Type::real());
    StmtList stmts;
    stmts.push_back(assign(var(y), var(x)));
    for (int i = 0; i < n; ++i)
        stmts.push_back(assign(var(y), sinOf(var(y))));
    return repeatc(seqc({bindc(x, take(Type::real())),
                         just(doS(std::move(stmts))),
                         just(emit(var(y)))}));
}

/** n >>>-composed one-sin blocks (repeat form). */
CompPtr
pipeChainRepeat(int n)
{
    CompPtr c = nullptr;
    for (int i = 0; i < n; ++i) {
        VarRef x = freshVar("x", Type::real());
        CompPtr blk = repeatc(seqc({bindc(x, take(Type::real())),
                                    just(emit(sinOf(var(x))))}));
        c = c ? pipe(std::move(c), std::move(blk)) : std::move(blk);
    }
    return c;
}

/** n >>>-composed one-sin blocks (map form). */
CompPtr
pipeChainMap(int n)
{
    CompPtr c = nullptr;
    for (int i = 0; i < n; ++i) {
        VarRef x = freshVar("x", Type::real());
        FunRef f = fun("sin1", {x}, {}, sinOf(var(x)));
        CompPtr blk = mapc(f);
        c = c ? pipe(std::move(c), std::move(blk)) : std::move(blk);
    }
    return c;
}

double
nsPerDatum(const CompPtr& c, uint64_t n_data, bool fuse_maps = false,
           bool instrument = false, Backend backend = Backend::Vm,
           uint64_t ckpt_interval = 0)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    // The paper's map variant benefits from static scheduling; in this
    // backend that role is played by map fusion, which collapses the
    // chain's per-stage tick/proc traffic exactly as their codegen does.
    opt.fuse = fuse_maps;
    opt.instrument = instrument;
    opt.backend = backend;
    opt.checkpoint.interval = ckpt_interval;
    // Pipeline::run only engages the journal/snapshot machinery under a
    // restart policy; without one the ckpt_on figure would silently
    // measure the same no-op path as ckpt_off.
    if (ckpt_interval > 0) {
        opt.restart.mode = RestartMode::OnFailure;
        opt.restart.maxRestarts = 1;
    }
    auto p = compilePipeline(c, opt);
    static std::vector<uint8_t> input = doubleInput(4096);
    double sec = timePipeline(*p, input, n_data);
    return sec * 1e9 / static_cast<double>(n_data);
}

/**
 * `--overhead-check`: the zero-cost-when-off guard used by
 * scripts/check_overhead.sh.  Reports ns/datum for a pipe-heavy
 * workload with instrumentation support compiled in but disabled (the
 * default execution path) and, for reference, with per-node counters
 * enabled; then the same comparison for the frame-span tracker
 * (zexec/span.h): no tracker attached (one null check per element) vs
 * one attached.  Output is machine-readable key/value lines.
 */
int
overheadCheck()
{
    const uint64_t N = 400000;
    const int CHAIN = 20;
    // Warm up allocators/caches — and let the clock governor settle —
    // so every measurement below sees the same machine state.  The
    // first key pair measured used to eat the frequency ramp and swing
    // far beyond the gate's tolerance; a full-length warm-up run keeps
    // consecutive invocations comparable.
    nsPerDatum(pipeChainRepeat(CHAIN), N);
    double disabled = 1e18, enabled = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
        disabled = std::min(disabled, nsPerDatum(pipeChainRepeat(CHAIN), N));
        enabled = std::min(
            enabled, nsPerDatum(pipeChainRepeat(CHAIN), N, false, true));
    }
    printf("ns_per_datum_disabled %.2f\n", disabled);
    printf("ns_per_datum_enabled %.2f\n", enabled);
    printf("instrument_on_overhead_pct %.1f\n",
           (enabled / disabled - 1.0) * 100.0);

    // Span off-path: one compiled pipeline, alternating between no
    // tracker (the production default) and a tracker with the default
    // 256-element frame.
    auto p = compilePipeline(pipeChainRepeat(CHAIN),
                             CompilerOptions::forLevel(OptLevel::None));
    static std::vector<uint8_t> input = doubleInput(4096);
    timePipeline(*p, input, N / 4);
    double spansOff = 1e18, spansOn = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
        spansOff = std::min(spansOff, timePipeline(*p, input, N) * 1e9 /
                                          static_cast<double>(N));
        auto spans = std::make_shared<SpanTracker>(SpanConfig{});
        p->setSpans(spans);
        spansOn = std::min(spansOn, timePipeline(*p, input, N) * 1e9 /
                                        static_cast<double>(N));
        p->setSpans(nullptr);
    }
    printf("ns_per_datum_spans_off %.2f\n", spansOff);
    printf("ns_per_datum_spans_on %.2f\n", spansOn);
    printf("spans_on_overhead_pct %.1f\n",
           (spansOn / spansOff - 1.0) * 100.0);

    // Fused-backend off-path: Backend::Fused is a compile-time branch
    // in the node builder, so a VM build (the default) must cost what
    // it always did — ns_per_datum_vm is gated against the baseline by
    // check_overhead.sh.  The fused figure rides along for reference
    // (bench_fuse measures it properly).
    double vmNs = 1e18, fusedNs = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
        vmNs = std::min(vmNs, nsPerDatum(pipeChainRepeat(CHAIN), N,
                                         false, false, Backend::Vm));
        fusedNs = std::min(fusedNs,
                           nsPerDatum(pipeChainRepeat(CHAIN), N, false,
                                      false, Backend::Fused));
    }
    printf("ns_per_datum_vm %.2f\n", vmNs);
    printf("ns_per_datum_fused %.2f\n", fusedNs);
    printf("fused_vs_vm_speedup %.2f\n", vmNs / fusedNs);

    // Native-backend off-path: zcgen (emit + dlopen codegen) is linked
    // into every build, but Backend::Native is a compile-time branch in
    // the node builder — the region emitter, the compiler probe, and
    // the shared-object cache only run when selected.  A vm or fused
    // build must therefore cost what it always did.  Both hot paths are
    // remeasured here with the native backend available but NOT
    // selected; check_overhead.sh gates them against their twins from
    // this same invocation (base path and ns_per_datum_fused).
    double nativeOffVm = 1e18, nativeOffFz = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
        nativeOffVm =
            std::min(nativeOffVm, nsPerDatum(pipeChainRepeat(CHAIN), N,
                                             false, false, Backend::Vm));
        nativeOffFz = std::min(nativeOffFz,
                               nsPerDatum(pipeChainRepeat(CHAIN), N,
                                          false, false, Backend::Fused));
    }
    printf("ns_per_datum_native_off %.2f\n", nativeOffVm);
    printf("ns_per_datum_native_off_fused %.2f\n", nativeOffFz);

    // Checkpoint off-path: without --checkpoint the run loop must not
    // pay for the snapshot machinery's existence (no journaling, no
    // cadence checks beyond one branch).  ns_per_datum_ckpt_off is
    // gated by check_overhead.sh; the cadence-4096 figure rides along
    // for reference (journal copies plus a periodic tree snapshot).
    double ckptOff = 1e18, ckptOn = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
        ckptOff = std::min(ckptOff, nsPerDatum(pipeChainRepeat(CHAIN), N,
                                               false, false, Backend::Vm,
                                               0));
        ckptOn = std::min(ckptOn, nsPerDatum(pipeChainRepeat(CHAIN), N,
                                             false, false, Backend::Vm,
                                             4096));
    }
    printf("ns_per_datum_ckpt_off %.2f\n", ckptOff);
    printf("ns_per_datum_ckpt_on %.2f\n", ckptOn);
    printf("ckpt_on_overhead_pct %.1f\n",
           (ckptOn / ckptOff - 1.0) * 100.0);

    // Durable-store off-path: with checkpointing enabled but no
    // --ckpt-dir attached (the default), each cadence boundary pays one
    // null check for the store pointer and nothing else — no disk I/O,
    // no extra copies.  ns_per_datum_ckptdir_off is gated by
    // check_overhead.sh; the on-disk figure (same cadence, every
    // snapshot persisted through CkptStore) rides along for reference.
    double ckptdirOff = 1e18, ckptdirOn = 1e18;
    {
        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.checkpoint.interval = 4096;
        opt.restart.mode = RestartMode::OnFailure;
        opt.restart.maxRestarts = 1;
        auto off = compilePipeline(pipeChainRepeat(CHAIN), opt);
        auto on = compilePipeline(pipeChainRepeat(CHAIN), opt);
        std::string dir =
            "/tmp/ziria-overhead-ckpt." + std::to_string(::getpid());
        CkptStore store(dir);
        on->setDurable(&store, "overhead-check");
        timePipeline(*off, input, N / 4);
        for (int rep = 0; rep < 3; ++rep) {
            ckptdirOff =
                std::min(ckptdirOff, timePipeline(*off, input, N) * 1e9 /
                                         static_cast<double>(N));
            ckptdirOn =
                std::min(ckptdirOn, timePipeline(*on, input, N) * 1e9 /
                                        static_cast<double>(N));
        }
        store.remove("overhead-check");
    }
    printf("ns_per_datum_ckptdir_off %.2f\n", ckptdirOff);
    printf("ns_per_datum_ckptdir_on %.2f\n", ckptdirOn);
    printf("ckptdir_on_overhead_pct %.1f\n",
           (ckptdirOn / ckptdirOff - 1.0) * 100.0);
    return 0;
}

/** Least-squares slope of (x, y) points. */
double
slope(const std::vector<double>& xs, const std::vector<double>& ys)
{
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    size_t n = xs.size();
    for (size_t i = 0; i < n; ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
    }
    return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc > 1 && std::string(argv[1]) == "--overhead-check")
        return overheadCheck();
    const uint64_t N = 400000;
    const std::vector<int> sizes{1, 5, 10, 20, 50, 100};

    printf("Figure 4 (top): seq composition overhead\n");
    rule();
    printf("%6s %16s %16s\n", "n", "bind ns/datum", "baseline ns/datum");
    std::vector<double> xs, bindNs, baseNs;
    for (int n : sizes) {
        double b = nsPerDatum(seqChain(n), N);
        double f = nsPerDatum(fusedChain(n), N);
        printf("%6d %16.1f %16.1f\n", n, b, f);
        xs.push_back(n);
        bindNs.push_back(b);
        baseNs.push_back(f);
    }
    double seqCost = slope(xs, bindNs) - slope(xs, baseNs);
    printf("=> cost per seq bind: %.1f ns (paper: ~3 ns)\n\n", seqCost);

    printf("Figure 4 (middle): >>> composition overhead\n");
    rule();
    printf("%6s %16s %16s %16s\n", "n", "repeat ns", "map ns",
           "baseline ns");
    std::vector<double> repNs, mapNs;
    for (int n : sizes) {
        double r = nsPerDatum(pipeChainRepeat(n), N);
        double m = nsPerDatum(pipeChainMap(n), N);
        double f = nsPerDatum(fusedChain(n), N);
        printf("%6d %16.1f %16.1f %16.1f\n", n, r, m, f);
        repNs.push_back(r);
        mapNs.push_back(m);
    }
    printf("=> cost per >>> with repeat: %.1f ns (paper: ~24 ns)\n",
           slope(xs, repNs) - slope(xs, baseNs));
    printf("=> cost per >>> with map:    %.1f ns (paper: ~1 ns)\n\n",
           slope(xs, mapNs) - slope(xs, baseNs));

    printf("Figure 4 (bottom): pipelined |>>>| on two threads\n");
    rule();
    printf("(host has %u hardware thread(s); the paper used 2 pinned "
           "cores)\n", std::thread::hardware_concurrency());
    printf("%6s %16s %16s %10s\n", "n sins", "1 thread ns", "2 threads ns",
           "speedup");
    const uint64_t NP = 100000;
    for (int n : {2, 10, 30, 60, 90, 150, 200}) {
        auto p1 = compilePipeline(fusedChain(n),
                                  CompilerOptions::forLevel(OptLevel::None));
        static std::vector<uint8_t> input = doubleInput(4096);
        double t1 =
            timePipeline(*p1, input, NP) * 1e9 / static_cast<double>(NP);

        CompPtr half1 = fusedChain(n / 2);
        CompPtr half2 = fusedChain(n - n / 2);
        auto p2 = compileThreadedPipeline(
            ppipe(std::move(half1), std::move(half2)),
            CompilerOptions::forLevel(OptLevel::None));
        CyclicSource src(input, 8, NP);
        NullSink sink;
        Stopwatch sw;
        p2->run(src, sink);
        double t2 = sw.elapsedSec() * 1e9 / static_cast<double>(NP);
        printf("%6d %16.1f %16.1f %9.2fx\n", n, t1, t2, t1 / t2);
    }
    printf("=> paper: break-even ~30 calls/datum, 1.7x at 60, 2x at 90\n");
    printf("   (stage 0 emits one element per source pull and hands it on\n"
           "    before the next pull, so only the consumer side of the "
           "queue\n    moves batches here)\n");
    return 0;
}
