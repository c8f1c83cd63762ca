/**
 * @file
 * Fused backend vs the closure-tree VM (docs/FUSION.md).
 *
 *  (1) per-`>>>` composition cost, the Figure 4 (middle) experiment at
 *      both backends: n one-sin `repeat` blocks composed with `>>>`
 *      against the same n sins in a single block.  The VM pays the
 *      tick/proc trampoline per stage (~78 ns here, paper ~24 ns on
 *      compiled C); the fused backend lowers the interior `>>>` to a
 *      two-instruction channel jump, target <= 40 ns.
 *  (2) full WiFi TX chain throughput at all eight rates, vm vs fused
 *      vs native, unoptimized and fully optimized, plus native
 *      --opt all without auto-LUT (ng/nolut: does the table still pay
 *      once native code inlines its lookups?);
 *  (3) WiFi RX data path at all eight rates on every backend, the
 *      best configuration (native, --opt all) against the hand-written
 *      sora::rxDataBits, native --opt all without auto-LUT, and the
 *      full receiver against sora::rxFrame;
 *      native kernels (FFT, Viterbi) run inside the fused region, so
 *      each row also prints its region count;
 *  (4) native backend compile cost: cold cache (emit + C++ compile +
 *      dlopen) vs warm cache (CRC-verified hit, no compiler run);
 *  (5) the per-element boundary cost: the identity program
 *      `repeat { x <- take; emit x }` over complex16 and over bit, from
 *      a MemSource into a VecSink (the phy_link driver's endpoints),
 *      on every backend.  What it costs is the driver <-> region hand-
 *      off alone, which run-granular I/O windows amortize.
 *
 * All three backends share every series; the native backend
 * (docs/CODEGEN.md) compiles the same fused regions to machine code
 * through the shared-object cache, so its per-`>>>` cost should sit at
 * or below the fused interpreter's.  Without a working C++ compiler the
 * native columns silently equal the fused ones (interpreter fallback).
 *
 * Results print as tables and are dumped to BENCH_fuse.json.
 */
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>

#include "bench_util.h"
#include "channel/channel.h"
#include "sora/sora.h"
#include "support/metrics.h"
#include "zcgen/cgen.h"
#include "zexpr/natives.h"

using namespace ziria;
using namespace zbench;
using namespace zb;
using namespace ziria::wifi;

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

/** n `repeat { x <- take; emit sin x }` blocks composed with `>>>`. */
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

/** The same n sin calls inside one block — the composition-free floor. */
CompPtr
baselineChain(int n)
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

double
nsPerDatum(const CompPtr& c, uint64_t n_data, Backend backend)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.backend = backend;
    auto p = compilePipeline(c, opt);
    static std::vector<uint8_t> input = doubleInput(4096);
    double sec = timePipeline(*p, input, n_data);
    return sec * 1e9 / static_cast<double>(n_data);
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

CompPtr
txChain(Rate rate)
{
    const RateInfo& ri = rateInfo(rate);
    return pipe(pipe(pipe(scramblerBlock(), encoderBlock(ri.coding)),
                     interleaverBlock(ri.modulation)),
                modulatorBlock(ri.modulation));
}

CompilerOptions
withBackend(OptLevel lvl, Backend b)
{
    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = b;
    return opt;
}

/** `repeat { x <- take; emit x }` over @p t. */
CompPtr
identity(const TypePtr& t)
{
    VarRef x = freshVar("x", t);
    return repeatc(seqc({bindc(x, take(t)), just(emit(var(x)))}));
}

/**
 * ns per element of the identity program over @p t on @p b: the
 * fastest of 15 runs of @p n elements from a MemSource into a VecSink.
 */
double
identityNs(const TypePtr& t, Backend b, size_t n)
{
    auto p = compilePipeline(identity(t), withBackend(OptLevel::None, b));
    std::vector<uint8_t> in(n * p->inWidth());
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<uint8_t>(t->kind() == TypeKind::Bit ? i & 1
                                                                : i * 7);
    double best = 1e30;
    for (int k = 0; k < 15; ++k) {
        MemSource src(in, p->inWidth());
        VecSink sink(p->outWidth());
        Stopwatch sw;
        p->run(src, sink);
        best = std::min(best, sw.elapsedSec());
        if (sink.data() != in)
            fatal("bench_fuse: identity program changed its input");
    }
    return best * 1e9 / static_cast<double>(n);
}

/** Native --opt all with auto-LUT off: the ng/nolut columns. */
CompilerOptions
nativeNoLut()
{
    CompilerOptions opt = withBackend(OptLevel::All, Backend::Native);
    opt.autoLut = false;
    return opt;
}

} // namespace

int
main()
{
    metrics::JsonWriter w;
    w.beginObject();
    w.field("benchmark", "fuse");

    // ---- (1) per->>> composition cost --------------------------------
    printf("Backends: >>> composition cost (ns/datum)\n");
    if (!zcgen::compilerAvailable())
        printf("   (no C++ compiler found: native == fused "
               "interpreter fallback)\n");
    rule();
    printf("%6s %10s %10s %10s %10s %10s %10s\n", "n", "vm pipe",
           "fz pipe", "ng pipe", "vm base", "fz base", "ng base");
    const uint64_t N = 400000;
    // Warm-up so all backends see hot allocators/caches.
    nsPerDatum(pipeChainRepeat(10), N / 4, Backend::Vm);
    nsPerDatum(pipeChainRepeat(10), N / 4, Backend::Fused);
    nsPerDatum(pipeChainRepeat(10), N / 4, Backend::Native);
    std::vector<double> xs, vmPipe, fzPipe, ngPipe, vmBase, fzBase,
        ngBase;
    for (int n : {1, 5, 10, 20, 50}) {
        double pv = nsPerDatum(pipeChainRepeat(n), N, Backend::Vm);
        double pf = nsPerDatum(pipeChainRepeat(n), N, Backend::Fused);
        double pn = nsPerDatum(pipeChainRepeat(n), N, Backend::Native);
        double bv = nsPerDatum(baselineChain(n), N, Backend::Vm);
        double bf = nsPerDatum(baselineChain(n), N, Backend::Fused);
        double bn = nsPerDatum(baselineChain(n), N, Backend::Native);
        printf("%6d %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f\n", n, pv,
               pf, pn, bv, bf, bn);
        xs.push_back(n);
        vmPipe.push_back(pv);
        fzPipe.push_back(pf);
        ngPipe.push_back(pn);
        vmBase.push_back(bv);
        fzBase.push_back(bf);
        ngBase.push_back(bn);
    }
    double vmNs = slope(xs, vmPipe) - slope(xs, vmBase);
    double fzNs = slope(xs, fzPipe) - slope(xs, fzBase);
    double ngNs = slope(xs, ngPipe) - slope(xs, ngBase);
    printf("=> cost per >>>: vm %.1f ns, fused %.1f ns, native %.1f ns "
           "(paper ~24 ns, target <= 40 ns)\n\n", vmNs, fzNs, ngNs);
    w.beginObject("per_pipe");
    w.field("vm_ns", vmNs);
    w.field("fused_ns", fzNs);
    w.field("native_ns", ngNs);
    w.field("paper_ns", 24.0);
    w.field("target_ns", 40.0);
    w.endObject();

    // ---- (2) full TX chain, all 8 rates ------------------------------
    printf("WiFi TX chain (scramble>>>encode>>>interleave>>>map), "
           "M bits/s:\n");
    rule();
    printf("%-8s %9s %9s %9s %7s %9s %9s %9s %7s %9s\n", "rate",
           "vm/none", "fz/none", "ng/none", "ng/fz", "vm/all", "fz/all",
           "ng/all", "ng/fz", "ng/nolut");
    auto bitsIn = randomBits(576 * 64, 5);
    const uint64_t BITS = 576 * 600;
    w.beginArray("tx");
    for (Rate rate : allRates()) {
        double vn = elemsPerSec(txChain(rate),
                                withBackend(OptLevel::None, Backend::Vm),
                                bitsIn, 1, BITS);
        double fn =
            elemsPerSec(txChain(rate),
                        withBackend(OptLevel::None, Backend::Fused),
                        bitsIn, 1, BITS);
        double nn =
            elemsPerSec(txChain(rate),
                        withBackend(OptLevel::None, Backend::Native),
                        bitsIn, 1, BITS);
        double va = elemsPerSec(txChain(rate),
                                withBackend(OptLevel::All, Backend::Vm),
                                bitsIn, 1, BITS);
        double fa = elemsPerSec(txChain(rate),
                                withBackend(OptLevel::All, Backend::Fused),
                                bitsIn, 1, BITS);
        double na =
            elemsPerSec(txChain(rate),
                        withBackend(OptLevel::All, Backend::Native),
                        bitsIn, 1, BITS);
        double nl = elemsPerSec(txChain(rate), nativeNoLut(), bitsIn, 1,
                                BITS);
        printf("%-8s %9.2f %9.2f %9.2f %6.2fx %9.2f %9.2f %9.2f %6.2fx "
               "%9.2f\n",
               ("TX" + std::to_string(rateInfo(rate).mbps)).c_str(),
               vn / 1e6, fn / 1e6, nn / 1e6, nn / fn, va / 1e6, fa / 1e6,
               na / 1e6, na / fa, nl / 1e6);
        w.beginObject();
        w.field("mbps", rateInfo(rate).mbps);
        w.field("vm_none", vn);
        w.field("fused_none", fn);
        w.field("native_none", nn);
        w.field("vm_all", va);
        w.field("fused_all", fa);
        w.field("native_all", na);
        w.field("native_all_nolut", nl);
        w.endObject();
    }
    w.endArray();

    // ---- (3) RX data path, all 8 rates, and the full receiver -------
    printf("\nWiFi RX data path (native kernels inline in fused "
           "regions), M samples/s;\nvm/fz/ng at --opt none, ng/all = "
           "native --opt all, ng/nolut = the same without auto-LUT,\n"
           "sora = sora::rxDataBits:\n");
    rule('-', 105);
    printf("%-8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %5s\n", "rate", "vm",
           "fused", "native", "fz/vm", "ng/vm", "ng/all", "ng/nolut",
           "sora", "ng/sora", "r");
    const int psdu = 1000;
    // One packet decodes in about a millisecond, so every figure comes
    // from the fastest of kReps whole runs: the run least disturbed by
    // the rest of the host.  Returns {seconds, samples consumed}.
    const int kReps = 21;
    struct Run
    {
        double sec = 1e30;
        double samples = 0;
        double msps() const { return samples / sec / 1e6; }
    };
    auto zRun = [&](Pipeline& p, const std::vector<uint8_t>& in) {
        Run best;
        for (int k = 0; k < kReps; ++k) {
            MemSource src(in, p.inWidth());
            NullSink sink;
            Stopwatch sw;
            RunStats st = p.run(src, sink);
            double sec = sw.elapsedSec();
            if (sec < best.sec)
                best = {sec, static_cast<double>(st.consumed *
                                                 p.inWidth() / 4)};
        }
        return best;
    };
    size_t soraSink = 0;  // keeps the reference decodes observable
    auto soraRun = [&](size_t samples, const std::function<size_t()>& run) {
        Run best;
        best.samples = static_cast<double>(samples);
        for (int k = 0; k < kReps; ++k) {
            Stopwatch sw;
            soraSink += run();
            best.sec = std::min(best.sec, sw.elapsedSec());
        }
        return best;
    };
    w.beginArray("rx");
    for (Rate rate : allRates()) {
        std::vector<uint8_t> payloadBytes((psdu - 4), 0xA5);
        auto dataBits = assembleDataBits(payloadBytes, rate);
        auto samples = sora::txDataSamples(dataBits, rate);
        std::vector<uint8_t> in(samples.size() * 4);
        std::memcpy(in.data(), samples.data(), in.size());

        double perBackend[3] = {0, 0, 0};
        for (Backend b : {Backend::Vm, Backend::Fused, Backend::Native}) {
            auto p = compilePipeline(wifiRxDataComp(rate, psdu),
                                     withBackend(OptLevel::None, b));
            int slot = b == Backend::Fused ? 1
                       : b == Backend::Native ? 2 : 0;
            perBackend[slot] = zRun(*p, in).msps();
        }
        CompileReport rep;
        auto best = compilePipeline(
            wifiRxDataComp(rate, psdu),
            withBackend(OptLevel::All, Backend::Native), &rep);
        double ngAll = zRun(*best, in).msps();
        double ngNoLut =
            zRun(*compilePipeline(wifiRxDataComp(rate, psdu), nativeNoLut()),
                 in).msps();
        double soraMsps = soraRun(samples.size(), [&] {
                              return sora::rxDataBits(samples, rate,
                                                      psdu).size();
                          }).msps();
        printf("%-8s %8.2f %8.2f %8.2f %7.2fx %7.2fx %8.2f %8.2f %8.2f "
               "%7.2fx %5d\n",
               ("RX" + std::to_string(rateInfo(rate).mbps)).c_str(),
               perBackend[0], perBackend[1], perBackend[2],
               perBackend[1] / perBackend[0],
               perBackend[2] / perBackend[0], ngAll, ngNoLut, soraMsps,
               ngAll / soraMsps, rep.fuse.nodesFused);
        w.beginObject();
        w.field("mbps", rateInfo(rate).mbps);
        w.field("vm", perBackend[0] * 1e6);
        w.field("fused", perBackend[1] * 1e6);
        w.field("native", perBackend[2] * 1e6);
        w.field("native_all", ngAll * 1e6);
        w.field("native_all_nolut", ngNoLut * 1e6);
        w.field("sora", soraMsps * 1e6);
        w.field("native_all_over_sora", ngAll / soraMsps);
        w.field("regions", rep.fuse.nodesFused);
        w.endObject();
    }
    w.endArray();

    // The full receiver (sync, channel estimate, header, rate dispatch,
    // data path) against sora::rxFrame: one packet per rate, each
    // through the same channel, one receiver run per packet.
    {
        CompileReport rep;
        auto rx = compilePipeline(
            wifiReceiverComp(),
            withBackend(OptLevel::All, Backend::Native), &rep);
        // Over all rates: total samples / total time of each packet's
        // fastest run.
        Run z, r;
        z.sec = r.sec = 0;
        for (Rate rate : allRates()) {
            std::vector<uint8_t> payload(psdu - 4, 0x5A);
            channel::ChannelConfig cfg;
            cfg.snrDb = 30.0;
            cfg.delaySamples = 160;
            cfg.trailSamples = 100;
            cfg.seed = 40 + static_cast<uint64_t>(rate);
            auto frame =
                channel::applyChannel(sora::txFrame(payload, rate), cfg);
            std::vector<uint8_t> in(frame.size() * 4);
            std::memcpy(in.data(), frame.data(), in.size());
            Run zp = zRun(*rx, in);
            Run rp = soraRun(frame.size(), [&] {
                return sora::rxFrame(frame).psduBytes.size();
            });
            z.sec += zp.sec;
            z.samples += zp.samples;
            r.sec += rp.sec;
            r.samples += rp.samples;
        }
        double zMsps = z.msps();
        double sMsps = r.msps();
        printf("%-8s %44s %8.2f %8s %8.2f %7.2fx %5d\n", "RXfull",
               "(wifiReceiverComp, all rates)", zMsps, "", sMsps,
               zMsps / sMsps, rep.fuse.nodesFused);
        w.beginObject("rx_full");
        w.field("native_all", zMsps * 1e6);
        w.field("sora", sMsps * 1e6);
        w.field("native_all_over_sora", zMsps / sMsps);
        w.field("regions", rep.fuse.nodesFused);
        w.endObject();
    }
    printf("(r = fused regions of the ng/all build; %zu reference "
           "bits+bytes)\n", soraSink);

    // ---- (4) native compile cost: cold vs warm cache -----------------
    // A private cache directory gives a genuinely cold first compile;
    // the second compile of the same program must be a pure CRC-verified
    // hit that never invokes the C++ compiler.
    printf("\nNative backend compile cost (TX54 chain):\n");
    rule();
    w.beginObject("cgen_cache");
    if (zcgen::compilerAvailable()) {
        char tmpl[] = "/tmp/ziria-bench-cgen-XXXXXX";
        char* dir = mkdtemp(tmpl);
        CompilerOptions opt = withBackend(OptLevel::None, Backend::Native);
        opt.cgenCacheDir = dir ? dir : "";
        CompileReport cold;
        compilePipeline(txChain(Rate::R54), opt, &cold);
        CompileReport warm;
        compilePipeline(txChain(Rate::R54), opt, &warm);
        printf("cold cache: %.1f ms compile (%d region(s), %d bridge(s), "
               "%s)\nwarm cache: %.1f ms, %d hit(s), %d recompile(s)\n",
               cold.cgen.compileSec * 1e3, cold.cgen.regions,
               cold.cgen.hostBridges, cold.cgen.compiler.c_str(),
               warm.cgen.compileSec * 1e3, warm.cgen.cacheHits,
               warm.cgen.compiled);
        w.field("cold_compile_sec", cold.cgen.compileSec);
        w.field("warm_compile_sec", warm.cgen.compileSec);
        w.field("warm_cache_hits", warm.cgen.cacheHits);
        w.field("warm_recompiles", warm.cgen.compiled);
        w.field("compiler", cold.cgen.compiler);
    } else {
        printf("no C++ compiler found; skipped\n");
        w.field("cold_compile_sec", 0.0);
        w.field("warm_compile_sec", 0.0);
        w.field("warm_cache_hits", 0);
        w.field("warm_recompiles", 0);
        w.field("compiler", "");
    }
    w.endObject();

    // ---- (5) per-element boundary cost -------------------------------
    printf("\nPer-element boundary cost: identity program, MemSource -> "
           "VecSink, ns/element:\n");
    rule();
    printf("%-10s %10s %10s %10s\n", "type", "vm", "fused", "native");
    w.beginArray("identity");
    const size_t kIdElems = 1 << 18;
    for (const auto& [name, ty] :
         {std::make_pair("complex16", Type::complex16()),
          std::make_pair("bit", Type::bit())}) {
        double ns[3];
        int slot = 0;
        for (Backend b : {Backend::Vm, Backend::Fused, Backend::Native})
            ns[slot++] = identityNs(ty, b, kIdElems);
        printf("%-10s %10.1f %10.1f %10.1f\n", name, ns[0], ns[1], ns[2]);
        w.beginObject();
        w.field("type", name);
        w.field("vm_ns", ns[0]);
        w.field("fused_ns", ns[1]);
        w.field("native_ns", ns[2]);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    rule();
    printf("=> the fused backend's win concentrates where the VM pays "
           "per-element\n   trampoline cost: interior >>> at fine grain, "
           "and the stream between\n   native kernels, which now stays "
           "inside one region.  The native backend\n   removes the "
           "bytecode dispatch on top of that, paid for once per program\n"
           "   by the C++ compile (then amortized by the shared-object "
           "cache).\n");

    std::ofstream f("BENCH_fuse.json");
    f << w.str() << "\n";
    printf("wrote BENCH_fuse.json\n");
    return 0;
}
