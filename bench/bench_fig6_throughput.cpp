/**
 * @file
 * Figure 6: WiFi receiver and transmitter throughput at every data rate —
 * Ziria-compiled pipelines with 1 and 2 threads against the hand-written
 * Sora-style baseline and the 802.11 line-rate requirement (40 Msps input
 * at the receiver; the data rate itself at the transmitter).
 *
 * Absolute numbers are far below the paper's (closure-tree VM vs compiled
 * SIMD C); the comparisons that carry over are Ziria-vs-baseline ratios
 * and the rate-to-rate shape.  The 2-thread rows split each pipeline at
 * one `|>>>|`; the two stages run on their own threads (unpinned; the
 * paper pinned physical cores) and hand each other batches of elements
 * over a bounded SPSC queue, so they gain where both halves carry
 * comparable work and there is a free core for each.
 */
#include "bench_util.h"

#include "sora/sora.h"

using namespace ziria;
using namespace ziria::wifi;
using namespace zbench;

namespace {

double
ziriaRxSamplesPerSec(Rate rate, int psdu, bool threaded,
                     const std::vector<uint8_t>& in)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    double sec = 0;
    uint64_t samples = 0;
    const int reps = 3;
    if (!threaded) {
        auto p = compilePipeline(wifiRxDataComp(rate, psdu, false), opt);
        for (int k = 0; k < reps; ++k) {
            MemSource src(in, p->inWidth());
            NullSink sink;
            Stopwatch sw;
            RunStats st = p->run(src, sink);
            sec += sw.elapsedSec();
            samples += st.consumed * p->inWidth() / 4;
        }
    } else {
        auto p = compileThreadedPipeline(
            wifiRxDataComp(rate, psdu, true), opt);
        for (int k = 0; k < reps; ++k) {
            MemSource src(in, p->inWidth());
            NullSink sink;
            Stopwatch sw;
            RunStats st = p->run(src, sink);
            sec += sw.elapsedSec();
            samples += st.consumed * p->inWidth() / 4;
        }
    }
    return static_cast<double>(samples) / sec;
}

double
ziriaTxBitsPerSec(Rate rate, bool threaded, const std::vector<uint8_t>& in,
                  uint64_t total_bits)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    if (!threaded) {
        auto p = compilePipeline(wifiTxDataComp(rate, false), opt);
        uint64_t chunks = total_bits / std::max<size_t>(p->inWidth(), 1);
        CyclicSource src(in, p->inWidth(), chunks);
        NullSink sink;
        Stopwatch sw;
        RunStats st = p->run(src, sink);
        double sec = sw.elapsedSec();
        return static_cast<double>(st.consumed * p->inWidth()) / sec;
    }
    auto p = compileThreadedPipeline(wifiTxDataComp(rate, true), opt);
    uint64_t chunks = total_bits / std::max<size_t>(p->inWidth(), 1);
    CyclicSource src(in, p->inWidth(), chunks);
    NullSink sink;
    Stopwatch sw;
    RunStats st = p->run(src, sink);
    double sec = sw.elapsedSec();
    return static_cast<double>(st.consumed * p->inWidth()) / sec;
}

} // namespace

int
main()
{
    const int psdu = 1000;
    std::vector<uint8_t> payload(psdu - 4, 0x5A);

    printf("Figure 6a: receiver throughput (M samples/s)\n");
    rule();
    printf("%-10s %10s %12s %12s %12s %10s\n", "rate", "spec",
           "ziria 1thr", "ziria 2thr", "baseline", "zir/base");
    for (Rate rate : allRates()) {
        auto dataBits = assembleDataBits(payload, rate);
        auto samples = sora::txDataSamples(dataBits, rate);
        std::vector<uint8_t> in(samples.size() * 4);
        std::memcpy(in.data(), samples.data(), in.size());

        double z1 = ziriaRxSamplesPerSec(rate, psdu, false, in);
        double z2 = ziriaRxSamplesPerSec(rate, psdu, true, in);

        // Baseline: the hand-written decoder over the same packet.
        double sec = 0;
        uint64_t got = 0;
        const int reps = 5;
        for (int k = 0; k < reps; ++k) {
            Stopwatch sw;
            auto bits = sora::rxDataBits(samples, rate, psdu);
            sec += sw.elapsedSec();
            got += samples.size();
            (void)bits;
        }
        double base = static_cast<double>(got) / sec;

        printf("%-10s %10.1f %12.3f %12.3f %12.3f %9.2fx\n",
               ("RX" + std::to_string(rateInfo(rate).mbps) + "Mbps")
                   .c_str(),
               40.0, z1 / 1e6, z2 / 1e6, base / 1e6, z1 / base);
    }
    printf("=> paper: Ziria meets the 40 Msps spec at every rate, within "
           "15%% of Sora\n   and faster in the most demanding cases "
           "(RX54 2-thread: +60%%).\n\n");

    printf("Figure 6b: transmitter throughput (M bits/s)\n");
    rule();
    printf("%-10s %10s %12s %12s %12s %10s\n", "rate", "spec",
           "ziria 1thr", "ziria 2thr", "baseline", "zir/base");
    for (Rate rate : allRates()) {
        const RateInfo& ri = rateInfo(rate);
        uint64_t totalBits = static_cast<uint64_t>(ri.ndbps) * 400;
        auto in = randomBits(static_cast<size_t>(ri.ndbps) * 64, 23);

        double z1 = ziriaTxBitsPerSec(rate, false, in, totalBits);
        double z2 = ziriaTxBitsPerSec(rate, true, in, totalBits);

        auto dataBits = assembleDataBits(payload, rate);
        double sec = 0;
        uint64_t bits = 0;
        const int reps = 5;
        for (int k = 0; k < reps; ++k) {
            Stopwatch sw;
            auto out = sora::txDataSamples(dataBits, rate);
            sec += sw.elapsedSec();
            bits += dataBits.size();
            (void)out;
        }
        double base = static_cast<double>(bits) / sec;

        printf("%-10s %10d %12.3f %12.3f %12.3f %9.2fx\n",
               ("TX" + std::to_string(ri.mbps) + "Mbps").c_str(),
               ri.mbps, z1 / 1e6, z2 / 1e6, base / 1e6, z1 / base);
    }
    printf("=> paper: Ziria meets the TX data-rate requirement and beats "
           "Sora at most\n   rates except 48/54 Mbps (nonaligned 64QAM "
           "bit packing).\n");
    return 0;
}
