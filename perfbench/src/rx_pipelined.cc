/**
 * @file
 * rx_pipelined: the Figure 6a `|>>>|` job.  The rate-locked RX data path
 * `wifiRxDataComp(rate, 1500, true)` runs as a two-stage
 * ThreadedPipeline (split at Viterbi) on the VM backend, the semantic
 * reference and the Figure 6 configuration; the same packets also run
 * single-threaded for the stream sheet's single-thread baseline.  This
 * is the only workload whose data crosses an SpscQueue; code generation
 * and serving are bypassed.
 */
#include <algorithm>
#include <cmath>

#include "oracle.h"
#include "sora/sora.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "workload.h"
#include "zexec/span.h"

namespace perfbench {
namespace {

using wifi::Rate;

constexpr int kPsdu = 1500;
/** Packets per rate in one cycle, plus one more at 6 Mbit/s: with an
 *  odd total the latency median never sits on the boundary between two
 *  rates' decode times. */
constexpr int kPerRate = 4;
constexpr int kSetupReps = 9;

struct Packet
{
    Rate rate;
    std::vector<uint8_t> dataBits;    ///< the oracle: DATA-field bits
    std::vector<Complex16> samples;   ///< symbol-aligned DATA symbols
};

std::vector<Packet>
generate(uint64_t seed, Digest& digest)
{
    Rng rng(seed);
    std::vector<Rate> plan;
    for (Rate r : wifi::allRates())
        plan.insert(plan.end(), kPerRate, r);
    plan.push_back(Rate::R6);
    for (size_t i = plan.size(); i > 1; --i)
        std::swap(plan[i - 1], plan[rng.below(i)]);

    std::vector<Packet> out;
    for (Rate rate : plan) {
        std::vector<uint8_t> payload(kPsdu - 4);
        for (auto& b : payload)
            b = static_cast<uint8_t>(rng.next());
        Packet p;
        p.rate = rate;
        p.dataBits = wifi::assembleDataBits(payload, rate);
        p.samples = sora::txDataSamples(p.dataBits, rate);
        digest.add(static_cast<uint64_t>(rate));
        digest.add(p.dataBits.data(), p.dataBits.size());
        digest.add(p.samples.data(), p.samples.size() * sizeof(Complex16));
        out.push_back(std::move(p));
    }
    return out;
}

struct Programs
{
    std::vector<std::unique_ptr<ThreadedPipeline>> threaded;  ///< by Rate
    std::vector<std::unique_ptr<Pipeline>> single;
};

Programs
compileAll(CompileLog& log, const CompilerOptions& opt)
{
    Programs p;
    for (Rate r : wifi::allRates()) {
        CompPtr comp = wifi::wifiRxDataComp(r, kPsdu, true);
        p.threaded.push_back(log.threaded(comp, opt));
        p.single.push_back(log.pipeline(comp, opt));
    }
    return p;
}

/** Per-stage and queue telemetry summed over one pass. */
struct StageSums
{
    double busySec[2] = {};
    double elems[2] = {};
    double highWater = 0, producerStalls = 0, consumerStalls = 0;
    double pushWaitMs = 0, popWaitMs = 0, overheadMs = 0;
};

struct Pass
{
    uint64_t cycles = 0;
    uint64_t packets = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string firstFailure;
    double tracedSec = 0, untracedSec = 0;  ///< cycle walls by mode
    double thrSec = 0, thrSamples = 0, thrBits = 0;
    double stSec = 0, stSamples = 0;
    double soraSec = 0, soraSamples = 0;
    std::vector<double> thrUs;
    std::vector<double> thrRel;    ///< 2-thread time / the cycle's unit
    std::vector<std::vector<double>> pktRel;  ///< thrRel by distinct packet
    std::vector<double> cycleRel;  ///< packets per calibration chunk
    std::vector<uint64_t> shortBits;  ///< per distinct packet
    StageSums stages;
    std::vector<uint8_t> lastBits;  ///< 2-thread output of the last packet
};

/** Fold one threaded run's stage telemetry into @p ss. */
void
addStages(StageSums& ss, const std::vector<StageMetrics>& sm, double wall)
{
    double slowest = 0;
    for (size_t i = 0; i < sm.size() && i < 2; ++i) {
        double waitNs = static_cast<double>(sm[i].pushWaitNs +
                                            sm[i].popWaitNs);
        double busy = sm[i].sec - waitNs * 1e-9;
        ss.busySec[i] += busy;
        ss.elems[i] += static_cast<double>(sm[i].consumed);
        ss.pushWaitMs += static_cast<double>(sm[i].pushWaitNs) * 1e-6;
        ss.popWaitMs += static_cast<double>(sm[i].popWaitNs) * 1e-6;
        slowest = std::max(slowest, busy);
        if (sm[i].hasQueue) {
            ss.highWater = std::max(
                ss.highWater, static_cast<double>(sm[i].queueHighWater));
            ss.producerStalls += static_cast<double>(sm[i].producerStalls);
            ss.consumerStalls += static_cast<double>(sm[i].consumerStalls);
        }
    }
    ss.overheadMs += (wall - slowest) * 1e3;
}

/**
 * Packet @p idx through the 2-thread and the 1-thread pipeline, then,
 * with @p control, through the hand-written Sora decoder (the
 * sora.rx_msps control); checks both outputs and accounts everything in
 * @p ps.  @p pm, when set, is the threaded pipeline's telemetry sink.
 * Returns the 2-thread seconds.
 */
double
runPacket(Programs& prog, const std::vector<Packet>& pkts, size_t idx,
          bool control, Pass& ps, const PipelineMetrics* pm)
{
    const Packet& p = pkts[idx];
    const size_t ri = static_cast<size_t>(p.rate);
    ThreadedPipeline& thr = *prog.threaded[ri];
    Pipeline& st = *prog.single[ri];
    const auto* in = reinterpret_cast<const uint8_t*>(p.samples.data());
    const size_t inBytes = p.samples.size() * sizeof(Complex16);

    MemSource src2(in, inBytes, thr.inWidth());
    VecSink sink2(thr.outWidth());
    Stopwatch sw;
    RunStats rs2;
    {
        Span s("zexec.threaded_run");
        rs2 = thr.run(src2, sink2);
    }
    double t2 = sw.elapsedSec();

    MemSource src1(in, inBytes, st.inWidth());
    VecSink sink1(st.outWidth());
    sw.reset();
    RunStats rs1;
    {
        Span s("zexec.pipeline_run");
        rs1 = st.run(src1, sink1);
    }
    double t1 = sw.elapsedSec();

    if (control) {
        Span s("bench.control");
        sw.reset();
        sora::rxDataBits(p.samples, p.rate, kPsdu);
        ps.soraSec += sw.elapsedSec();
        ps.soraSamples += static_cast<double>(p.samples.size());
    }

    uint64_t short2 = 0, short1 = 0;
    std::string why;
    {
        Span s("bench.oracle");
        why = checkRxData(sink2.data(), p.dataBits, &short2);
        if (why.empty())
            why = checkRxData(sink1.data(), p.dataBits, &short1);
    }
    ++ps.packets;
    ps.attempted += 2;
    if (!why.empty() && ps.failed++ == 0)
        ps.firstFailure = why;
    ps.shortBits[idx] = short2;

    ps.thrSec += t2;
    ps.thrSamples += static_cast<double>(rs2.consumed * thr.inWidth()) /
                     sizeof(Complex16);
    ps.thrBits += static_cast<double>(sink2.data().size());
    ps.stSec += t1;
    ps.stSamples += static_cast<double>(rs1.consumed * st.inWidth()) /
                    sizeof(Complex16);
    ps.thrUs.push_back(t2 * 1e6);
    if (pm)
        addStages(ps.stages, pm->stages, t2);
    ps.lastBits = sink2.data();
    return t2;
}

/**
 * Run whole cycles over the packet set until @p seconds elapse (when
 * @p cycles is 0) or exactly @p cycles ran, one calibration chunk and one
 * memory walk after each packet, tracing every second cycle with
 * @p trace_odd; see phy_link.cc.  A cycle's time unit is the geometric
 * mean of its median chunk and its median walk.  With @p telemetry the
 * threaded pipelines record stage and queue telemetry.
 */
Pass
runPass(Programs& prog, const std::vector<Packet>& pkts, Calibration& calib,
        MemoryWalk& walk, double seconds, uint64_t cycles, bool trace_odd,
        bool telemetry)
{
    Pass ps;
    ps.shortBits.assign(pkts.size(), 0);
    ps.pktRel.resize(pkts.size());
    std::vector<std::shared_ptr<PipelineMetrics>> pm(prog.threaded.size());
    if (telemetry) {
        // Queue waits are timed only when a span tracker is attached.
        SpanConfig sc;
        sc.frameElems = uint64_t{1} << 40;
        for (size_t i = 0; i < pm.size(); ++i) {
            pm[i] = std::make_shared<PipelineMetrics>();
            prog.threaded[i]->setMetrics(pm[i]);
            prog.threaded[i]->setSpans(std::make_shared<SpanTracker>(sc));
        }
    }

    Stopwatch wall;
    std::vector<double> chunks, walks;
    while ((trace_odd && ps.cycles % 2 == 1) ||
           (cycles ? ps.cycles < cycles : wall.elapsedSec() < seconds)) {
        const bool traced = trace_odd && ps.cycles % 2 == 1;
        Tracer::get().setEnabled(traced);
        Stopwatch cycleWall;
        const size_t first = ps.thrUs.size();
        double ziria = 0;
        chunks.clear();
        walks.clear();
        {
            Span root("bench.harness");
            for (size_t i = 0; i < pkts.size(); ++i) {
                ziria += runPacket(
                    prog, pkts, i, trace_odd, ps,
                    pm[static_cast<size_t>(pkts[i].rate)].get());
                chunks.push_back(calib.chunk());
                walks.push_back(walk.walk());
            }
        }
        Tracer::get().setEnabled(false);
        (traced ? ps.tracedSec : ps.untracedSec) += cycleWall.elapsedSec();
        const double unit = std::sqrt(median(chunks) * median(walks));
        ps.cycleRel.push_back(static_cast<double>(pkts.size()) * unit /
                              ziria);
        for (size_t i = first; i < ps.thrUs.size(); ++i) {
            ps.thrRel.push_back(ps.thrUs[i] * 1e-6 / unit);
            ps.pktRel[i - first].push_back(ps.thrRel.back());
        }
        ++ps.cycles;
    }

    if (telemetry)
        for (auto& t : prog.threaded) {
            t->setMetrics(nullptr);
            t->setSpans(nullptr);
        }
    return ps;
}

} // namespace

Result
runRxPipelined(const Args& a)
{
    Result r;
    Digest digest;
    std::vector<Packet> pkts = generate(a.seed, digest);

    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    opt.backend = Backend::Vm;
    Calibration calib;
    MemoryWalk walk;
    CompileLog log;
    SetupTime setup;
    Programs prog = medianSetup(kSetupReps, calib, &setup, [&] {
        log.beginSet();
        return compileAll(log, opt);
    });
    r.e2e["setup_s"] = setup.sec;
    runPass(prog, pkts, calib, walk, 0, 1, false, false);  // warm-up

    Pass ps;
    if (!a.trace) {
        ps = runPass(prog, pkts, calib, walk, a.seconds, 0, false, false);
    } else {
        ps = runPass(prog, pkts, calib, walk, a.seconds, 0, true, false);
        traceAccounting(r, ps.untracedSec, ps.tracedSec,
                        {"zexec.threaded_run", "zexec.pipeline_run"});
        auto totals = Tracer::get().totals();
        r.layer["zexec.threaded_run_s"] = totals["zexec.threaded_run"].durSec;
        r.layer["zexec.pipeline_run_s"] = totals["zexec.pipeline_run"].durSec;

        // Stage and queue telemetry come from one more cycle over the
        // distinct packets: timing every queue wait clocks each element
        // crossing the queue, which would swamp the traced pass.
        Pass telemetry = runPass(prog, pkts, calib, walk, 0, 1, false, true);
        r.attempted += telemetry.attempted;
        r.failed += telemetry.failed;
        const StageSums& ss = telemetry.stages;
        for (int i = 0; i < 2; ++i) {
            std::string st = "zexec.stage" + std::to_string(i);
            r.layer[st + ".busy_s"] = ss.busySec[i];
            r.layer[st + ".elems"] = ss.elems[i];
        }
        r.layer["zexec.queue.high_water"] = ss.highWater;
        r.layer["zexec.queue.producer_stalls"] = ss.producerStalls;
        r.layer["zexec.queue.consumer_stalls"] = ss.consumerStalls;
        r.layer["zexec.queue.push_wait_ms"] = ss.pushWaitMs;
        r.layer["zexec.queue.pop_wait_ms"] = ss.popWaitMs;
        r.layer["zexec.run_overhead_ms"] = ss.overheadMs;
    }

    r.attempted += ps.attempted;
    r.failed += ps.failed;
    // Negative self-check on the last real output (the last packet of a
    // whole cycle): one flipped bit must make the oracle fire.
    uint64_t ignored = 0;
    r.selfCheckFired = !checkRxData(flipped(ps.lastBits,
                                            ps.lastBits.size() / 2),
                                    pkts.back().dataBits, &ignored)
                            .empty();
    log.fill(r);

    double tailShort = 0;
    for (uint64_t s : ps.shortBits)
        tailShort += static_cast<double>(s);
    double rx2 = ps.thrSamples / ps.thrSec / 1e6;
    double rx1 = ps.stSamples / ps.stSec / 1e6;
    double goodput = ps.thrBits / ps.thrSec / 1e6;
    Quantile p99 = tail(ps.thrUs);
    double p50 = median(ps.thrUs);
    double failRatio = ps.attempted ? static_cast<double>(ps.failed) /
                                          static_cast<double>(ps.attempted)
                                    : 1;
    // One packet's 2-thread decode swings up to 2x between cycles on a
    // shared host (stage wake-ups), so quantiles of all decodes measured
    // the host.  Here they are taken over the distinct packets, each at
    // its median over cycles: p50 is the middle packet's, and p99, with
    // 33 packets, the slowest one's.
    std::vector<double> pktMedian;
    for (const auto& v : ps.pktRel)
        pktMedian.push_back(median(v));
    r.e2e["throughput_rel"] = median(ps.cycleRel);
    r.e2e["latency_p50_rel"] = median(pktMedian);
    r.e2e["latency_p99_rel"] =
        *std::max_element(pktMedian.begin(), pktMedian.end());
    r.layer["calib.chunk_us"] = median(calib.history()) * 1e6;
    r.layer["calib.walk_us"] = median(walk.history()) * 1e6;
    if (a.trace)
        r.layer["sora.rx_msps"] = ps.soraSamples / ps.soraSec / 1e6;
    r.layer["e2e.goodput_mbps"] = goodput;
    r.layer["e2e.rx_msps"] = rx2;
    r.layer["e2e.rx_msps_1thread"] = rx1;
    r.layer["e2e.packet_us_p50"] = p50;
    r.layer["e2e.packet_us_p99"] = p99.value;
    r.layer["e2e.fail_ratio"] = failRatio;
    r.layer["wifi.rx_data.tail_bits_short"] = tailShort;

    r.nameValue("setup_s", setup.wallSec, "s",
                "16 programs (8 threaded + 8 single), median of " +
                    std::to_string(kSetupReps));
    r.nameValue("rx_msps", rx2, "Msps", "2 threads (|>>>| at Viterbi)");
    r.nameValue("rx_msps_1thread", rx1, "Msps", "same packets, 1 thread");
    r.nameValue("packet_us_p50", p50, "us", "2-thread decode per packet");
    r.nameValue("packet_us_p99", p99.value, "us",
                "quantile " + std::to_string(p99.q) + " of " +
                    std::to_string(p99.n));
    r.nameValue("fail_ratio", failRatio, "ratio", "failed / decodes");
    r.nameValue("goodput_mbps", goodput, "Mbit/s",
                "DATA bits out / 2-thread time");
    r.nameValue("calib.chunk_us", r.layer["calib.chunk_us"], "us",
                "calibration kernel, median chunk");
    r.nameValue("calib.walk_us", r.layer["calib.walk_us"], "us",
                "memory walk, median");
    if (a.trace)
        r.nameValue("sora.rx_msps", r.layer["sora.rx_msps"], "Msps",
                    "hand-written Sora data-path decoder, same packets");
    r.nameValue("wifi.rx_data.tail_bits_short", tailShort, "count",
                "DATA-field bits never emitted, summed over the distinct "
                "packets (recorded, not failed)");

    r.envelope["backend"] = "vm";
    r.envelope["opt"] = "all";
    r.envelope["programs"] =
        "wifiRxDataComp(rate, 1500, true) x8, threaded and single";
    r.envelope["input_digest"] = digest.hex();
    r.envelope["distinct_packets"] = std::to_string(pkts.size());
    if (!ps.firstFailure.empty())
        r.envelope["first_failure"] = ps.firstFailure;
    return r;
}

} // namespace perfbench
