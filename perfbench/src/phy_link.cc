/**
 * @file
 * phy_link: the paper's end-to-end 802.11a/g PHY on the native backend.
 *
 * Each packet is TX-encoded by `wifiTxDataComp(rate)` and decoded by the
 * full receiver `wifiReceiverComp()`, one packet at a time on one thread
 * (closed loop: the receiver runs near 2 Msps, far below the 20 Msps
 * line rate, so an open loop would only grow a backlog).  Time goes to
 * generated code, the DSP kernels and the receiver's control path;
 * threads and serving are bypassed.
 */
#include <unistd.h>

#include <utility>

#include "channel/channel.h"
#include "oracle.h"
#include "sora/sora.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "workload.h"

namespace perfbench {
namespace {

using wifi::Rate;

/** Size strata per rate.  Payload sizes cover 100-1500 B uniformly:
 *  one packet per stratum, at the stratum's centre give or take 4 B, so
 *  every seed runs the same size spread (the latency tail is the
 *  largest 6 Mbit/s packet and must not move with the seed). */
constexpr int kStrata = 12;
constexpr int kSetupReps = 5;

struct Packet
{
    Rate rate;
    std::vector<uint8_t> payload;
    std::vector<uint8_t> dataBits;     ///< TX input (DATA field)
    std::vector<Complex16> txRef;      ///< TX oracle (Sora-style TX)
    std::vector<Complex16> air;        ///< framed, through the channel
};

std::vector<Packet>
generate(uint64_t seed, Digest& digest)
{
    Rng rng(seed);
    std::vector<std::pair<Rate, int>> plan;
    for (Rate r : wifi::allRates())
        for (int k = 0; k < kStrata; ++k)
            plan.emplace_back(
                r, 100 + (2 * k + 1) * 1400 / (2 * kStrata) - 4 +
                       static_cast<int>(rng.below(9)));
    for (size_t i = plan.size(); i > 1; --i)
        std::swap(plan[i - 1], plan[rng.below(i)]);

    std::vector<Packet> out;
    for (auto [rate, len] : plan) {
        Packet p;
        p.rate = rate;
        p.payload.resize(static_cast<size_t>(len));
        for (auto& b : p.payload)
            b = static_cast<uint8_t>(rng.next());
        p.dataBits = wifi::assembleDataBits(p.payload, rate);
        p.txRef = sora::txDataSamples(p.dataBits, rate);
        channel::ChannelConfig cc;
        cc.snrDb = 30.0;
        cc.delaySamples = 120 + static_cast<int>(rng.below(81));
        cc.seed = rng.next();
        p.air = channel::applyChannel(sora::txFrame(p.payload, rate), cc);

        digest.add(static_cast<uint64_t>(rate));
        digest.add(p.payload.data(), p.payload.size());
        digest.add(p.dataBits.data(), p.dataBits.size());
        digest.add(p.air.data(), p.air.size() * sizeof(Complex16));
        out.push_back(std::move(p));
    }
    return out;
}

struct Programs
{
    std::vector<std::unique_ptr<Pipeline>> tx;  ///< indexed by Rate
    std::unique_ptr<Pipeline> rx;
};

Programs
compileAll(CompileLog& log, const CompilerOptions& opt)
{
    Programs p;
    for (Rate r : wifi::allRates())
        p.tx.push_back(log.pipeline(wifi::wifiTxDataComp(r), opt));
    p.rx = log.pipeline(wifi::wifiReceiverComp(), opt);
    return p;
}

struct Pass
{
    uint64_t cycles = 0;
    uint64_t packets = 0;
    uint64_t failed = 0;
    std::string firstFailure;
    double tracedSec = 0, untracedSec = 0;  ///< cycle walls by mode
    double txSec = 0, rxSec = 0;
    double txBits = 0, rxSamples = 0;
    double txSecBy[wifi::numRates] = {}, txBitsBy[wifi::numRates] = {};
    double rxSecBy[wifi::numRates] = {}, rxSampBy[wifi::numRates] = {};
    double soraTxSec = 0, soraRxSec = 0, soraTxBits = 0, soraRxSamples = 0;
    double payloadBits = 0;
    std::vector<double> rxUs;
    std::vector<double> rxRel;     ///< RX decode time / calibration chunk
    std::vector<double> cycleRel;  ///< packets per calibration chunk
    bool selfCheckFired = false;
};

/** The last packet's outputs, for the negative self-check. */
struct Last
{
    std::vector<uint8_t> txOut, rxOut;
    RunStats rxSt;
};

/**
 * One packet through the Ziria TX and RX pipelines, then, with
 * @p control, through the hand-written Sora transceiver (the sora.*
 * controls); checks the outputs and accounts everything in @p ps.
 * Returns the Ziria seconds.
 */
double
runPacket(Programs& prog, const Packet& p, bool control, Pass& ps,
          Last& last)
{
    const int ri = static_cast<int>(p.rate);
    Pipeline& tx = *prog.tx[static_cast<size_t>(ri)];
    Pipeline& rx = *prog.rx;

    MemSource txSrc(p.dataBits, tx.inWidth());
    VecSink txSink(tx.outWidth());
    Stopwatch sw;
    RunStats txSt;
    {
        Span s("zexec.tx_run");
        txSt = tx.run(txSrc, txSink);
    }
    double txT = sw.elapsedSec();

    MemSource rxSrc(reinterpret_cast<const uint8_t*>(p.air.data()),
                    p.air.size() * sizeof(Complex16), rx.inWidth());
    VecSink rxSink(rx.outWidth());
    sw.reset();
    RunStats rxSt;
    {
        Span s("zexec.rx_run");
        rxSt = rx.run(rxSrc, rxSink);
    }
    double rxT = sw.elapsedSec();

    if (control) {
        Span s("bench.control");
        sw.reset();
        sora::txDataSamples(p.dataBits, p.rate);
        ps.soraTxSec += sw.elapsedSec();
        sw.reset();
        sora::rxFrame(p.air);
        ps.soraRxSec += sw.elapsedSec();
        ps.soraTxBits += static_cast<double>(p.dataBits.size());
        ps.soraRxSamples += static_cast<double>(p.air.size());
    }

    std::string why;
    {
        Span s("bench.oracle");
        why = checkTx(txSink.data(), p.txRef, tx.outWidth());
        if (why.empty())
            why = checkRxFrame(rxSink.data(), rxSt.halted, rxSt.ctrl,
                               p.payload);
    }
    ++ps.packets;
    if (!why.empty() && ps.failed++ == 0)
        ps.firstFailure = why;

    double bits = static_cast<double>(txSt.consumed * tx.inWidth());
    double samples = static_cast<double>(rxSt.consumed * rx.inWidth()) /
                     sizeof(Complex16);
    ps.txSec += txT;
    ps.rxSec += rxT;
    ps.txBits += bits;
    ps.rxSamples += samples;
    ps.txSecBy[ri] += txT;
    ps.txBitsBy[ri] += bits;
    ps.rxSecBy[ri] += rxT;
    ps.rxSampBy[ri] += samples;
    ps.payloadBits += static_cast<double>(p.payload.size() * 8);
    ps.rxUs.push_back(rxT * 1e6);
    last = {txSink.data(), rxSink.data(), rxSt};
    return txT + rxT;
}

/**
 * Run whole cycles over the packet set until @p seconds elapse (when
 * @p cycles is 0) or exactly @p cycles ran.  One calibration chunk
 * follows each packet; a cycle's throughput and its packets' latencies
 * are taken against the median chunk of that cycle, so both see one
 * host speed, and the median over cycles shrugs off bursts of outside
 * interference.  With @p trace_odd every second cycle is traced (an
 * even number run), so traced and untraced cycles see the same host,
 * and every packet also runs the Sora control.
 */
Pass
runPass(Programs& prog, const std::vector<Packet>& pkts, Calibration& calib,
        double seconds, uint64_t cycles, bool trace_odd)
{
    Pass ps;
    Last last;
    Stopwatch wall;
    std::vector<double> chunks;
    while ((trace_odd && ps.cycles % 2 == 1) ||
           (cycles ? ps.cycles < cycles : wall.elapsedSec() < seconds)) {
        const bool traced = trace_odd && ps.cycles % 2 == 1;
        Tracer::get().setEnabled(traced);
        Stopwatch cycleWall;
        const size_t first = ps.rxUs.size();
        double ziria = 0;
        chunks.clear();
        {
            Span root("bench.harness");
            for (const Packet& p : pkts) {
                ziria += runPacket(prog, p, trace_odd, ps, last);
                chunks.push_back(calib.chunk());
            }
        }
        Tracer::get().setEnabled(false);
        (traced ? ps.tracedSec : ps.untracedSec) += cycleWall.elapsedSec();
        const double unit = median(chunks);
        ps.cycleRel.push_back(static_cast<double>(pkts.size()) * unit /
                              ziria);
        for (size_t i = first; i < ps.rxUs.size(); ++i)
            ps.rxRel.push_back(ps.rxUs[i] * 1e-6 / unit);
        ++ps.cycles;
    }

    // Negative self-check on the last real outputs: one flipped byte
    // must make each oracle fire.
    const Packet& p = pkts.back();
    Pipeline& tx = *prog.tx[static_cast<size_t>(p.rate)];
    ps.selfCheckFired =
        !checkTx(flipped(last.txOut, last.txOut.size() / 2), p.txRef,
                 tx.outWidth())
             .empty() &&
        !checkRxFrame(flipped(last.rxOut, last.rxOut.size() / 3),
                      last.rxSt.halted, last.rxSt.ctrl, p.payload)
             .empty();
    return ps;
}

const std::vector<std::string> kRxCounters = {
    "wifi.rx.crc_ok",        "wifi.rx.crc_fail", "wifi.rx.header_drops",
    "wifi.rx.sync_failures", "wifi.rx.resyncs",
};

} // namespace

Result
runPhyLink(const Args& a)
{
    Result r;
    Digest digest;
    std::vector<Packet> pkts = generate(a.seed, digest);

    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    opt.backend = Backend::Native;
    opt.cgenCacheDir = workPath(a, "cgen-cache");

    // Prime the private native cache, so set-up measures a warm start.
    {
        CompileLog prime;
        compileAll(prime, opt);
    }
    Calibration calib;
    CompileLog log;
    SetupTime setup;
    Programs prog = medianSetup(kSetupReps, calib, &setup, [&] {
        log.beginSet();
        return compileAll(log, opt);
    });
    r.e2e["setup_s"] = setup.sec;
    runPass(prog, pkts, calib, 0, 1, false);  // warm-up

    Pass ps;
    if (!a.trace) {
        ps = runPass(prog, pkts, calib, a.seconds, 0, false);
    } else {
        // Cold native compile of the same programs against an empty
        // cache directory, removed again afterwards.
        std::string cold =
            workPath(a, "cgen-cold-" + std::to_string(::getpid()));
        CompilerOptions coldOpt = opt;
        coldOpt.cgenCacheDir = cold;
        CompileLog coldLog;
        Stopwatch sw;
        compileAll(coldLog, coldOpt);
        r.layer["zcgen.cold_compile_s"] = sw.elapsedSec();
        removeTree(cold);

        CounterDelta rxCounters(kRxCounters);
        ps = runPass(prog, pkts, calib, a.seconds, 0, true);
        std::vector<double> d = rxCounters.delta();
        for (size_t i = 0; i < kRxCounters.size(); ++i)
            r.layer[kRxCounters[i]] = d[i];
        traceAccounting(r, ps.untracedSec, ps.tracedSec,
                        {"zexec.tx_run", "zexec.rx_run"});
        auto totals = Tracer::get().totals();
        r.layer["zexec.tx_run_s"] = totals["zexec.tx_run"].durSec;
        r.layer["zexec.rx_run_s"] = totals["zexec.rx_run"].durSec;
        for (Rate rt : wifi::allRates()) {
            int i = static_cast<int>(rt);
            r.layer["tx." + rateKey(rt) + ".mbps"] =
                ps.txBitsBy[i] / ps.txSecBy[i] / 1e6;
            r.layer["rx." + rateKey(rt) + ".msps"] =
                ps.rxSampBy[i] / ps.rxSecBy[i] / 1e6;
        }
    }

    r.attempted += ps.packets;
    r.failed += ps.failed;
    r.selfCheckFired = ps.selfCheckFired;
    log.fill(r);

    double txMbps = ps.txBits / ps.txSec / 1e6;
    double rxMsps = ps.rxSamples / ps.rxSec / 1e6;
    double goodput = ps.payloadBits / (ps.txSec + ps.rxSec) / 1e6;
    Quantile p99 = tail(ps.rxUs);
    double p50 = median(ps.rxUs);
    double failRatio = ps.packets ? static_cast<double>(ps.failed) /
                                        static_cast<double>(ps.packets)
                                  : 1;
    r.e2e["throughput_rel"] = median(ps.cycleRel);
    r.e2e["latency_p50_rel"] = median(ps.rxRel);
    r.e2e["latency_p99_rel"] = tail(ps.rxRel).value;
    r.layer["calib.chunk_us"] = median(calib.history()) * 1e6;
    if (a.trace) {
        r.layer["sora.tx_mbps"] = ps.soraTxBits / ps.soraTxSec / 1e6;
        r.layer["sora.rx_msps"] = ps.soraRxSamples / ps.soraRxSec / 1e6;
    }
    r.layer["e2e.goodput_mbps"] = goodput;
    r.layer["e2e.tx_mbps"] = txMbps;
    r.layer["e2e.rx_msps"] = rxMsps;
    r.layer["e2e.packet_us_p50"] = p50;
    r.layer["e2e.packet_us_p99"] = p99.value;
    r.layer["e2e.fail_ratio"] = failRatio;

    r.nameValue("setup_s", setup.wallSec, "s",
                "9 programs, warm private native cache, median of " +
                    std::to_string(kSetupReps));
    r.nameValue("tx_mbps", txMbps, "Mbit/s", "DATA bits into TX / TX time");
    r.nameValue("rx_msps", rxMsps, "Msps", "full receiver, 1 thread");
    r.nameValue("packet_us_p50", p50, "us", "RX decode per packet");
    r.nameValue("packet_us_p99", p99.value, "us",
                "quantile " + std::to_string(p99.q) + " of " +
                    std::to_string(p99.n));
    r.nameValue("fail_ratio", failRatio, "ratio", "failed / packets");
    r.nameValue("goodput_mbps", goodput, "Mbit/s",
                "payload bits / (TX + RX time)");
    r.nameValue("calib.chunk_us", r.layer["calib.chunk_us"], "us",
                "calibration kernel, median chunk");
    if (a.trace) {
        r.nameValue("sora.tx_mbps", r.layer["sora.tx_mbps"], "Mbit/s",
                    "hand-written Sora TX, same packets");
        r.nameValue("sora.rx_msps", r.layer["sora.rx_msps"], "Msps",
                    "hand-written Sora RX, same packets");
    }

    r.envelope["backend"] = "native";
    r.envelope["opt"] = "all";
    r.envelope["programs"] = "wifiTxDataComp(rate) x8, wifiReceiverComp()";
    r.envelope["input_digest"] = digest.hex();
    r.envelope["distinct_packets"] = std::to_string(pkts.size());
    r.envelope["compiler"] = log.compiler();
    if (!ps.firstFailure.empty())
        r.envelope["first_failure"] = ps.firstFailure;
    return r;
}

} // namespace perfbench
