#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <filesystem>

#include "support/timing.h"

namespace perfbench {

// Throughput and latency are measured against the calibration kernel,
// run interleaved with the workload, and set-up time is rescaled by it
// (NOTES.md): on a shared host the absolute figures swing by a quarter
// within a minute.  The absolute figures are in every run's envelope.
const std::vector<MetricDecl> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_rel", "ratio"},
    {"latency_p50_rel", "ratio"},
    {"latency_p99_rel", "ratio"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDecl> kPerLayer = {
    // Compiler passes, summed over one instantiation of the workload's
    // programs (phy_link 9, rx_pipelined 16, serve_churn 1).
    {"zparse.parse_ms", "ms"},
    {"zir.compile_ms_sum", "ms"},
    {"zir.compile_ms_p99", "ms"},
    {"zir.frontend_ms", "ms"},
    {"zvect.vectorize_ms", "ms"},
    {"zvect.candidates_generated", "count"},
    {"zvect.candidates_kept", "count"},
    {"zopt.optimize_ms", "ms"},
    {"zopt.auto_mapped", "count"},
    {"zopt.maps_fused", "count"},
    {"zexpr.build_ms", "ms"},
    {"zexpr.luts_built", "count"},
    {"zexpr.lut_bytes", "bytes"},
    // Fused regions and native code generation.
    {"zfuse.nodes_fused", "count"},
    {"zfuse.fallbacks", "count"},
    {"zfuse.ops", "count"},
    {"zcgen.regions", "count"},
    {"zcgen.cache_hits", "count"},
    {"zcgen.cache_misses", "count"},
    {"zcgen.host_bridges", "count"},
    {"zcgen.cold_compile_s", "s"},
    // Single-threaded execution, split by rate.
    {"zexec.tx_run_s", "s"},
    {"zexec.rx_run_s", "s"},
    {"tx.r6.mbps", "Mbit/s"},
    {"tx.r9.mbps", "Mbit/s"},
    {"tx.r12.mbps", "Mbit/s"},
    {"tx.r18.mbps", "Mbit/s"},
    {"tx.r24.mbps", "Mbit/s"},
    {"tx.r36.mbps", "Mbit/s"},
    {"tx.r48.mbps", "Mbit/s"},
    {"tx.r54.mbps", "Mbit/s"},
    {"rx.r6.msps", "Msps"},
    {"rx.r9.msps", "Msps"},
    {"rx.r12.msps", "Msps"},
    {"rx.r18.msps", "Msps"},
    {"rx.r24.msps", "Msps"},
    {"rx.r36.msps", "Msps"},
    {"rx.r48.msps", "Msps"},
    {"rx.r54.msps", "Msps"},
    // `|>>>|` stages and the SPSC queue between them.
    {"zexec.threaded_run_s", "s"},
    {"zexec.pipeline_run_s", "s"},
    {"zexec.stage0.busy_s", "s"},
    {"zexec.stage1.busy_s", "s"},
    {"zexec.stage0.elems", "count"},
    {"zexec.stage1.elems", "count"},
    {"zexec.queue.high_water", "count"},
    {"zexec.queue.producer_stalls", "count"},
    {"zexec.queue.consumer_stalls", "count"},
    {"zexec.queue.push_wait_ms", "ms"},
    {"zexec.queue.pop_wait_ms", "ms"},
    {"zexec.run_overhead_ms", "ms"},
    // Receiver control path (metrics registry).
    {"wifi.rx.crc_ok", "count"},
    {"wifi.rx.crc_fail", "count"},
    {"wifi.rx.header_drops", "count"},
    {"wifi.rx.sync_failures", "count"},
    {"wifi.rx.resyncs", "count"},
    {"wifi.rx_data.tail_bits_short", "count"},
    // Serving: the pipeline factory on the I/O thread, the scheduler,
    // session accounting and the client's view of each session phase.
    {"zserve.factory_ms_p50", "ms"},
    {"zserve.factory_ms_p99", "ms"},
    {"zserve.factory_ms_sum", "ms"},
    {"zserve.sched.queued_ns", "ns"},
    {"zserve.sched.parked_ns", "ns"},
    {"zserve.sched.running_ns", "ns"},
    {"zserve.sessions.accepted", "count"},
    {"zserve.sessions.completed", "count"},
    {"zserve.sessions.evicted", "count"},
    {"zserve.sessions.rejected", "count"},
    {"zserve.rx_bytes", "bytes"},
    {"zserve.tx_bytes", "bytes"},
    {"zserve.drain_ms", "ms"},
    {"zserve.client.connect_s", "s"},
    {"zserve.client.hello_s", "s"},
    {"zserve.client.frames_s", "s"},
    {"zserve.client.drain_s", "s"},
    // Host-speed controls: the calibration kernel, and the hand-written
    // Sora transceiver on the same packets (the Figure 6 baseline).
    {"calib.chunk_us", "us"},
    {"calib.walk_us", "us"},
    {"sora.tx_mbps", "Mbit/s"},
    {"sora.rx_msps", "Msps"},
    // The workload-specific end-to-end figures, measured in the traced
    // pass (the untraced values are in every run's envelope).
    {"e2e.goodput_mbps", "Mbit/s"},
    {"e2e.tx_mbps", "Mbit/s"},
    {"e2e.rx_msps", "Msps"},
    {"e2e.rx_msps_1thread", "Msps"},
    {"e2e.packet_us_p50", "us"},
    {"e2e.packet_us_p99", "us"},
    {"e2e.serve_elems_per_s", "1/s"},
    {"e2e.frame_ms_p50", "ms"},
    {"e2e.frame_ms_p99", "ms"},
    {"e2e.session_open_ms_p50", "ms"},
    {"e2e.session_open_ms_p99", "ms"},
    {"e2e.fail_ratio", "ratio"},
    // Trace accounting: the same work run untraced, then traced.
    {"bench.oracle_s", "s"},
    {"bench.calibrate_s", "s"},
    {"bench.control_s", "s"},
    {"bench.harness_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.layer_self_ratio", "ratio"},
};

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Quantile
tail(std::vector<double> v, double want)
{
    Quantile out;
    out.n = v.size();
    if (v.empty())
        return out;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n <= 10) {
        out.value = v.back();
        out.q = 1;
        return out;
    }
    // Nearest rank, capped so ten samples lie strictly above it.
    size_t want_rank = static_cast<size_t>(
        std::ceil(want * static_cast<double>(n) - 1e-9));
    size_t rank = std::clamp<size_t>(want_rank, 1, n - 10);
    out.value = v[rank - 1];
    out.q = static_cast<double>(rank) / static_cast<double>(n);
    return out;
}

void
Digest::add(const void* data, size_t n)
{
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

Tracer::Tracer() : recorder_(std::make_unique<ziria::timeline::Recorder>())
{
}

Tracer&
Tracer::get()
{
    static Tracer t;
    return t;
}

Tracer::Buffer&
Tracer::local()
{
    thread_local Buffer* buf = nullptr;
    if (!buf) {
        std::lock_guard<std::mutex> lk(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buf = buffers_.back().get();
        buf->tid = static_cast<uint32_t>(buffers_.size());
        buf->recs.reserve(1 << 10);
    }
    return *buf;
}

std::vector<uint64_t>
Tracer::childNs(const Buffer& b)
{
    std::vector<uint64_t> out(b.recs.size(), 0);
    for (const Rec& r : b.recs)
        if (r.parent >= 0 && r.t1)
            out[static_cast<size_t>(r.parent)] += r.t1 - r.t0;
    return out;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::map<std::string, Totals> out;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : buffers_) {
        std::vector<uint64_t> children = childNs(*b);
        for (size_t i = 0; i < b->recs.size(); ++i) {
            const Rec& r = b->recs[i];
            if (!r.t1)
                continue;  // still open: not a finished span
            Totals& t = out[r.name];
            double dur = static_cast<double>(r.t1 - r.t0) * 1e-9;
            t.durSec += dur;
            t.selfSec += dur - static_cast<double>(children[i]) * 1e-9;
        }
    }
    return out;
}

bool
Tracer::writeTrace(const std::string& path)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : buffers_)
        for (const Rec& r : b->recs)
            if (r.t1)
                recorder_->complete("perfbench", r.name, r.t0, r.t1 - r.t0,
                                    b->tid);
    return recorder_->writeFile(path);
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

namespace {

// Work per chunk, about 150 us on the reference machine.
constexpr size_t kViterbiSteps = 300;
constexpr size_t kFftBlocks = 30;
constexpr int kInterpretPasses = 150;
constexpr size_t kProgramOps = 256;

/** Next value of a 32-bit LCG: fixed inputs, the same on every run. */
uint32_t
lcg(uint32_t& x)
{
    x = x * 1664525u + 1013904223u;
    return x;
}

} // namespace

Calibration::Calibration()
    : soft_(2 * kViterbiSteps), decisions_(64 * kViterbiSteps),
      fftIn_(64 * kFftBlocks), twiddle_(32), mem_(4096)
{
    uint32_t x = 7;
    for (auto& s : soft_)
        s = static_cast<int8_t>(lcg(x) >> 24);
    // The 802.11 K = 7 code (generators 133 and 171 octal): the sign of
    // each output bit for a 7-bit shift-register value.
    for (int r = 0; r < 128; ++r) {
        sign0_[r] = __builtin_parity(r & 0133) ? -1 : 1;
        sign1_[r] = __builtin_parity(r & 0171) ? -1 : 1;
    }
    for (size_t i = 0; i < fftIn_.size(); ++i)
        fftIn_[i] = {static_cast<float>(i % 13) - 6,
                     static_cast<float>(i % 7) - 3};
    for (int k = 0; k < 32; ++k)
        twiddle_[static_cast<size_t>(k)] =
            std::polar(1.0f, static_cast<float>(-2 * M_PI * k / 64));
    // Ops 0-4: add, xor, shift, load, store; the last op loops.
    x = 3;
    for (size_t i = 0; i < kProgramOps; ++i)
        code_.push_back(static_cast<uint8_t>((lcg(x) >> 24) % 5));
    code_.push_back(5);
}

uint32_t
Calibration::viterbi()
{
    int32_t pm[64], next[64];
    for (int s = 0; s < 64; ++s)
        pm[s] = s ? 1 << 20 : 0;
    uint32_t acc = 0;
    for (size_t t = 0; t < kViterbiSteps; ++t) {
        const int a = soft_[2 * t], b = soft_[2 * t + 1];
        for (int ns = 0; ns < 64; ++ns) {
            const int r0 = (ns << 1) & 127, r1 = r0 | 1;
            const int m0 = pm[r0 & 63] + sign0_[r0] * a + sign1_[r0] * b;
            const int m1 = pm[r1 & 63] + sign0_[r1] * a + sign1_[r1] * b;
            const bool d = m1 < m0;
            next[ns] = d ? m1 : m0;
            decisions_[t * 64 + static_cast<size_t>(ns)] = d;
        }
        int32_t lo = *std::min_element(next, next + 64);
        for (int s = 0; s < 64; ++s)
            pm[s] = next[s] - lo;
        acc += static_cast<uint32_t>(lo);
    }
    return acc + decisions_[decisions_.size() / 2];
}

float
Calibration::fft()
{
    float acc = 0;
    for (size_t blk = 0; blk < kFftBlocks; ++blk) {
        std::complex<float> x[64];
        std::copy_n(fftIn_.begin() + static_cast<long>(blk * 64), 64, x);
        for (int i = 1, j = 0; i < 64; ++i) {  // bit reversal
            int bit = 32;
            for (; j & bit; bit >>= 1)
                j ^= bit;
            j ^= bit;
            if (i < j)
                std::swap(x[i], x[j]);
        }
        for (int len = 2; len <= 64; len <<= 1)
            for (int i = 0; i < 64; i += len)
                for (int k = 0; k < len / 2; ++k) {
                    std::complex<float> w =
                        twiddle_[static_cast<size_t>(k * (64 / len))] *
                        x[i + k + len / 2];
                    x[i + k + len / 2] = x[i + k] - w;
                    x[i + k] += w;
                }
        acc += x[blk % 64].real();
    }
    return acc;
}

int32_t
Calibration::interpret()
{
    int32_t a = 1, b = 2;
    int passes = kInterpretPasses;
    size_t pc = 0;
    for (;;) {
        switch (code_[pc]) {
        case 0: a += b; break;
        case 1: b ^= a >> 3; break;
        case 2: a = static_cast<int32_t>(static_cast<uint32_t>(a) << 1) |
                    (b & 1);
                break;
        case 3: b += mem_[static_cast<uint32_t>(a) & 4095]; break;
        case 4: mem_[static_cast<uint32_t>(b) & 4095] = a; break;
        default:
            if (--passes == 0)
                return a + b;
            pc = 0;
            continue;
        }
        ++pc;
    }
}

double
Calibration::chunk()
{
    Span s("bench.calibrate");
    ziria::Stopwatch sw;
    sink_ += viterbi();
    sink_ += static_cast<uint64_t>(fft() != 0);
    sink_ += static_cast<uint32_t>(interpret());
    double sec = sw.elapsedSec();
    history_.push_back(sec);
    return sec;
}

double
Calibration::sample(int n)
{
    std::vector<double> secs;
    for (int i = 0; i < n; ++i)
        secs.push_back(chunk());
    return median(secs);
}

MemoryWalk::MemoryWalk() : next_(kEntries)
{
    // Sattolo's shuffle: one cycle through every entry, so the walk
    // never settles into a short loop that stays in cache.
    for (uint32_t i = 0; i < kEntries; ++i)
        next_[i] = i;
    uint32_t x = 11;
    for (uint32_t i = kEntries - 1; i > 0; --i)
        std::swap(next_[i], next_[(uint64_t{lcg(x)} * i) >> 32]);
}

double
MemoryWalk::walk()
{
    Span s("bench.calibrate");
    ziria::Stopwatch sw;
    uint32_t p = pos_;
    for (int i = 0; i < kSteps; ++i)
        p = next_[p];
    pos_ = p;
    double sec = sw.elapsedSec();
    history_.push_back(sec);
    return sec;
}

double
MemoryWalk::sample(int n)
{
    std::vector<double> secs;
    for (int i = 0; i < n; ++i)
        secs.push_back(walk());
    return median(secs);
}

Span::Span(const char* name)
{
    Tracer& t = Tracer::get();
    if (!t.enabled())
        return;
    buf_ = &t.local();
    idx_ = static_cast<int64_t>(buf_->recs.size());
    int64_t parent = buf_->open.empty() ? -1 : buf_->open.back();
    buf_->recs.push_back({name, ziria::nowNs(), 0, parent});
    buf_->open.push_back(idx_);
}

Span::~Span()
{
    if (!buf_)
        return;
    buf_->recs[static_cast<size_t>(idx_)].t1 = ziria::nowNs();
    buf_->open.pop_back();
}

// ---------------------------------------------------------------------
// Result helpers
// ---------------------------------------------------------------------

void
traceAccounting(Result& r, double untracedSec, double tracedSec,
                const std::vector<std::string>& layerSpans)
{
    auto totals = Tracer::get().totals();
    // The oracle, the calibration kernel and the Sora control are
    // benchmark code, but they run inside the measured loop, so they are
    // part of the time the spans must account for.
    double layerSelf = totals["bench.oracle"].selfSec +
                       totals["bench.calibrate"].selfSec +
                       totals["bench.control"].selfSec;
    for (const auto& name : layerSpans)
        layerSelf += totals[name].selfSec;
    r.layer["bench.harness_s"] = totals["bench.harness"].selfSec;
    r.layer["bench.oracle_s"] = totals["bench.oracle"].selfSec;
    r.layer["bench.calibrate_s"] = totals["bench.calibrate"].selfSec;
    r.layer["bench.control_s"] = totals["bench.control"].selfSec;
    r.layer["trace.untraced_wall_s"] = untracedSec;
    r.layer["trace.traced_wall_s"] = tracedSec;
    if (untracedSec > 0) {
        r.layer["trace.overhead_pct"] =
            (tracedSec / untracedSec - 1.0) * 100.0;
        r.layer["trace.layer_self_ratio"] = layerSelf / untracedSec;
    }
}

std::string
workPath(const Args& a, const std::string& leaf)
{
    std::filesystem::path p = std::filesystem::path(a.workDir) / leaf;
    std::error_code ec;
    std::filesystem::create_directories(p, ec);
    return p.string();
}

void
removeTree(const std::string& path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
