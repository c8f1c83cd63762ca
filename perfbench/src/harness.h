/**
 * @file
 * Shared plumbing of the repository benchmark: command-line arguments,
 * the in-memory span tracer, sample statistics, and the result that
 * every workload fills and main() prints.
 *
 * The metric names a run may report are fixed here (kEndToEnd,
 * kPerLayer) and mirrored in BENCHMARK.json; run.py refuses a result
 * whose keys differ from the file's, so the two cannot drift apart.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <atomic>
#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/timeline.h"

namespace perfbench {

/** Parsed command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selfTest = false;
    std::string workDir = ".bench_build";  ///< build outputs, caches, traces
    std::string commit = "unknown";
};

/** One declared metric: name and unit. */
struct MetricDecl
{
    const char* name;
    const char* unit;
};

/** Metrics reported with `--trace 0` (every workload reports each). */
extern const std::vector<MetricDecl> kEndToEnd;

/** Metrics reported with `--trace 1` (0 where a layer is not used). */
extern const std::vector<MetricDecl> kPerLayer;

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/** A quantile of a sample: value and the quantile actually used. */
struct Quantile
{
    double value = 0;
    double q = 0;
    size_t n = 0;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * The tail quantile @p want (e.g. 0.99) when at least ten samples lie
 * beyond it, else the highest quantile that still has ten beyond it
 * (the maximum when the sample has ten or fewer values).
 */
Quantile tail(std::vector<double> v, double want = 0.99);

/** FNV-1a 64-bit running digest of generated inputs. */
class Digest
{
  public:
    void add(const void* data, size_t n);
    void add(uint64_t x) { add(&x, sizeof x); }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/**
 * In-memory span recorder.  Spans nest per thread (a span opened while
 * another is open on the same thread is its child); each thread writes
 * only its own buffer, so recording takes no lock after a thread's
 * first span.  Off by default: a disabled Span is one branch.
 */
class Tracer
{
  public:
    static Tracer& get();

    /** Switched between passes while other threads may be recording. */
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Per-name totals over the recorded spans. */
    struct Totals
    {
        double durSec = 0;   ///< summed durations
        double selfSec = 0;  ///< summed durations minus direct children
    };
    std::map<std::string, Totals> totals() const;

    /** Write every finished span as Chrome trace-event JSON (Perfetto
     *  loads it) through a private timeline::Recorder. */
    bool writeTrace(const std::string& path);

  private:
    friend class Span;

    Tracer();

    struct Rec
    {
        const char* name;
        uint64_t t0;
        uint64_t t1;
        int64_t parent;  ///< index in the same buffer, -1 for a root
    };

    struct Buffer
    {
        uint32_t tid = 0;
        std::vector<Rec> recs;
        std::vector<int64_t> open;
    };

    Buffer& local();

    /** Each span's summed direct-children time, by index. */
    static std::vector<uint64_t> childNs(const Buffer& b);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Buffer>> buffers_;  ///< one per thread
    /** Created before the first span, so the file's clock starts there;
     *  never installed with timeline::setActive, so the runtime's own
     *  timeline events stay off. */
    std::unique_ptr<ziria::timeline::Recorder> recorder_;
};

/** RAII span; records nothing unless the tracer is enabled. */
class Span
{
  public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer::Buffer* buf_ = nullptr;
    int64_t idx_ = -1;
};

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

/**
 * The benchmark's calibration kernel: a fixed amount of work written in
 * the benchmark, sharing no code with the Ziria sources.  Every
 * workload runs it interleaved with the work it measures, and reports
 * throughput, latency and set-up time against its running time.  Those
 * figures then hold still while the shared host's speed drifts, and
 * move only when the code under test does.
 *
 * One chunk mixes the three kinds of work the workloads do: a 64-state
 * Viterbi add-compare-select pass, 64-point complex FFTs, and a
 * switch-dispatched bytecode interpreter.  Each part alone tracks the
 * workloads' speed poorly, because a busy host slows each kind of code
 * by a different amount; the mix tracks it within a few percent.
 */
class Calibration
{
  public:
    /** Seconds of one chunk on the reference machine (NOTES.md); turns
     *  a set-up time measured in chunks back into seconds. */
    static constexpr double kRefSec = 150e-6;

    Calibration();

    /** Run one chunk; returns its seconds. */
    double chunk();

    /** Median seconds of @p n chunks. */
    double sample(int n);

    /** Every chunk timed so far, in seconds (the calib.chunk_us control). */
    const std::vector<double>& history() const { return history_; }

  private:
    uint32_t viterbi();
    float fft();
    int32_t interpret();

    std::vector<int8_t> soft_;             ///< Viterbi input, 2 per step
    std::vector<uint8_t> decisions_;       ///< survivor bits, 64 per step
    int8_t sign0_[128], sign1_[128];       ///< branch signs by register
    std::vector<std::complex<float>> fftIn_, twiddle_;
    std::vector<uint8_t> code_;            ///< interpreter program
    std::vector<int32_t> mem_;             ///< interpreter memory
    std::vector<double> history_;
    uint64_t sink_ = 0;  ///< folds every result, so none is optimized out
};

/**
 * A second calibration kernel, for the two VM workloads that run on
 * several threads (rx_pipelined, serve_churn): a dependent walk over one
 * random cycle through 8 MiB, so nearly every step misses the cache.
 * Their threads spend much of their time on memory traffic (locked
 * queue hand-offs, sockets, scheduler state), which a busy host slows
 * less than the compute-bound Calibration chunk, so the chunk alone
 * over-corrects.  They take the geometric mean of a chunk and a walk as
 * their time unit (NOTES.md).
 */
class MemoryWalk
{
  public:
    MemoryWalk();

    /** Walk kSteps steps; returns its seconds. */
    double walk();

    /** Median seconds of @p n walks. */
    double sample(int n);

    /** Every walk timed so far, in seconds (the calib.walk_us control). */
    const std::vector<double>& history() const { return history_; }

  private:
    static constexpr uint32_t kEntries = 1u << 21;
    static constexpr int kSteps = 2000;

    std::vector<uint32_t> next_;  ///< next_[i]: the entry after i
    uint32_t pos_ = 0;
    std::vector<double> history_;
};

// ---------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------

/** What one workload run reports. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool selfCheckFired = false;  ///< the flipped-byte oracle check fired

    std::map<std::string, double> e2e;    ///< keys from kEndToEnd
    std::map<std::string, double> layer;  ///< keys from kPerLayer

    /** Workload-specific end-to-end figures (the envelope prints them
     *  by name and unit on every run). */
    struct Named
    {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };
    std::vector<Named> named;

    /** Envelope fields (backend, opt level, digest, sample counts). */
    std::map<std::string, std::string> envelope;

    void nameValue(const std::string& name, double value,
                   const std::string& unit, const std::string& note = "")
    {
        named.push_back({name, value, unit, note});
    }
};

/**
 * The trace-accounting per-layer metrics: the self times of
 * @p layerSpans (plus the benchmark's oracle, calibration and control
 * spans) against
 * @p untracedSec, the time the same work took untraced, and the tracing
 * overhead from @p tracedSec, the time it took traced.
 */
void traceAccounting(Result& r, double untracedSec, double tracedSec,
                     const std::vector<std::string>& layerSpans);

/** Scratch subdirectory of the work dir (created on demand). */
std::string workPath(const Args& a, const std::string& leaf);

/** Recursively remove a directory tree (best effort). */
void removeTree(const std::string& path);

/** Run one workload; defined in the workload sources. */
Result runPhyLink(const Args& a);
Result runRxPipelined(const Args& a);
Result runServeChurn(const Args& a);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
