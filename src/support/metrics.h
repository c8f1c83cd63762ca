/**
 * @file
 * Metrics primitives for the observability layer: counters, gauges,
 * log2-bucketed histograms, a named registry, and a small JSON writer.
 *
 * The registry is the process-wide sink for coarse-grained events
 * (pipelines compiled, LUTs built, threaded runs); hot-path per-node
 * counting lives in zexec/trace.h and writes plain struct fields, so the
 * registry's mutex is never taken per element.  `metrics::toJson`
 * serializes a registry; the same JsonWriter backs the `--profile`
 * export of zirrun.
 */
#ifndef ZIRIA_SUPPORT_METRICS_H
#define ZIRIA_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ziria {
namespace metrics {

/**
 * Monotonic event counter.  A relaxed atomic: several threads (two
 * servers, pipeline stages) may bump one registry entry at once, and
 * readers only need an eventually consistent value.
 */
struct Counter
{
    std::atomic<uint64_t> n{0};

    void inc() { n.fetch_add(1, std::memory_order_relaxed); }
    void add(uint64_t d) { n.fetch_add(d, std::memory_order_relaxed); }
    uint64_t value() const { return n.load(std::memory_order_relaxed); }
};

/** Last-value (plus running-max) gauge; relaxed atomics like Counter. */
struct Gauge
{
    std::atomic<double> v{0};
    std::atomic<double> maxv{0};

    void
    set(double x)
    {
        v.store(x, std::memory_order_relaxed);
        double m = maxv.load(std::memory_order_relaxed);
        while (x > m &&
               !maxv.compare_exchange_weak(m, x, std::memory_order_relaxed))
            ;
    }

    double value() const { return v.load(std::memory_order_relaxed); }
    double
    maxValue() const
    {
        return maxv.load(std::memory_order_relaxed);
    }
};

/**
 * HDR-style histogram of non-negative integer observations: each power-
 * of-two segment is split into 2^kSubBits linear sub-buckets, bounding
 * the relative quantization error at 2^-kSubBits (~6%).  Values below
 * 2^kSubBits are recorded exactly.  Used for nanosecond/microsecond
 * latency samples; `percentile` extracts p50/p99-style quantiles from
 * the bucket array.
 */
class Histogram
{
  public:
    static constexpr int kSubBits = 4;
    static constexpr int kSubBuckets = 1 << kSubBits; // 16
    // Segments 1..(64-kSubBits) above the exact range, kSubBuckets each.
    static constexpr int kBuckets = (64 - kSubBits + 1) * kSubBuckets;

    void
    observe(uint64_t x)
    {
        ++buckets_[bucketOf(x)];
        ++count_;
        sum_ += x;
        if (count_ == 1 || x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
    }

    /** Fold another histogram's observations into this one. */
    void
    merge(const Histogram& o)
    {
        if (o.count_ == 0)
            return;
        for (int i = 0; i < kBuckets; ++i)
            buckets_[i] += o.buckets_[i];
        if (count_ == 0 || o.min_ < min_)
            min_ = o.min_;
        if (o.max_ > max_)
            max_ = o.max_;
        count_ += o.count_;
        sum_ += o.sum_;
    }

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0;
    }
    uint64_t bucket(int i) const { return buckets_[i]; }

    static int
    bucketOf(uint64_t x)
    {
        if (x < kSubBuckets)
            return static_cast<int>(x);
        // Position of the leading bit (>= kSubBits here).
        int h = 63;
        while (!(x >> h))
            --h;
        int segment = h - kSubBits + 1;
        int sub = static_cast<int>((x >> (h - kSubBits)) &
                                   (kSubBuckets - 1));
        return segment * kSubBuckets + sub;
    }

    /** Inclusive lower bound of bucket i's value range. */
    static uint64_t
    bucketLow(int i)
    {
        if (i < kSubBuckets)
            return static_cast<uint64_t>(i);
        int segment = i / kSubBuckets;
        uint64_t sub = static_cast<uint64_t>(i % kSubBuckets);
        return (static_cast<uint64_t>(kSubBuckets) + sub)
               << (segment - 1);
    }

    /** Width of bucket i's value range (1 in the exact segment). */
    static uint64_t
    bucketWidth(int i)
    {
        if (i < kSubBuckets)
            return 1;
        return uint64_t{1} << (i / kSubBuckets - 1);
    }

    /**
     * Value at quantile q in [0,1] (q=0.5 is the median).  Returns the
     * midpoint of the bucket holding the target rank, clamped to the
     * observed [min,max]; 0 when empty.
     */
    uint64_t
    percentile(double q) const
    {
        if (count_ == 0)
            return 0;
        if (q <= 0)
            return min();
        if (q >= 1)
            return max_;
        // Rank of the target observation, 1-based.
        uint64_t rank =
            static_cast<uint64_t>(q * static_cast<double>(count_)) + 1;
        if (rank > count_)
            rank = count_;
        uint64_t cum = 0;
        for (int i = 0; i < kBuckets; ++i) {
            cum += buckets_[i];
            if (cum >= rank) {
                uint64_t v = bucketLow(i) + bucketWidth(i) / 2;
                if (v < min_)
                    v = min_;
                if (v > max_)
                    v = max_;
                return v;
            }
        }
        return max_;
    }

  private:
    uint64_t buckets_[kBuckets] = {};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
};

/**
 * Named metric registry.  Lookup takes a mutex; the returned references
 * are stable for the registry's lifetime (deque storage), so callers on
 * hot paths resolve once and increment lock-free afterwards.  Counters
 * and gauges are relaxed atomics, so any number of threads may update
 * one entry; a histogram still has a single writer, unless every writer
 * goes through observe().
 */
class Registry
{
  public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Record @p x in histogram @p name under the registry mutex, so
     *  writers on several threads and toJson never overlap. */
    void observe(const std::string& name, uint64_t x);

    /** Snapshot of all counters as (name, value), sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> counterValues() const;

    /** Remove every metric (tests). */
    void clear();

    /** The process-wide registry. */
    static Registry& global();

  private:
    friend std::string toJson(const Registry&);

    mutable std::mutex mu_;
    std::deque<std::pair<std::string, Counter>> counters_;
    std::deque<std::pair<std::string, Gauge>> gauges_;
    std::deque<std::pair<std::string, Histogram>> histograms_;
};

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/** Escape a string for inclusion in a JSON document (no quotes added). */
std::string jsonEscape(const std::string& s);

/**
 * Incremental JSON document writer with automatic comma placement.
 * Numbers are emitted losslessly for uint64/int64; doubles use %.9g and
 * non-finite values become null.
 */
class JsonWriter
{
  public:
    void beginObject();
    void beginObject(const std::string& key);
    void endObject();
    void beginArray();
    void beginArray(const std::string& key);
    void endArray();

    void field(const std::string& key, const std::string& v);
    void field(const std::string& key, const char* v);
    void field(const std::string& key, uint64_t v);
    void field(const std::string& key, int64_t v);
    void field(const std::string& key, int v);
    void field(const std::string& key, double v);
    void field(const std::string& key, bool v);

    /** Splice an already-serialized JSON value under @p key. */
    void rawField(const std::string& key, const std::string& rawJson);

    /** Bare array element values. */
    void value(const std::string& v);
    void value(uint64_t v);
    void value(double v);

    /** The finished document (all scopes must be closed). */
    const std::string& str() const { return out_; }

  private:
    void comma();
    void key(const std::string& k);
    void number(double v);

    std::string out_;
    std::vector<bool> needComma_;
};

/** Serialize a registry: {"counters":{...},"gauges":{...},"histograms":{...}}. */
std::string toJson(const Registry& reg);

} // namespace metrics
} // namespace ziria

#endif // ZIRIA_SUPPORT_METRICS_H
