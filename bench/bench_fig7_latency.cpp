/**
 * @file
 * Figure 7: latency CDFs of the single-threaded WiFi pipelines.
 *
 * The paper samples latencies between consecutive read operations (TX
 * and RX input) and between consecutive writes (TX output), normalizes
 * per datum to the line-rate budget, and plots CDFs.  The qualitative
 * claims: TX read latencies are highly nonuniform (a read right before
 * an IFFT waits a whole symbol), TX write latencies are much more
 * uniform (the IFFT has the largest vectorization and sits at the end of
 * the pipe), and only a tiny tail rises above the per-datum budget.
 *
 * We reproduce those shapes with latencies normalized to the *mean*
 * per-element gap (our VM cannot hit the real 40 MHz budget, so the mean
 * plays the role of the achievable line rate).
 */
#include <algorithm>
#include <fstream>

#include "bench_util.h"

#include "sora/sora.h"
#include "support/metrics.h"

using namespace ziria;
using namespace ziria::wifi;
using namespace zbench;

namespace {

/** Hands out @p base's elements in windows of one, stamping each as
 *  it is handed out: the paper's per-read sample. */
class TimedSource : public InputSource
{
  public:
    TimedSource(InputSource& base, std::vector<uint64_t>& ts)
        : base_(base), ts_(ts)
    {
    }

    const uint8_t*
    window(size_t* n) override
    {
        ts_.push_back(nowNs());
        const uint8_t* p = base_.window(n);
        *n = std::min<size_t>(*n, 1);
        return p;
    }

    void commit(size_t n) override { base_.commit(n); }

  private:
    InputSource& base_;
    std::vector<uint64_t>& ts_;
};

/** Stamps every element of a run as the run arrives: the paper's
 *  per-write sample. */
class TimedSink : public OutputSink
{
  public:
    explicit TimedSink(std::vector<uint64_t>& ts) : ts_(ts) {}

    void
    putRun(const uint8_t*, size_t n, size_t) override
    {
        ts_.insert(ts_.end(), n, nowNs());
    }

  private:
    std::vector<uint64_t>& ts_;
};

struct Cdf
{
    double p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0;
    double fracAbove1 = 0, fracAbove2 = 0;
};

Cdf
cdfOf(std::vector<uint64_t>& ts)
{
    std::vector<double> gaps;
    gaps.reserve(ts.size());
    for (size_t i = 1; i < ts.size(); ++i)
        gaps.push_back(static_cast<double>(ts[i] - ts[i - 1]));
    if (gaps.empty())
        return {};
    double mean = 0;
    for (double g : gaps)
        mean += g;
    mean /= static_cast<double>(gaps.size());
    for (double& g : gaps)
        g /= mean;
    std::sort(gaps.begin(), gaps.end());
    auto at = [&](double q) {
        return gaps[std::min(gaps.size() - 1,
                             static_cast<size_t>(q * gaps.size()))];
    };
    Cdf c;
    c.p50 = at(0.50);
    c.p90 = at(0.90);
    c.p99 = at(0.99);
    c.p999 = at(0.999);
    c.max = gaps.back();
    size_t above1 = gaps.end() -
        std::upper_bound(gaps.begin(), gaps.end(), 1.0 + 1e-12);
    size_t above2 = gaps.end() -
        std::upper_bound(gaps.begin(), gaps.end(), 2.0);
    c.fracAbove1 = 100.0 * above1 / gaps.size();
    c.fracAbove2 = 100.0 * above2 / gaps.size();
    return c;
}

/** One emitted row, kept for the machine-readable dump. */
struct Row
{
    std::string series;  ///< "tx_read" | "tx_write" | "rx_read"
    std::string rate;
    Cdf cdf;
};

std::vector<Row> g_rows;

void
printRow(const char* series, const std::string& name, const Cdf& c)
{
    printf("%-10s %8.2f %8.2f %8.2f %8.2f %8.2f %9.2f%% %9.3f%%\n",
           name.c_str(), c.p50, c.p90, c.p99, c.p999, c.max,
           c.fracAbove1, c.fracAbove2);
    g_rows.push_back(Row{series, name, c});
}

void
writeJson()
{
    metrics::JsonWriter w;
    w.beginObject();
    w.field("benchmark", "fig7_latency");
    w.field("normalization", "per-chunk gap over its mean");
    w.beginArray("rows");
    for (const auto& r : g_rows) {
        w.beginObject();
        w.field("series", r.series);
        w.field("rate", r.rate);
        w.field("p50", r.cdf.p50);
        w.field("p90", r.cdf.p90);
        w.field("p99", r.cdf.p99);
        w.field("p999", r.cdf.p999);
        w.field("max", r.cdf.max);
        w.field("pct_above_1x", r.cdf.fracAbove1);
        w.field("pct_above_2x", r.cdf.fracAbove2);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::ofstream f("BENCH_fig7.json");
    f << w.str() << "\n";
    printf("wrote BENCH_fig7.json\n");
}

void
header(const char* title)
{
    printf("\n%s\n", title);
    rule();
    printf("%-10s %8s %8s %8s %8s %8s %10s %10s\n", "rate", "p50", "p90",
           "p99", "p99.9", "max", ">1x mean", ">2x mean");
}

} // namespace

int
main()
{
    const int psdu = 600;
    std::vector<uint8_t> payload(psdu - 4, 0x3C);
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);

    header("Figure 7a: TX latencies at read (normalized per chunk)");
    for (Rate rate : allRates()) {
        auto dataBits = assembleDataBits(payload, rate);
        auto p = compilePipeline(wifiTxDataComp(rate), opt);
        std::vector<uint8_t> padded = dataBits;
        while (padded.size() % std::max<size_t>(p->inWidth(), 1))
            padded.push_back(0);
        std::vector<uint64_t> rts;
        for (int rep = 0; rep < 8; ++rep) {
            MemSource src(padded, p->inWidth());
            TimedSource tsrc(src, rts);
            NullSink sink;
            p->run(tsrc, sink);
        }
        printRow("tx_read", "TX" + std::to_string(rateInfo(rate).mbps),
                 cdfOf(rts));
    }

    header("Figure 7b: TX latencies at write (normalized per chunk)");
    for (Rate rate : allRates()) {
        auto dataBits = assembleDataBits(payload, rate);
        auto p = compilePipeline(wifiTxDataComp(rate), opt);
        std::vector<uint8_t> padded = dataBits;
        while (padded.size() % std::max<size_t>(p->inWidth(), 1))
            padded.push_back(0);
        std::vector<uint64_t> wts;
        for (int rep = 0; rep < 8; ++rep) {
            MemSource src(padded, p->inWidth());
            TimedSink sink(wts);
            p->run(src, sink);
        }
        printRow("tx_write", "TX" + std::to_string(rateInfo(rate).mbps),
                 cdfOf(wts));
    }

    header("Figure 7c: RX latencies at read (normalized per chunk)");
    for (Rate rate : allRates()) {
        auto dataBits = assembleDataBits(payload, rate);
        auto samples = sora::txDataSamples(dataBits, rate);
        std::vector<uint8_t> in(samples.size() * 4);
        std::memcpy(in.data(), samples.data(), in.size());
        auto p = compilePipeline(wifiRxDataComp(rate, psdu), opt);
        std::vector<uint64_t> rts;
        for (int rep = 0; rep < 8; ++rep) {
            MemSource src(in, p->inWidth());
            TimedSource tsrc(src, rts);
            NullSink sink;
            p->run(tsrc, sink);
        }
        printRow("rx_read", "RX" + std::to_string(rateInfo(rate).mbps),
                 cdfOf(rts));
    }

    writeJson();

    printf("\n=> paper shape: TX reads highly nonuniform (whole-symbol "
           "stalls before the\n   IFFT), TX writes far more uniform, and "
           "only ~0.2%% of events above the\n   per-datum budget with a "
           "worst case of ~5x (all well under SIFS).\n");
    return 0;
}
