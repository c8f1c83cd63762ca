/**
 * @file
 * Per-node execution instrumentation: the runtime half of the
 * observability layer.
 *
 * When `BuildOptions::instrument` is set, `buildNode` wraps every
 * execution node in a TracedNode shim that counts scheduling
 * transitions (advance -> Yield/NeedInput/Done), supplied elements, and
 * — sampled every 2^sampleShift advances — the wall time of advance().
 * Each shim is keyed by a stable node path assigned during the build
 * ("root/l/rep/s1", ...), so profiles from different runs of the same
 * program line up.
 *
 * With instrumentation off no shim exists: the node tree is bit-for-bit
 * the one the uninstrumented build produces, which is what makes the
 * layer zero-cost when disabled (guarded by scripts/check_overhead.sh).
 *
 * ThreadedPipeline additionally records per-stage throughput and SPSC
 * queue occupancy / stall telemetry into StageMetrics, making `|>>>|`
 * placement decisions data-driven.
 */
#ifndef ZIRIA_ZEXEC_TRACE_H
#define ZIRIA_ZEXEC_TRACE_H

#include <deque>
#include <string>

#include "support/metrics.h"
#include "support/timing.h"
#include "zexec/node.h"

namespace ziria {

/** Counters for one execution node, keyed by its stable path. */
struct NodeMetrics
{
    std::string path;  ///< stable position in the built node tree
    std::string kind;  ///< AST kind that produced the node
    size_t inWidth = 0;
    size_t outWidth = 0;

    uint64_t advances = 0;    ///< advance() calls
    uint64_t yields = 0;      ///< ... that returned Yield
    uint64_t needInputs = 0;  ///< ... that returned NeedInput
    uint64_t dones = 0;       ///< ... that returned Done
    uint64_t supplies = 0;    ///< supply() calls (== elements in)
    uint64_t sampledNs = 0;   ///< wall time of the sampled advances
    uint64_t samples = 0;     ///< number of sampled advances

    /** Set when map-chain coalescing replaced this node; not exported. */
    bool discarded = false;

    uint64_t elemsIn() const { return supplies; }
    uint64_t elemsOut() const { return yields; }
};

/** Telemetry for one `|>>>|` stage (threaded runs). */
struct StageMetrics
{
    uint64_t consumed = 0;
    uint64_t emitted = 0;
    bool halted = false;
    double sec = 0;  ///< wall time of the stage's drive loop

    /** Failure cause name ("exception", "stall", "cancel"); empty when
     *  the stage ended normally.  Filled by ThreadedPipeline::run. */
    std::string failure;

    // Outbound queue (absent for the last stage).
    bool hasQueue = false;
    uint64_t queueCapacity = 0;
    uint64_t queueHighWater = 0;   ///< max occupancy: near capacity means
                                   ///< this stage outruns its consumer
    uint64_t producerStalls = 0;   ///< pushes that found the queue full
    uint64_t consumerStalls = 0;   ///< pops by the NEXT stage that found
                                   ///< it empty (this stage is too slow)

    // Queue-wait wall time (only measured when the run tracks latency —
    // a SpanTracker is attached — so the plain path stays clock-free).
    uint64_t pushWaitNs = 0;  ///< time blocked pushing to the out queue
    uint64_t popWaitNs = 0;   ///< time blocked popping the in queue

    double
    elemsPerSec() const
    {
        return sec > 0 ? static_cast<double>(consumed) / sec : 0;
    }
};

/** All metrics collected for one compiled pipeline. */
struct PipelineMetrics
{
    std::deque<NodeMetrics> nodes;    ///< deque: stable addresses
    std::vector<StageMetrics> stages; ///< filled by ThreadedPipeline::run

    NodeMetrics&
    addNode(const std::string& path, const char* kind)
    {
        nodes.emplace_back();
        nodes.back().path = path;
        nodes.back().kind = kind;
        return nodes.back();
    }

    /** Serialize into an open JSON object scope. */
    void
    writeJson(metrics::JsonWriter& w) const
    {
        w.beginArray("nodes");
        for (const auto& n : nodes) {
            if (n.discarded)
                continue;
            w.beginObject();
            w.field("path", n.path);
            w.field("kind", n.kind);
            w.field("in_width", n.inWidth);
            w.field("out_width", n.outWidth);
            w.field("advance", n.advances);
            w.field("yield", n.yields);
            w.field("need_input", n.needInputs);
            w.field("done", n.dones);
            w.field("supply", n.supplies);
            w.field("elems_in", n.elemsIn());
            w.field("elems_out", n.elemsOut());
            w.field("bytes_in", n.elemsIn() * n.inWidth);
            w.field("bytes_out", n.elemsOut() * n.outWidth);
            w.field("sampled_ns", n.sampledNs);
            w.field("samples", n.samples);
            w.endObject();
        }
        w.endArray();
        w.beginArray("stages");
        for (const auto& s : stages) {
            w.beginObject();
            w.field("consumed", s.consumed);
            w.field("emitted", s.emitted);
            w.field("halted", s.halted);
            w.field("sec", s.sec);
            w.field("elems_per_sec", s.elemsPerSec());
            if (!s.failure.empty())
                w.field("failure", s.failure);
            if (s.pushWaitNs || s.popWaitNs) {
                w.field("push_wait_ns", s.pushWaitNs);
                w.field("pop_wait_ns", s.popWaitNs);
            }
            if (s.hasQueue) {
                w.beginObject("out_queue");
                w.field("capacity", s.queueCapacity);
                w.field("high_water", s.queueHighWater);
                w.field("producer_stalls", s.producerStalls);
                w.field("consumer_stalls", s.consumerStalls);
                w.endObject();
            }
            w.endObject();
        }
        w.endArray();
    }

    /** Standalone JSON document (tests, ad-hoc dumps). */
    std::string
    toJson() const
    {
        metrics::JsonWriter w;
        w.beginObject();
        writeJson(w);
        w.endObject();
        return w.str();
    }
};

/**
 * Counting shim around an ExecNode.  Delegates every virtual; advance()
 * is timed on a 1-in-2^sampleShift sample so per-node cost attribution
 * stays cheap enough to leave on during long runs.
 */
class TracedNode : public ExecNode
{
  public:
    TracedNode(NodePtr inner, NodeMetrics* m, uint32_t sample_shift)
        : inner_(std::move(inner)), m_(m),
          sampleMask_((uint64_t{1} << sample_shift) - 1)
    {
        setInWidth(inner_->inWidth());
        setOutWidth(inner_->outWidth());
        setCtrlWidth(inner_->ctrlWidth());
    }

    void start(Frame& f) override { inner_->start(f); }

    // Must forward: the default (reset = start) would stop the recursive
    // re-arm at the shim and never reach the inner node's override.
    void reset(Frame& f) override { inner_->reset(f); }

    // Same for the checkpoint walk: the shim itself is stateless.
    void
    snapshot(const Frame& f, StateWriter& w) const override
    {
        inner_->snapshot(f, w);
    }

    void
    restore(Frame& f, StateReader& r) override
    {
        inner_->restore(f, r);
    }

    Status
    advance(Frame& f) override
    {
        Status s;
        if ((m_->advances & sampleMask_) == 0) {
            uint64_t t0 = nowNs();
            s = inner_->advance(f);
            m_->sampledNs += nowNs() - t0;
            ++m_->samples;
        } else {
            s = inner_->advance(f);
        }
        ++m_->advances;
        switch (s) {
          case Status::Yield: ++m_->yields; break;
          case Status::NeedInput: ++m_->needInputs; break;
          case Status::Done: ++m_->dones; break;
        }
        return s;
    }

    void
    supply(Frame& f, const uint8_t* in) override
    {
        ++m_->supplies;
        inner_->supply(f, in);
    }

    /**
     * Forwards the whole run, then counts it as the per-element
     * protocol would have: each element taken is a supply after a
     * NeedInput (the first one answers the NeedInput a parked node
     * returned last time), each element written a Yield.  Runs are
     * timed on the same 1-in-2^sampleShift sample, weighted by the
     * advances they stand for.
     */
    Status
    run(Frame& f, RunWindow& w) override
    {
        const uint8_t* in0 = w.in;
        const uint8_t* out0 = w.out;
        const bool sampled = (runs_++ & sampleMask_) == 0;
        const uint64_t t0 = sampled ? nowNs() : 0;
        const uint64_t before = m_->advances;
        Status s;
        try {
            s = inner_->run(f, w);
        } catch (...) {
            countRun(in0, out0, w, nullptr);
            throw;
        }
        countRun(in0, out0, w, &s);
        if (sampled) {
            m_->sampledNs += nowNs() - t0;
            m_->samples += m_->advances - before;
        }
        return s;
    }

    const uint8_t* out() const override { return inner_->out(); }
    const uint8_t* ctrl() const override { return inner_->ctrl(); }

    ExecNode* inner() { return inner_.get(); }
    NodeMetrics* nodeMetrics() { return m_; }

    /** Release the wrapped node (map-chain coalescing). */
    NodePtr
    takeInner()
    {
        m_->discarded = true;
        return std::move(inner_);
    }

  private:
    /** Element-exact counts for one run; @p s null when it threw. */
    void
    countRun(const uint8_t* in0, const uint8_t* out0, const RunWindow& w,
             const Status* s)
    {
        const uint64_t took =
            inWidth_ ? static_cast<uint64_t>(w.in - in0) / inWidth_ : 0;
        const uint64_t made =
            outWidth_ ? static_cast<uint64_t>(w.out - out0) / outWidth_ : 0;
        uint64_t needs = took - (took && w.parked ? 1 : 0);
        uint64_t yields = made;
        uint64_t dones = 0;
        if (s && *s == Status::Yield)
            ++yields;
        else if (s && *s == Status::NeedInput)
            ++needs;
        else if (s)
            ++dones;
        m_->supplies += took;
        m_->yields += yields;
        m_->needInputs += needs;
        m_->dones += dones;
        m_->advances += yields + needs + dones;
    }

    NodePtr inner_;
    NodeMetrics* m_;
    uint64_t sampleMask_;
    uint64_t runs_ = 0;  ///< run() calls, for the timing sample
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_TRACE_H
