#include "zexec/pipeline.h"

#include "support/log.h"
#include "support/metrics.h"
#include "support/panic.h"
#include "zexec/ckpt_store.h"
#include "zexec/nodes.h"
#include "zopt/autolut.h"

namespace ziria {

namespace {

size_t
widthOf(const TypePtr& t)
{
    return t ? t->byteWidth() : 0;
}

/** Look through an instrumentation shim (identity when not traced). */
ExecNode*
unwrapped(ExecNode* n)
{
    if (auto* t = dynamic_cast<TracedNode*>(n))
        return t->inner();
    return n;
}

/** Strip the shim, marking its metrics entry as coalesced away. */
NodePtr
stripTrace(NodePtr n)
{
    if (auto* t = dynamic_cast<TracedNode*>(n.get()))
        return t->takeInner();
    return n;
}

/** Extract map stages when @p n is a map or an already-coalesced chain. */
std::optional<std::vector<MapStage>>
mapStagesOf(NodePtr& n)
{
    if (auto* m = dynamic_cast<MapNode*>(n.get())) {
        std::vector<MapStage> out;
        out.push_back(m->takeStage());
        return out;
    }
    if (auto* c = dynamic_cast<MapChainNode*>(n.get()))
        return c->takeStages();
    return std::nullopt;
}

} // namespace

NodePtr
buildNode(const CompPtr& c, ExprCompiler& ec, const BuildOptions& opt,
          BuildStats* stats, const std::string& path)
{
    if (stats)
        ++stats->nodes;

    NodePtr node;
    switch (c->kind()) {
      case CompKind::Take: {
        const auto& t = static_cast<const TakeComp&>(*c);
        node = std::make_unique<TakeNode>(t.valType()->byteWidth());
        break;
      }
      case CompKind::TakeMany: {
        const auto& t = static_cast<const TakeManyComp&>(*c);
        node = std::make_unique<TakeManyNode>(t.elemType()->byteWidth(),
                                              t.count());
        break;
      }
      case CompKind::Emit: {
        const auto& e = static_cast<const EmitComp&>(*c);
        node = std::make_unique<EmitNode>(ec.compileInto(e.expr()),
                                          e.expr()->type()->byteWidth());
        break;
      }
      case CompKind::Emits: {
        const auto& e = static_cast<const EmitsComp&>(*c);
        const TypePtr& at = e.expr()->type();
        node = std::make_unique<EmitsNode>(ec.compileInto(e.expr()),
                                           at->elem()->byteWidth(),
                                           at->len());
        break;
      }
      case CompKind::Return: {
        const auto& r = static_cast<const ReturnComp&>(*c);
        Action body =
            r.stmts().empty() ? Action{} : ec.compileStmts(r.stmts());
        EvalInto ret;
        size_t cw = 0;
        if (r.ret()) {
            ret = ec.compileInto(r.ret());
            cw = r.ret()->type()->byteWidth();
        }
        node = std::make_unique<ReturnNode>(std::move(body),
                                            std::move(ret), cw);
        break;
      }
      case CompKind::Seq: {
        const auto& s = static_cast<const SeqComp&>(*c);
        std::vector<SeqNode::Item> items;
        items.reserve(s.items().size());
        size_t i = 0;
        for (const auto& it : s.items()) {
            SeqNode::Item item;
            item.node = buildNode(it.comp, ec, opt, stats,
                                  path + "/s" + std::to_string(i++));
            if (it.bind) {
                item.bindOff =
                    static_cast<long>(ec.layout().add(it.bind));
                item.bindWidth = it.bind->type->byteWidth();
            }
            items.push_back(std::move(item));
        }
        node = std::make_unique<SeqNode>(std::move(items));
        break;
      }
      case CompKind::Pipe: {
        const auto& p = static_cast<const PipeComp&>(*c);
        NodePtr l = buildNode(p.left(), ec, opt, stats, path + "/l");
        NodePtr r = buildNode(p.right(), ec, opt, stats, path + "/r");
        // Execution-level static scheduling: adjacent maps run back to
        // back with no interior pipe traffic.  Peek through trace shims
        // so instrumentation never changes the execution structure.
        ExecNode* lRaw = unwrapped(l.get());
        ExecNode* rRaw = unwrapped(r.get());
        bool lIsMap = dynamic_cast<MapNode*>(lRaw) != nullptr ||
                      dynamic_cast<MapChainNode*>(lRaw) != nullptr;
        bool rIsMap = dynamic_cast<MapNode*>(rRaw) != nullptr ||
                      dynamic_cast<MapChainNode*>(rRaw) != nullptr;
        if (lIsMap && rIsMap) {
            NodePtr lu = stripTrace(std::move(l));
            NodePtr ru = stripTrace(std::move(r));
            auto ls = mapStagesOf(lu);
            auto rs = mapStagesOf(ru);
            ls->insert(ls->end(), std::make_move_iterator(rs->begin()),
                       std::make_move_iterator(rs->end()));
            node = std::make_unique<MapChainNode>(std::move(*ls));
            break;
        }
        node = std::make_unique<PipeNode>(std::move(l), std::move(r));
        break;
      }
      case CompKind::If: {
        const auto& i = static_cast<const IfComp&>(*c);
        NodePtr t = buildNode(i.thenC(), ec, opt, stats, path + "/t");
        NodePtr e = i.elseC()
            ? buildNode(i.elseC(), ec, opt, stats, path + "/e")
            : nullptr;
        node = std::make_unique<IfNode>(ec.compileInt(i.cond()),
                                        std::move(t), std::move(e));
        break;
      }
      case CompKind::Repeat: {
        const auto& r = static_cast<const RepeatComp&>(*c);
        node = std::make_unique<RepeatNode>(
            buildNode(r.body(), ec, opt, stats, path + "/rep"));
        break;
      }
      case CompKind::Times: {
        const auto& t = static_cast<const TimesComp&>(*c);
        long ivOff = -1;
        TypeKind ivKind = TypeKind::Int32;
        if (t.inductionVar()) {
            ivOff = static_cast<long>(ec.layout().add(t.inductionVar()));
            ivKind = t.inductionVar()->type->kind();
        }
        node = std::make_unique<TimesNode>(
            ec.compileInt(t.count()), ivOff, ivKind,
            buildNode(t.body(), ec, opt, stats, path + "/times"));
        break;
      }
      case CompKind::While: {
        const auto& w = static_cast<const WhileComp&>(*c);
        node = std::make_unique<WhileNode>(
            ec.compileInt(w.cond()),
            buildNode(w.body(), ec, opt, stats, path + "/while"));
        break;
      }
      case CompKind::Map: {
        const auto& m = static_cast<const MapComp&>(*c);
        CompiledKernel k = ec.compileKernel(m.fun());
        std::shared_ptr<CompiledLut> lut;
        if (opt.autoLut)
            lut = tryBuildMapLut(m.fun(), k, ec, opt.lutLimits);
        if (stats) {
            ++stats->mapNodes;
            if (lut) {
                ++stats->lutsBuilt;
                stats->lutBytes += lut->tableBytes();
                metrics::Registry::global()
                    .counter("ziria.luts_built")
                    .inc();
            }
        }
        node = std::make_unique<MapNode>(
            std::move(k), std::move(lut),
            m.fun()->params[0]->type->byteWidth(),
            m.fun()->retType->byteWidth());
        break;
      }
      case CompKind::Filter: {
        const auto& fc = static_cast<const FilterComp&>(*c);
        CompiledKernel k = ec.compileKernel(fc.pred());
        node = std::make_unique<FilterNode>(
            std::move(k), fc.pred()->params[0]->type->byteWidth());
        break;
      }
      case CompKind::LetVar: {
        const auto& l = static_cast<const LetVarComp&>(*c);
        size_t off = ec.layout().add(l.var());
        EvalInto init;
        if (l.init())
            init = ec.compileInto(l.init());
        node = std::make_unique<LetVarNode>(
            off, l.var()->type->byteWidth(), std::move(init),
            buildNode(l.body(), ec, opt, stats, path + "/let"));
        break;
      }
      case CompKind::Native: {
        const auto& n = static_cast<const NativeComp&>(*c);
        auto spec = n.spec();
        std::vector<std::pair<TypePtr, EvalInto>> argFns;
        for (const auto& a : n.args())
            argFns.emplace_back(a->type(), ec.compileInto(a));
        NativeNode::Factory factory = [spec, argFns](Frame& f) {
            std::vector<Value> vals;
            vals.reserve(argFns.size());
            for (const auto& [ty, fn] : argFns) {
                Value v = Value::zeroOf(ty);
                fn(f, v.data());
                vals.push_back(std::move(v));
            }
            return spec->make(vals);
        };
        const CompType& ct = spec->ctype;
        node = std::make_unique<NativeNode>(
            std::move(factory), widthOf(ct.in), widthOf(ct.out),
            widthOf(ct.ctrl), ct.isComputer);
        break;
      }
      case CompKind::CallComp:
        panic("buildNode: unelaborated computation call");
    }

    // Normalize widths from the resolved stream signature.
    const CompType& ct = c->ctype();
    node->setInWidth(widthOf(ct.in));
    node->setOutWidth(widthOf(ct.out));
    if (ct.isComputer)
        node->setCtrlWidth(widthOf(ct.ctrl));

    if (opt.instrument && opt.metrics) {
        // A coalesced chain keeps the AST kind of the pipe that built
        // it, which is what the path already encodes.
        NodeMetrics& nm =
            opt.metrics->addNode(path, compKindName(c->kind()));
        nm.inWidth = node->inWidth();
        nm.outWidth = node->outWidth();
        node = std::make_unique<TracedNode>(std::move(node), &nm,
                                            opt.sampleShift);
    }
    return node;
}

bool
Pipeline::configureStepper()
{
    const bool durable = durableStore_ && ckpt_.enabled();
    stepper_.setInterval(restart_.enabled() || durable ? ckpt_.interval
                                                       : 0);
    return durable;
}

bool
Pipeline::restoreDurable(uint64_t& consumed, uint64_t& emitted)
{
    if (!durableStore_ || !CkptStore::validKey(durableKey_))
        return false;
    std::vector<uint8_t> payload;
    if (!durableStore_->load(durableKey_, payload))
        return false;
    configureStepper();
    try {
        // The next run() continues from the restored state.
        SnapshotInfo info = stepper_.seed(payload, {}, 0);
        consumed = info.consumed;
        emitted = info.emitted;
        return true;
    } catch (const StateFormatError& e) {
        // A snapshot the disk store validated but the tree rejects
        // (e.g. the program changed between runs): start fresh.
        ZIRIA_LOG(Warn, "ckpt: durable restore rejected (", e.what(),
                  "); starting fresh");
        root_->reset(frame_);
        return false;
    }
}

void
Pipeline::durableSave(const std::vector<uint8_t>& snap)
{
    if (!durableStore_)
        return;  // the default: the cadence snapshot stays in memory
    std::string err;
    if (durablePrepare_ && !durablePrepare_(&err)) {
        ZIRIA_LOG(Warn, "ckpt: durable save skipped (", err, ")");
        return;
    }
    if (!durableStore_->save(durableKey_, snap, &err))
        ZIRIA_LOG(Warn, "ckpt: durable save failed (", err, ")");
}

RunStats
Pipeline::run(InputSource& src, OutputSink& sink, uint64_t max_out)
{
    const bool durable = configureStepper();
    stepper_.begin();
    const Stepper& st = stepper_.stepper();
    RunIo io{src, sink, st, outWidth_};
    io.maxOut = max_out;
    io.inSpans = io.outSpans = spans_.get();
    StepOutcome oc = RestartSupervisor(restart_).run(
        [&] {
            metrics::Registry::global().counter("ziria.pipeline_runs").inc();
            StepOutcome o = stepper_.drive(io);
            if (spans_)
                spans_->flush();
            return o;
        },
        [&](const StageFailure&) {
            // The backoff is slept; resume from the last checkpoint (or
            // a frame boundary) against the live source.
            stepper_.heal();
            if (spans_)
                spans_->onRestart();
            src.rearm();
            sink.rearm();
        });
    if (durable)
        durableStore_->remove(durableKey_);  // clean completion
    RunStats rs;
    rs.consumed = st.consumed();
    rs.emitted = st.emitted();
    if (oc == StepOutcome::Halted) {
        rs.halted = true;
        rs.ctrl = st.ctrl();
    }
    rs.metrics = metrics_.get();
    return rs;
}

std::vector<uint8_t>
Pipeline::runBytes(const std::vector<uint8_t>& input, RunStats* stats)
{
    MemSource src(input, inWidth_);
    VecSink sink(outWidth_);
    RunStats st = run(src, sink);
    if (stats)
        *stats = st;
    return sink.data();
}

} // namespace ziria
