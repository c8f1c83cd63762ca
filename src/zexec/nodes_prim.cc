#include "zexec/nodes.h"

#include "support/panic.h"

namespace ziria {

// ---------------------------------------------------------------- Take

TakeNode::TakeNode(size_t width)
{
    inWidth_ = width;
    ctrlWidth_ = width;
    ctrlBuf_.resize(width);
}

void
TakeNode::start(Frame&)
{
    pending_ = false;
}

Status
TakeNode::advance(Frame&)
{
    return pending_ ? Status::Done : Status::NeedInput;
}

void
TakeNode::supply(Frame&, const uint8_t* in)
{
    std::memcpy(ctrlBuf_.data(), in, inWidth_);
    pending_ = true;
}

// ------------------------------------------------------------ TakeMany

TakeManyNode::TakeManyNode(size_t elem_width, size_t n) : n_(n)
{
    inWidth_ = elem_width;
    ctrlWidth_ = elem_width * n;
    ctrlBuf_.resize(ctrlWidth_);
}

void
TakeManyNode::start(Frame&)
{
    have_ = 0;
}

Status
TakeManyNode::advance(Frame&)
{
    return have_ >= n_ ? Status::Done : Status::NeedInput;
}

void
TakeManyNode::supply(Frame&, const uint8_t* in)
{
    ZIRIA_ASSERT(have_ < n_);
    std::memcpy(ctrlBuf_.data() + have_ * inWidth_, in, inWidth_);
    ++have_;
}

// ---------------------------------------------------------------- Emit

EmitNode::EmitNode(EvalInto expr, size_t width) : expr_(std::move(expr))
{
    outWidth_ = width;
    outBuf_.resize(width);
}

void
EmitNode::start(Frame&)
{
    emitted_ = false;
}

Status
EmitNode::advance(Frame& f)
{
    if (emitted_)
        return Status::Done;
    expr_(f, outBuf_.data());
    emitted_ = true;
    return Status::Yield;
}

void
EmitNode::supply(Frame&, const uint8_t*)
{
    panic("EmitNode::supply: emit never requests input");
}

// --------------------------------------------------------------- Emits

EmitsNode::EmitsNode(EvalInto arr_expr, size_t elem_width, size_t len)
    : arrExpr_(std::move(arr_expr)), len_(len)
{
    outWidth_ = elem_width;
    arrBuf_.resize(elem_width * len);
}

void
EmitsNode::start(Frame&)
{
    next_ = 0;
    evaluated_ = false;
}

Status
EmitsNode::advance(Frame& f)
{
    if (!evaluated_) {
        arrExpr_(f, arrBuf_.data());
        evaluated_ = true;
    }
    if (next_ >= len_)
        return Status::Done;
    ++next_;
    return Status::Yield;
}

void
EmitsNode::supply(Frame&, const uint8_t*)
{
    panic("EmitsNode::supply: emits never requests input");
}

// -------------------------------------------------------------- Return

ReturnNode::ReturnNode(Action body, EvalInto ret, size_t ctrl_width)
    : body_(std::move(body)), ret_(std::move(ret))
{
    ctrlWidth_ = ctrl_width;
    ctrlBuf_.resize(ctrl_width);
}

void
ReturnNode::start(Frame&)
{
}

Status
ReturnNode::advance(Frame& f)
{
    if (body_)
        body_(f);
    if (ret_)
        ret_(f, ctrlBuf_.data());
    return Status::Done;
}

void
ReturnNode::supply(Frame&, const uint8_t*)
{
    panic("ReturnNode::supply: do/return never requests input");
}

// ----------------------------------------------------------------- Map

MapNode::MapNode(CompiledKernel kernel, std::shared_ptr<CompiledLut> lut,
                 size_t in_width, size_t out_width)
{
    stage_.kernel = std::move(kernel);
    stage_.lut = std::move(lut);
    stage_.inW = in_width;
    stage_.outW = out_width;
    inWidth_ = in_width;
    outWidth_ = out_width;
    outBuf_.resize(out_width);
    ZIRIA_ASSERT(stage_.kernel.paramOffsets.size() == 1,
                 "map kernel must be unary");
    ZIRIA_ASSERT(stage_.kernel.paramWidths[0] == in_width);
}

void
MapNode::start(Frame&)
{
    pending_ = false;
}

Status
MapNode::advance(Frame& f)
{
    if (!pending_)
        return Status::NeedInput;
    if (stage_.lut) {
        stage_.lut->apply(f, outBuf_.data());
    } else {
        stage_.kernel.body(f);
        if (stage_.kernel.retInto)
            stage_.kernel.retInto(f, outBuf_.data());
    }
    pending_ = false;
    return Status::Yield;
}

void
MapNode::supply(Frame& f, const uint8_t* in)
{
    std::memcpy(f.at(stage_.kernel.paramOffsets[0]), in, inWidth_);
    pending_ = true;
}

// ------------------------------------------------------------ MapChain

MapChainNode::MapChainNode(std::vector<MapStage> stages)
    : stages_(std::move(stages))
{
    ZIRIA_ASSERT(stages_.size() >= 2);
    inWidth_ = stages_.front().inW;
    outWidth_ = stages_.back().outW;
    outBuf_.resize(outWidth_);
    for (size_t i = 0; i + 1 < stages_.size(); ++i)
        ZIRIA_ASSERT(stages_[i].outW == stages_[i + 1].inW,
                     "map chain stage width mismatch");
}

void
MapChainNode::start(Frame&)
{
    pending_ = false;
}

Status
MapChainNode::advance(Frame& f)
{
    if (!pending_)
        return Status::NeedInput;
    // Run stage i and deliver its output straight into stage i+1's
    // parameter slot; the last stage writes the node's output buffer.
    for (size_t i = 0; i < stages_.size(); ++i) {
        MapStage& st = stages_[i];
        uint8_t* dst = i + 1 < stages_.size()
            ? f.at(stages_[i + 1].kernel.paramOffsets[0])
            : outBuf_.data();
        if (st.lut) {
            st.lut->apply(f, dst);
        } else {
            st.kernel.body(f);
            if (st.kernel.retInto)
                st.kernel.retInto(f, dst);
        }
    }
    pending_ = false;
    return Status::Yield;
}

void
MapChainNode::supply(Frame& f, const uint8_t* in)
{
    std::memcpy(f.at(stages_.front().kernel.paramOffsets[0]), in,
                inWidth_);
    pending_ = true;
}

// -------------------------------------------------------------- Filter

FilterNode::FilterNode(CompiledKernel pred, size_t width)
    : pred_(std::move(pred))
{
    inWidth_ = width;
    outWidth_ = width;
    outBuf_.resize(width);
    ZIRIA_ASSERT(pred_.paramOffsets.size() == 1);
}

void
FilterNode::start(Frame&)
{
    pending_ = false;
}

Status
FilterNode::advance(Frame& f)
{
    if (!pending_)
        return Status::NeedInput;
    pending_ = false;
    uint8_t keep = 0;
    pred_.body(f);
    pred_.retInto(f, &keep);
    if (!keep)
        return Status::NeedInput;
    std::memcpy(outBuf_.data(), f.at(pred_.paramOffsets[0]), inWidth_);
    return Status::Yield;
}

void
FilterNode::supply(Frame& f, const uint8_t* in)
{
    std::memcpy(f.at(pred_.paramOffsets[0]), in, inWidth_);
    pending_ = true;
}

// -------------------------------------------------------------- Native

NativeNode::NativeNode(Factory factory, size_t in_width, size_t out_width,
                       size_t ctrl_width, bool is_computer)
    : factory_(std::move(factory)), isComputer_(is_computer)
{
    inWidth_ = in_width;
    outWidth_ = out_width;
    ctrlWidth_ = ctrl_width;
    outBuf_.resize(out_width);
}

void
NativeNode::start(Frame& f)
{
    kernel_ = factory_(f);
    ring_.clear();
    ringHead_ = 0;
    finished_ = false;
}

Status
NativeNode::advance(Frame&)
{
    if (ringHead_ < ring_.size()) {
        std::memcpy(outBuf_.data(), ring_.data() + ringHead_, outWidth_);
        ringHead_ += outWidth_;
        if (ringHead_ >= ring_.size()) {
            ring_.clear();
            ringHead_ = 0;
        }
        return Status::Yield;
    }
    if (finished_)
        return Status::Done;
    return Status::NeedInput;
}

void
NativeNode::supply(Frame&, const uint8_t* in)
{
    RingEmitter em(ring_, outWidth_);
    if (kernel_->consume(in, em)) {
        ZIRIA_ASSERT(isComputer_, "transformer kernel claimed completion");
        ZIRIA_ASSERT(kernel_->ctrl().size() == ctrlWidth_,
                     "native control value width mismatch");
        finished_ = true;
    }
}

// -------------------------------------------------- snapshot / restore
//
// Each node serializes its members AND the frame cells it owns (kernel
// parameter slots), so a per-stage snapshot is self-contained without a
// whole-frame image (docs/ROBUSTNESS.md, "Checkpointing & migration").

void
TakeNode::snapshot(const Frame&, StateWriter& w) const
{
    w.u8(pending_ ? 1 : 0);
    w.bytes(ctrlBuf_.data(), ctrlBuf_.size());
}

void
TakeNode::restore(Frame&, StateReader& r)
{
    pending_ = r.u8() != 0;
    r.bytes(ctrlBuf_.data(), ctrlBuf_.size());
}

void
TakeManyNode::snapshot(const Frame&, StateWriter& w) const
{
    w.u64(have_);
    w.bytes(ctrlBuf_.data(), ctrlBuf_.size());
}

void
TakeManyNode::restore(Frame&, StateReader& r)
{
    // Untrusted on the zserve migration path: supply() writes at
    // have_ * width into ctrlBuf_, so the cursor must stay in range.
    size_t have = static_cast<size_t>(r.u64());
    if (have > n_)
        throw StateFormatError("takes element count out of range");
    have_ = have;
    r.bytes(ctrlBuf_.data(), ctrlBuf_.size());
}

void
EmitNode::snapshot(const Frame&, StateWriter& w) const
{
    w.u8(emitted_ ? 1 : 0);
    w.bytes(outBuf_.data(), outBuf_.size());
}

void
EmitNode::restore(Frame&, StateReader& r)
{
    emitted_ = r.u8() != 0;
    r.bytes(outBuf_.data(), outBuf_.size());
}

void
EmitsNode::snapshot(const Frame&, StateWriter& w) const
{
    w.u8(evaluated_ ? 1 : 0);
    w.u64(next_);
    w.bytes(arrBuf_.data(), arrBuf_.size());
}

void
EmitsNode::restore(Frame&, StateReader& r)
{
    evaluated_ = r.u8() != 0;
    // out() reads arrBuf_ at (next_ - 1) * width; a cursor past len_
    // from an untrusted stream would read past the array buffer.
    size_t next = static_cast<size_t>(r.u64());
    if (next > len_)
        throw StateFormatError("emits cursor out of range");
    next_ = next;
    r.bytes(arrBuf_.data(), arrBuf_.size());
}

void
MapNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u8(pending_ ? 1 : 0);
    w.bytes(outBuf_.data(), outBuf_.size());
    w.bytes(f.at(stage_.kernel.paramOffsets[0]), stage_.inW);
}

void
MapNode::restore(Frame& f, StateReader& r)
{
    pending_ = r.u8() != 0;
    r.bytes(outBuf_.data(), outBuf_.size());
    r.bytes(f.at(stage_.kernel.paramOffsets[0]), stage_.inW);
}

void
MapChainNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u8(pending_ ? 1 : 0);
    w.bytes(outBuf_.data(), outBuf_.size());
    for (const MapStage& st : stages_)
        w.bytes(f.at(st.kernel.paramOffsets[0]), st.inW);
}

void
MapChainNode::restore(Frame& f, StateReader& r)
{
    pending_ = r.u8() != 0;
    r.bytes(outBuf_.data(), outBuf_.size());
    for (const MapStage& st : stages_)
        r.bytes(f.at(st.kernel.paramOffsets[0]), st.inW);
}

void
FilterNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u8(pending_ ? 1 : 0);
    w.bytes(outBuf_.data(), outBuf_.size());
    w.bytes(f.at(pred_.paramOffsets[0]), inWidth_);
}

void
FilterNode::restore(Frame& f, StateReader& r)
{
    pending_ = r.u8() != 0;
    r.bytes(outBuf_.data(), outBuf_.size());
    r.bytes(f.at(pred_.paramOffsets[0]), inWidth_);
}

void
NativeNode::snapshot(const Frame&, StateWriter& w) const
{
    w.u8(finished_ ? 1 : 0);
    w.u64(ringHead_);
    w.blob(ring_.data(), ring_.size());
    w.bytes(outBuf_.data(), outBuf_.size());
    // A node inside a not-yet-reached seq arm (or unchosen if branch)
    // has no kernel yet; record its absence so restore leaves the node
    // unstarted too — the parent will start() it when control arrives.
    w.u8(kernel_ ? 1 : 0);
    if (kernel_)
        kernel_->snapshot(w);
}

void
NativeNode::restore(Frame& f, StateReader& r)
{
    finished_ = r.u8() != 0;
    size_t head = static_cast<size_t>(r.u64());
    std::vector<uint8_t> ring = r.blob();
    // Untrusted on the zserve migration path: advance() memcpys
    // outWidth_ bytes at ringHead_, so the ring and cursor must stay
    // element-aligned and in bounds (and empty when the node emits
    // nothing — a non-advancing cursor would otherwise spin forever).
    if (outWidth_ == 0
            ? (head != 0 || !ring.empty())
            : (ring.size() % outWidth_ != 0 || head % outWidth_ != 0 ||
               head > ring.size()))
        throw StateFormatError("native output ring out of bounds");
    ringHead_ = head;
    ring_ = std::move(ring);
    r.bytes(outBuf_.data(), outBuf_.size());
    if (r.u8() != 0) {
        // Re-run the factory so kernel arguments re-read their (already
        // restored) seq binders, then patch the kernel's own state in.
        kernel_ = factory_(f);
        kernel_->restore(r);
        // A finished computer's ctrl() hands kernel bytes to the
        // parent, which copies ctrlWidth_ of them.
        if (finished_ && kernel_->ctrl().size() != ctrlWidth_)
            throw StateFormatError("native control value width mismatch");
    } else {
        if (finished_)
            throw StateFormatError("finished native node without kernel");
        kernel_.reset();
    }
}

} // namespace ziria
