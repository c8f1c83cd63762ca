#include "zexec/snapshot.h"

#include <cstring>

#include "support/metrics.h"

namespace ziria {

std::vector<uint8_t>
takeSnapshot(const ExecNode& root, const Frame& f, FrameRange r,
             uint64_t consumed, uint64_t emitted)
{
    const size_t n = r.end - r.begin;
    StateWriter w;
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotVersion);
    w.u64(consumed);
    w.u64(emitted);
    w.blob(n ? f.at(r.begin) : nullptr, n);
    root.snapshot(f, w);
    metrics::Registry::global().counter("ziria.ckpt.snapshots").inc();
    return w.take();
}

SnapshotInfo
readSnapshotHeader(StateReader& r)
{
    if (r.u32() != kSnapshotMagic)
        throw StateFormatError("bad checkpoint magic");
    uint32_t ver = r.u32();
    if (ver != kSnapshotVersion)
        throw StateFormatError("unsupported checkpoint version " +
                               std::to_string(ver));
    SnapshotInfo info;
    info.consumed = r.u64();
    info.emitted = r.u64();
    return info;
}

SnapshotInfo
restoreSnapshot(ExecNode& root, Frame& f, FrameRange r,
                const uint8_t* data, size_t size)
{
    StateReader in(data, size);
    SnapshotInfo info = readSnapshotHeader(in);
    std::vector<uint8_t> frameImg = in.blob();
    if (frameImg.size() != r.end - r.begin)
        throw StateFormatError("frame size mismatch (checkpoint from a "
                               "different program?)");

    // reset() first so every child is started and restore() only has to
    // patch state; the frame image then overwrites what reset clobbered;
    // the node stream last, so NativeNode factories see restored binders.
    root.reset(f);
    if (!frameImg.empty())
        std::memcpy(f.at(r.begin), frameImg.data(), frameImg.size());
    root.restore(f, in);
    if (!in.atEnd())
        throw StateFormatError("trailing bytes after the node state "
                               "(checkpoint from a different program?)");
    metrics::Registry::global().counter("ziria.ckpt.restores").inc();
    return info;
}

} // namespace ziria
