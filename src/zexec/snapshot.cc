#include "zexec/snapshot.h"

#include <cstring>

#include "support/metrics.h"

namespace ziria {

std::vector<uint8_t>
takeSnapshot(const ExecNode& root, const Frame& f, uint64_t consumed,
             uint64_t emitted)
{
    StateWriter w;
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotVersion);
    w.u64(consumed);
    w.u64(emitted);
    w.blob(f.size() ? f.at(0) : nullptr, f.size());
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
restoreSnapshot(ExecNode& root, Frame& f, const uint8_t* data,
                size_t size)
{
    StateReader r(data, size);
    SnapshotInfo info = readSnapshotHeader(r);
    std::vector<uint8_t> frameImg = r.blob();
    if (frameImg.size() != f.size())
        throw StateFormatError("frame size mismatch (checkpoint from a "
                               "different program?)");

    // reset() first so every child is started and restore() only has to
    // patch state; the frame image then overwrites what reset clobbered;
    // the node stream last, so NativeNode factories see restored binders.
    root.reset(f);
    if (f.size())
        std::memcpy(f.at(0), frameImg.data(), frameImg.size());
    root.restore(f, r);
    metrics::Registry::global().counter("ziria.ckpt.restores").inc();
    return info;
}

} // namespace ziria
