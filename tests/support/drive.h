/**
 * @file
 * Hand-driving a compiled Pipeline element by element, for the snapshot
 * suites: run to a park or to the k-th output, snapshot there, restore
 * into another instance (or backend) and run the rest.
 */
#ifndef ZIRIA_TESTS_SUPPORT_DRIVE_H
#define ZIRIA_TESTS_SUPPORT_DRIVE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "zexec/pipeline.h"
#include "zexec/snapshot.h"

namespace ziria {
namespace testsupport {

struct DriveResult
{
    std::vector<uint8_t> out;
    size_t consumed = 0;  ///< input elements supplied
    bool done = false;
};

/**
 * Drive @p p by hand from @p bytes, starting @p startElem elements in,
 * supplying at most @p maxElems elements.  Stops parked on NeedInput
 * (the quiescent point snapshots require), at end of input, or at
 * Done.  With @p init false the tree is NOT start()ed — how the
 * round-trip tests prove restoreSnapshot() alone rebuilt the state.
 */
inline DriveResult
driveUpTo(Pipeline& p, const std::vector<uint8_t>& bytes,
          size_t startElem, size_t maxElems, bool init)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    if (init)
        root.start(f);
    const size_t w = p.inWidth();
    size_t pos = startElem * w;
    DriveResult r;
    for (;;) {
        Status s = root.advance(f);
        if (s == Status::Yield) {
            r.out.insert(r.out.end(), root.out(),
                         root.out() + p.outWidth());
        } else if (s == Status::NeedInput) {
            if (r.consumed >= maxElems)
                break;  // parked — quiescent
            if (pos + w > bytes.size())
                break;  // input exhausted
            root.supply(f, bytes.data() + pos);
            pos += w;
            ++r.consumed;
        } else {
            r.done = true;
            break;
        }
    }
    return r;
}

/**
 * start() @p p and drive it from @p bytes until it has yielded @p k
 * elements, stopping right after the k-th (possibly mid-burst, with
 * later outputs still buffered inside the region).  `done` is set when
 * it stops short: input exhausted, or the program finished.
 */
inline DriveResult
driveYields(Pipeline& p, const std::vector<uint8_t>& bytes, size_t k)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    root.start(f);
    const size_t w = p.inWidth();
    DriveResult r;
    while (r.out.size() < k * p.outWidth()) {
        Status s = root.advance(f);
        if (s == Status::Yield) {
            r.out.insert(r.out.end(), root.out(),
                         root.out() + p.outWidth());
            continue;
        }
        if (s != Status::NeedInput || (r.consumed + 1) * w > bytes.size()) {
            r.done = true;
            break;
        }
        root.supply(f, bytes.data() + r.consumed * w);
        ++r.consumed;
    }
    return r;
}

/** Take the next element of @p src as a window of one: the element, or
 *  null at the end (valid until the next window() call). */
inline const uint8_t*
takeOne(InputSource& src)
{
    size_t n = 0;
    const uint8_t* p = src.window(&n);
    if (p)
        src.commit(1);
    return p;
}

/** The frame range a Pipeline's snapshots carry: all of it. */
inline FrameRange
cells(Pipeline& p)
{
    return FrameRange::whole(p.frame());
}

} // namespace testsupport
} // namespace ziria

#endif // ZIRIA_TESTS_SUPPORT_DRIVE_H
