#include "zexec/faultpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "support/metrics.h"

namespace ziria {

namespace {

/** Sleep for @p ms, polling @p cancelled every slice; true if cancelled. */
bool
cancellableSleep(uint64_t ms, const std::atomic<bool>& cancelled)
{
    using clock = std::chrono::steady_clock;
    const auto end = clock::now() + std::chrono::milliseconds(ms);
    while (clock::now() < end) {
        if (cancelled.load(std::memory_order_relaxed))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return cancelled.load(std::memory_order_relaxed);
}

uint64_t
parseU64(const std::string& s, const std::string& whole)
{
    char* end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || end != s.c_str() + s.size())
        fatalf("bad fault spec '", whole, "': '", s,
               "' is not a non-negative integer");
    return v;
}

void
countInjection(const char* what)
{
    metrics::Registry::global()
        .counter(std::string("fault.injected.") + what)
        .inc();
}

/** Whether a Throw/Stall fault that has fired @p fired times may fire
 *  again: at most `count` times (0 = forever). */
bool
armed(const FaultSpec& spec, uint64_t fired)
{
    return spec.count == 0 || fired < spec.count;
}

/**
 * One shared firing rule for the tick-indexed faults (Throw/Stall):
 * fire when the @p run elements from clock @p at reach the tick, at
 * most `count` times.  The fired counter — not the clock — limits
 * re-firing, because a throw does NOT advance the clock: a restarted
 * run would otherwise meet the tick again and the fault would defeat
 * every restart budget.
 */
bool
fires(const FaultSpec& spec, uint64_t at, uint64_t run, uint64_t& fired)
{
    if (at + run <= spec.tick || !armed(spec, fired))
        return false;
    ++fired;
    return true;
}

} // namespace

FaultSpec
FaultSpec::parse(const std::string& s)
{
    const size_t at = s.find('@');
    if (at == std::string::npos)
        fatalf("bad fault spec '", s,
               "': expected KIND@TICK[:ARG[:ARG]] with KIND one of "
               "truncate|stall|throw|shortread");
    const std::string kind = s.substr(0, at);

    // Split "TICK[:ARG1[:ARG2]]" on colons.
    std::vector<std::string> args;
    std::string rest = s.substr(at + 1);
    size_t pos = 0;
    while (true) {
        const size_t colon = rest.find(':', pos);
        if (colon == std::string::npos) {
            args.push_back(rest.substr(pos));
            break;
        }
        args.push_back(rest.substr(pos, colon - pos));
        pos = colon + 1;
    }

    auto argCountAtMost = [&](size_t n) {
        if (args.size() > n)
            fatalf("bad fault spec '", s, "': '", kind, "' takes at most ",
                   n - 1, " ':' argument(s)");
    };

    FaultSpec spec;
    spec.tick = parseU64(args[0], s);
    if (kind == "truncate") {
        spec.kind = Kind::Truncate;
        argCountAtMost(1);
    } else if (kind == "stall") {
        spec.kind = Kind::Stall;
        argCountAtMost(3);  // stall@K:MS:COUNT
        if (args.size() > 1 && !args[1].empty())
            spec.stallMs = parseU64(args[1], s);
        else
            spec.stallMs = 1000;
        if (args.size() > 2)
            spec.count = parseU64(args[2], s);
    } else if (kind == "throw") {
        spec.kind = Kind::Throw;
        argCountAtMost(2);  // throw@K:COUNT
        if (args.size() > 1)
            spec.count = parseU64(args[1], s);
    } else if (kind == "shortread") {
        spec.kind = Kind::ShortRead;
        argCountAtMost(2);
        if (args.size() > 1)
            spec.seed = parseU64(args[1], s);
    } else {
        fatalf("bad fault spec '", s, "': unknown kind '", kind,
               "' (expected truncate|stall|throw|shortread)");
    }
    return spec;
}

std::string
FaultSpec::show() const
{
    switch (kind) {
      case Kind::None: return "none";
      case Kind::Truncate: return "truncate@" + std::to_string(tick);
      case Kind::Stall: {
        std::string s = "stall@" + std::to_string(tick) + ":" +
                        std::to_string(stallMs);
        if (count != 1)
            s += ":" + std::to_string(count);
        return s;
      }
      case Kind::Throw: {
        std::string s = "throw@" + std::to_string(tick);
        if (count != 1)
            s += ":" + std::to_string(count);
        return s;
      }
      case Kind::ShortRead:
        return "shortread@" + std::to_string(tick) + ":" +
               std::to_string(seed);
    }
    return "none";
}

const uint8_t*
FaultySource::window(size_t* n)
{
    if (cancelled_.load(std::memory_order_relaxed))
        return nullptr;
    switch (spec_.kind) {
      case FaultSpec::Kind::Truncate:
        if (n_ >= spec_.tick) {
            countInjection("truncate");
            return nullptr;
        }
        break;
      case FaultSpec::Kind::Throw:
        if (fires(spec_, n_, 1, fired_)) {
            countInjection("throw");
            throw InjectedFault("injected fault: throw at source tick " +
                                std::to_string(n_));
        }
        break;
      case FaultSpec::Kind::Stall:
        // Once per element: a window handed out again at the same clock
        // does not stall again, unless a cancel cut the stall short.
        if (n_ != stalledAt_ && fires(spec_, n_, 1, fired_)) {
            countInjection("stall");
            if (cancellableSleep(spec_.stallMs, cancelled_))
                return nullptr;
            stalledAt_ = n_;
        }
        break;
      case FaultSpec::Kind::ShortRead:
        if (n_ >= spec_.tick)
            return shortRead(n);
        break;
      case FaultSpec::Kind::None:
        return inner_.window(n);
    }
    const uint8_t* p = inner_.window(n);
    // End the window where the fault can next fire: at the tick, and
    // past it one element at a time while a stall has fires left.
    const bool oneShot = spec_.kind == FaultSpec::Kind::Throw ||
                         spec_.kind == FaultSpec::Kind::Stall;
    if (p && (!oneShot || armed(spec_, fired_)))
        *n = static_cast<size_t>(std::min<uint64_t>(
            *n, n_ < spec_.tick ? spec_.tick - n_ : 1));
    return p;
}

/**
 * ShortRead past the tick: every inner element takes one draw, which
 * drops it with probability 1/8.  A window is the run of kept elements
 * at the front of the inner one; a drawn drop waits for the next
 * window, and kept elements drawn but not committed stay drawn.
 */
const uint8_t*
FaultySource::shortRead(size_t* n)
{
    auto drop = [this] { return (rng_.next() & 7) == 0; };
    for (;;) {
        size_t m = 0;
        const uint8_t* p = inner_.window(&m);
        if (!p)
            return nullptr;
        if (takes_ == 0) {
            const bool dropped = dropNext_ || drop();
            dropNext_ = false;
            if (dropped) {
                countInjection("shortread");
                inner_.commit(1);
                continue;
            }
            takes_ = 1;
        }
        while (!dropNext_ && takes_ < m) {
            if (drop())
                dropNext_ = true;
            else
                ++takes_;
        }
        *n = std::min(takes_, m);
        return p;
    }
}

void
FaultySource::commit(size_t n)
{
    inner_.commit(n);
    n_ += n;
    takes_ -= std::min(takes_, n);
}

void
FaultySource::cancel()
{
    cancelled_.store(true, std::memory_order_relaxed);
    inner_.cancel();
}

void
FaultySource::rearm()
{
    cancelled_.store(false, std::memory_order_relaxed);
    inner_.rearm();
}

void
FaultySink::putRun(const uint8_t* elems, size_t n, size_t width)
{
    switch (spec_.kind) {
      case FaultSpec::Kind::Truncate:
      case FaultSpec::Kind::ShortRead: {
        const size_t keep = n_ < spec_.tick
            ? static_cast<size_t>(std::min<uint64_t>(n, spec_.tick - n_))
            : 0;
        if (keep)
            inner_.putRun(elems, keep, width);
        if (keep < n) {
            if (dropped_ == 0)
                countInjection("short_write");
            dropped_ += n - keep;
        }
        n_ += n;
        return;
      }
      case FaultSpec::Kind::Throw:
        if (fires(spec_, n_, n, fired_)) {
            countInjection("throw");
            throw InjectedFault("injected fault: throw at sink tick " +
                                std::to_string(std::max(n_, spec_.tick)));
        }
        break;
      case FaultSpec::Kind::Stall:
        // A stall delays the run, never drops it: the pipeline counts a
        // returned putRun() as delivered, so a watchdog cancel only cuts
        // the sleep short.
        if (fires(spec_, n_, n, fired_)) {
            countInjection("stall");
            cancellableSleep(spec_.stallMs, cancelled_);
        }
        break;
      case FaultSpec::Kind::None:
        break;
    }
    inner_.putRun(elems, n, width);
    n_ += n;
}

void
FaultySink::cancel()
{
    cancelled_.store(true, std::memory_order_relaxed);
    inner_.cancel();
}

void
FaultySink::rearm()
{
    cancelled_.store(false, std::memory_order_relaxed);
    inner_.rearm();
}

} // namespace ziria
