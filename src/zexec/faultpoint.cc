#include "zexec/faultpoint.h"

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

/**
 * One shared firing rule for the tick-indexed one-shot faults
 * (Throw/Stall): fire once the clock reaches the tick, at most `count`
 * times (0 = forever).  The fired counter — not the clock — limits
 * re-firing, because a throwing next() does NOT advance the clock: a
 * restarted run would otherwise meet `n_ == tick` again and the fault
 * would defeat every restart budget.
 */
bool
FaultySource::shouldFire()
{
    if (n_ < spec_.tick)
        return false;
    if (spec_.count != 0 && fired_ >= spec_.count)
        return false;
    ++fired_;
    return true;
}

const uint8_t*
FaultySource::next()
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
        if (shouldFire()) {
            countInjection("throw");
            throw InjectedFault("injected fault: throw at source tick " +
                                std::to_string(n_));
        }
        break;
      case FaultSpec::Kind::Stall:
        if (shouldFire()) {
            countInjection("stall");
            if (cancellableSleep(spec_.stallMs, cancelled_))
                return nullptr;
        }
        break;
      case FaultSpec::Kind::ShortRead:
        if (n_ >= spec_.tick) {
            // Drop (skip) inner elements with probability 1/8 each.
            while ((rng_.next() & 7) == 0) {
                countInjection("shortread");
                if (!inner_.next())
                    return nullptr;
            }
        }
        break;
      case FaultSpec::Kind::None:
        break;
    }
    const uint8_t* p = inner_.next();
    if (p)
        ++n_;
    return p;
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

bool
FaultySink::shouldFire()
{
    // Same rule as FaultySource::shouldFire(); see the comment there.
    if (n_ < spec_.tick)
        return false;
    if (spec_.count != 0 && fired_ >= spec_.count)
        return false;
    ++fired_;
    return true;
}

void
FaultySink::put(const uint8_t* elem)
{
    switch (spec_.kind) {
      case FaultSpec::Kind::Truncate:
      case FaultSpec::Kind::ShortRead:
        if (n_ >= spec_.tick) {
            if (dropped_ == 0)
                countInjection("short_write");
            ++n_;
            ++dropped_;
            return;
        }
        break;
      case FaultSpec::Kind::Throw:
        if (shouldFire()) {
            countInjection("throw");
            throw InjectedFault("injected fault: throw at sink tick " +
                                std::to_string(n_));
        }
        break;
      case FaultSpec::Kind::Stall:
        // A stall delays the element, never drops it: the pipeline
        // counts a returned put() as delivered, so a watchdog cancel
        // only cuts the sleep short.
        if (shouldFire()) {
            countInjection("stall");
            cancellableSleep(spec_.stallMs, cancelled_);
        }
        break;
      case FaultSpec::Kind::None:
        break;
    }
    inner_.put(elem);
    ++n_;
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
