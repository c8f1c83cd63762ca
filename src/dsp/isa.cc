#include "dsp/isa.h"

#include "support/metrics.h"
#include "support/panic.h"

namespace ziria {
namespace dsp {

namespace {

void
publish(Isa isa)
{
    metrics::Registry::global().gauge("dsp.isa.avx2").set(
        isa == Isa::Avx2 ? 1.0 : 0.0);
}

} // namespace

const char*
isaName(Isa isa)
{
    return isa == Isa::Avx2 ? "avx2" : "base";
}

bool
isaSupported(Isa isa)
{
    if (isa == Isa::Base)
        return true;
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

namespace detail {

std::atomic<uint8_t> activeIsa{kUnresolved};

Isa
resolveIsa()
{
    const Isa isa = isaSupported(Isa::Avx2) ? Isa::Avx2 : Isa::Base;
    publish(isa);
    activeIsa.store(static_cast<uint8_t>(isa), std::memory_order_relaxed);
    return isa;
}

IsaPin::IsaPin(Isa isa)
    : prev_(activeIsa.load(std::memory_order_relaxed))
{
    ZIRIA_ASSERT(isaSupported(isa), "pinned DSP path not supported here");
    activeIsa.store(static_cast<uint8_t>(isa), std::memory_order_relaxed);
    publish(isa);
}

IsaPin::~IsaPin()
{
    activeIsa.store(prev_, std::memory_order_relaxed);
    if (prev_ != kUnresolved)
        publish(static_cast<Isa>(prev_));
}

} // namespace detail

} // namespace dsp
} // namespace ziria
