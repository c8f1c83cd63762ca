/**
 * @file
 * Micro-benchmarks of the execution substrate (google-benchmark): the
 * per-element cost of the closure VM, LUT application, map dispatch and
 * the tick/proc node machinery.  These are the constants behind the
 * Figure 4/5 results.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dsp/conv_code.h"
#include "dsp/fft.h"
#include "dsp/viterbi.h"
#include "wifi/blocks_tx.h"
#include "wifi/native_blocks.h"
#include "wifi/params.h"
#include "zexpr/lut.h"

using namespace ziria;
using namespace zbench;
using namespace zb;

namespace {

void
BM_ExprAddChain(benchmark::State& state)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    VarRef x = freshVar("x", Type::int32());
    ExprPtr e = var(x);
    for (int i = 0; i < state.range(0); ++i)
        e = e + 1;
    EvalInt f = ec.compileInt(e);
    Frame fr(layout.frameSize());
    for (auto _ : state)
        benchmark::DoNotOptimize(f(fr));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExprAddChain)->Arg(1)->Arg(8)->Arg(64);

void
BM_ScramblerElement(benchmark::State& state)
{
    auto p = compilePipeline(wifi::scramblerBlock(),
                             CompilerOptions::forLevel(OptLevel::None));
    auto input = randomBits(4096, 2);
    for (auto _ : state) {
        CyclicSource src(input, 1, 4096);
        NullSink sink;
        p->run(src, sink);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ScramblerElement);

void
BM_ScramblerElementOptimized(benchmark::State& state)
{
    auto p = compilePipeline(wifi::scramblerBlock(),
                             CompilerOptions::forLevel(OptLevel::All));
    auto input = randomBits(4096, 2);
    size_t w = std::max<size_t>(p->inWidth(), 1);
    for (auto _ : state) {
        CyclicSource src(input, w, 4096 / w);
        NullSink sink;
        p->run(src, sink);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ScramblerElementOptimized);

void
BM_MapDispatch(benchmark::State& state)
{
    VarRef x = freshVar("x", Type::int32());
    FunRef f = fun("id1", {x}, {}, var(x) + 1);
    auto p = compilePipeline(mapc(f),
                             CompilerOptions::forLevel(OptLevel::None));
    std::vector<uint8_t> input(4096 * 4, 7);
    for (auto _ : state) {
        CyclicSource src(input, 4, 4096);
        NullSink sink;
        p->run(src, sink);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_MapDispatch);

void
BM_PipeDepth(benchmark::State& state)
{
    CompPtr c = nullptr;
    for (int i = 0; i < state.range(0); ++i) {
        VarRef x = freshVar("x", Type::int32());
        CompPtr t = repeatc(seqc({bindc(x, take(Type::int32())),
                                  just(emit(var(x)))}));
        c = c ? pipe(std::move(c), std::move(t)) : std::move(t);
    }
    auto p = compilePipeline(c, CompilerOptions::forLevel(OptLevel::None));
    std::vector<uint8_t> input(1024 * 4, 3);
    for (auto _ : state) {
        CyclicSource src(input, 4, 1024);
        NullSink sink;
        p->run(src, sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PipeDepth)->Arg(1)->Arg(4)->Arg(16);

void
BM_FftSymbol(benchmark::State& state)
{
    dsp::Fft plan(64);
    Rng rng(3);
    std::vector<Complex16> in(64), out(64);
    for (auto& v : in) {
        v.re = static_cast<int16_t>(rng.below(4000)) - 2000;
        v.im = static_cast<int16_t>(rng.below(4000)) - 2000;
    }
    for (auto _ : state) {
        plan.forward(in.data(), out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FftSymbol);

void
BM_ViterbiPair(benchmark::State& state)
{
    // One decoder step on a pre-generated rate-1/2 lattice with 1/5
    // erasures (the punctured-rate shape), so only the decoder is timed.
    constexpr size_t kPairs = 1 << 16;
    Rng rng(4);
    std::vector<uint8_t> lattice(2 * kPairs);
    for (auto& v : lattice)
        v = rng.below(5) == 0 ? 2 : rng.bit();
    dsp::ViterbiDecoder dec;
    std::vector<uint8_t> out;
    out.reserve(1 << 17);
    size_t i = 0;
    for (auto _ : state) {
        dec.inputPair(lattice[i], lattice[i + 1], out);
        i = (i + 2) % lattice.size();
        if (out.size() > 60000)
            out.clear();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ViterbiPair);

/** Counts emitted elements and keeps the last one live. */
class CountingEmitter : public Emitter
{
  public:
    void
    emit(const uint8_t* elem) override
    {
        last = *elem;
        ++count;
    }

    long count = 0;
    uint8_t last = 0;
};

void
BM_ViterbiKernelFeed(benchmark::State& state)
{
    // A 1500-byte rate-3/4 packet's coded bits fed one per consume()
    // through the Viterbi native block: the decoder plus its kernel
    // wrapper (depuncturing, pair assembly, emission).  Items are
    // decoded bits; subtract BM_ViterbiPair for the wrapper alone.
    constexpr long kBits = 1500 * 8;
    Rng rng(5);
    std::vector<uint8_t> data(kBits);
    for (auto& b : data)
        b = rng.bit();
    dsp::ConvEncoder enc(dsp::CodingRate::ThreeQuarters);
    const std::vector<uint8_t> coded = enc.encode(data);
    auto kernel = wifi::specViterbi()->make(
        {Value::i32(wifi::codCode(dsp::CodingRate::ThreeQuarters)),
         Value::i32(static_cast<int32_t>(kBits))});
    CountingEmitter em;
    for (auto _ : state) {
        kernel->reset();
        for (const uint8_t& b : coded)
            kernel->consume(&b, em);
    }
    if (em.count != kBits * static_cast<long>(state.iterations()))
        state.SkipWithError("Viterbi kernel lost decoded bits");
    benchmark::DoNotOptimize(em.last);
    state.SetItemsProcessed(state.iterations() * kBits);
}
BENCHMARK(BM_ViterbiKernelFeed);

void
BM_LutApply(benchmark::State& state)
{
    // The modulator shape: a 12-bit key (arr[12] bit) selecting an
    // arr[12] complex16 return value, looked up with random keys.
    constexpr int kLen = 12;
    auto plan = planLut({LutSlot{0, Type::array(Type::bit(), kLen), 0}},
                        {}, Type::array(Type::complex16(), kLen));
    EvalInto ret = [](Frame& f, uint8_t* dst) {
        for (int i = 0; i < kLen; ++i) {
            Complex16 c{static_cast<int16_t>(*f.at(i) ? 181 : -181),
                        static_cast<int16_t>(i)};
            std::memcpy(dst + 4 * i, &c, 4);
        }
    };
    CompiledLut lut(std::move(*plan), [](Frame&) {}, ret, kLen);
    Rng rng(6);
    std::vector<uint8_t> keys(4096 * kLen);
    for (auto& b : keys)
        b = rng.bit();
    Frame f(kLen);
    uint8_t out[4 * kLen];
    size_t k = 0;
    for (auto _ : state) {
        std::memcpy(f.at(0), keys.data() + k * kLen, kLen);
        k = (k + 1) % 4096;
        lut.apply(f, out);
        benchmark::DoNotOptimize(out);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LutApply);

} // namespace

BENCHMARK_MAIN();
