/**
 * @file
 * Unit + property tests for the DSP substrate: FFT/IFFT, the K=7
 * convolutional code with puncturing, the Viterbi decoder, CRCs,
 * constellations, and the channel simulator.
 */
#include <algorithm>
#include <complex>
#include <cstring>

#include <gtest/gtest.h>

#include "channel/channel.h"
#include "dsp/constellation.h"
#include "dsp/conv_code.h"
#include "dsp/crc.h"
#include "dsp/fft.h"
#include "dsp/viterbi.h"
#include "support/bits.h"
#include "support/rng.h"
#include "support/state_io.h"
#include "wifi/native_blocks.h"
#include "wifi/params.h"

namespace ziria {
namespace {

using dsp::CodingRate;
using dsp::Modulation;

TEST(Fft, MatchesReferenceDft)
{
    Rng rng(11);
    dsp::Fft plan(64);
    std::vector<Complex16> in(64);
    std::vector<std::complex<double>> dIn(64);
    for (int i = 0; i < 64; ++i) {
        in[i].re = static_cast<int16_t>(rng.below(4000)) - 2000;
        in[i].im = static_cast<int16_t>(rng.below(4000)) - 2000;
        dIn[i] = {static_cast<double>(in[i].re),
                  static_cast<double>(in[i].im)};
    }
    std::vector<Complex16> out(64);
    plan.forward(in.data(), out.data());
    std::vector<std::complex<double>> ref;
    dsp::dftReference(dIn, ref, false);
    for (int k = 0; k < 64; ++k) {
        EXPECT_NEAR(out[k].re, ref[k].real(), 8.0) << "bin " << k;
        EXPECT_NEAR(out[k].im, ref[k].imag(), 8.0) << "bin " << k;
    }
}

TEST(Fft, InverseOfForwardIsIdentity)
{
    Rng rng(12);
    dsp::Fft plan(64);
    std::vector<Complex16> in(64), mid(64), back(64);
    for (auto& x : in) {
        x.re = static_cast<int16_t>(rng.below(8000)) - 4000;
        x.im = static_cast<int16_t>(rng.below(8000)) - 4000;
    }
    plan.forward(in.data(), mid.data());
    plan.inverse(mid.data(), back.data());
    for (int i = 0; i < 64; ++i) {
        EXPECT_NEAR(back[i].re, in[i].re, 96) << i;
        EXPECT_NEAR(back[i].im, in[i].im, 96) << i;
    }
}

class FftSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(FftSizes, RoundTripAtSize)
{
    const int n = GetParam();
    Rng rng(static_cast<uint64_t>(n));
    dsp::Fft plan(n);
    std::vector<Complex16> in(n), mid(n), back(n);
    for (auto& x : in) {
        x.re = static_cast<int16_t>(rng.below(2000)) - 1000;
        x.im = static_cast<int16_t>(rng.below(2000)) - 1000;
    }
    plan.forward(in.data(), mid.data());
    plan.inverse(mid.data(), back.data());
    for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(back[i].re, in[i].re, n) << i;
        EXPECT_NEAR(back[i].im, in[i].im, n) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, FftSizes,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

TEST(Fft, OutputDigestIsPinned)
{
    // FNV-1a over forward and inverse outputs of seeded inputs at every
    // size 2..1024, half of them full-range so the inverse saturates.
    // The value was recorded from the heap-buffer implementation; any
    // rounding or ordering change in the butterflies moves it.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::vector<Complex16>& v) {
        for (const Complex16& c : v) {
            for (int16_t x : {c.re, c.im}) {
                const auto u = static_cast<uint16_t>(x);
                for (uint8_t byte : {static_cast<uint8_t>(u & 0xff),
                                     static_cast<uint8_t>(u >> 8)}) {
                    h ^= byte;
                    h *= 0x100000001b3ull;
                }
            }
        }
    };
    for (int n = 2; n <= 1024; n *= 2) {
        dsp::Fft plan(n);
        Rng rng(static_cast<uint64_t>(1000 + n));
        std::vector<Complex16> in(n), out(n);
        for (int trial = 0; trial < 8; ++trial) {
            const uint64_t span = trial < 4 ? 8000 : 65536;
            for (auto& x : in) {
                x.re = static_cast<int16_t>(
                    static_cast<int64_t>(rng.below(span)) -
                    static_cast<int64_t>(span / 2));
                x.im = static_cast<int16_t>(
                    static_cast<int64_t>(rng.below(span)) -
                    static_cast<int64_t>(span / 2));
            }
            plan.forward(in.data(), out.data());
            mix(out);
            plan.inverse(in.data(), out.data());
            mix(out);
        }
    }
    EXPECT_EQ(h, 0x6837d156871e0953ull) << std::hex << h;
}

TEST(ConvCode, KnownRateHalfOutput)
{
    // All-zero input keeps the encoder at state 0 -> all-zero output.
    dsp::ConvEncoder enc(CodingRate::Half);
    auto out = enc.encode(std::vector<uint8_t>(8, 0));
    EXPECT_EQ(out, std::vector<uint8_t>(16, 0));
}

TEST(ConvCode, ImpulseResponseMatchesGenerators)
{
    // A single 1 produces the generator taps over the next 7 pairs.
    dsp::ConvEncoder enc(CodingRate::Half);
    std::vector<uint8_t> in(7, 0);
    in[0] = 1;
    auto out = enc.encode(in);
    // A-outputs: g0 = 133 octal = 1011011b read from delay 0..6.
    std::vector<uint8_t> a, b;
    for (size_t i = 0; i < out.size(); i += 2) {
        a.push_back(out[i]);
        b.push_back(out[i + 1]);
    }
    EXPECT_EQ(a, (std::vector<uint8_t>{1, 0, 1, 1, 0, 1, 1}));
    EXPECT_EQ(b, (std::vector<uint8_t>{1, 1, 1, 1, 0, 0, 1}));
}

TEST(ConvCode, PuncturedRates)
{
    Rng rng(5);
    std::vector<uint8_t> in(24);
    for (auto& b : in)
        b = rng.bit();
    dsp::ConvEncoder e23(CodingRate::TwoThirds);
    EXPECT_EQ(e23.encode(in).size(), in.size() * 3 / 2);
    dsp::ConvEncoder e34(CodingRate::ThreeQuarters);
    EXPECT_EQ(e34.encode(in).size(), in.size() * 4 / 3);
}

class ViterbiRoundTrip
    : public ::testing::TestWithParam<std::tuple<CodingRate, int>>
{
};

TEST_P(ViterbiRoundTrip, DecodesCleanStream)
{
    auto [rate, seed] = GetParam();
    Rng rng(static_cast<uint64_t>(seed));
    std::vector<uint8_t> data(360);
    for (auto& b : data)
        b = rng.bit();

    dsp::ConvEncoder enc(rate);
    std::vector<uint8_t> coded = enc.encode(data);

    dsp::Depuncturer dep(rate);
    std::vector<uint8_t> lattice;
    for (uint8_t b : coded)
        dep.input(b, lattice);
    ASSERT_EQ(lattice.size(), data.size() * 2);

    dsp::ViterbiDecoder dec;
    std::vector<uint8_t> out;
    for (size_t i = 0; i + 1 < lattice.size(); i += 2)
        dec.inputPair(lattice[i], lattice[i + 1], out);
    dec.flush(out);
    ASSERT_EQ(out.size(), data.size());
    EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    Rates, ViterbiRoundTrip,
    ::testing::Combine(::testing::Values(CodingRate::Half,
                                         CodingRate::TwoThirds,
                                         CodingRate::ThreeQuarters),
                       ::testing::Values(1, 2, 3)));

TEST(Viterbi, CorrectsBitErrorsAtRateHalf)
{
    Rng rng(9);
    std::vector<uint8_t> data(400);
    for (auto& b : data)
        b = rng.bit();
    dsp::ConvEncoder enc(CodingRate::Half);
    std::vector<uint8_t> coded = enc.encode(data);
    // Flip ~2% of coded bits, spread out.
    for (size_t i = 10; i < coded.size(); i += 53)
        coded[i] ^= 1;
    dsp::ViterbiDecoder dec;
    std::vector<uint8_t> out;
    for (size_t i = 0; i + 1 < coded.size(); i += 2)
        dec.inputPair(coded[i], coded[i + 1], out);
    dec.flush(out);
    ASSERT_EQ(out.size(), data.size());
    EXPECT_EQ(out, data);
}

// ------------------------------------------------ Viterbi equivalence

/**
 * Reference decoder in push form: every state adds its cost into its two
 * successors, the later (odd) predecessor wins only on a strictly
 * smaller cost, and unreachable states (metric >= 2^29) are skipped.
 * ViterbiDecoder's butterfly pass must match it bit for bit: decoded
 * bits, metrics, decision words and snapshot bytes.
 */
class PushViterbi
{
  public:
    static constexpr uint32_t kInf = 1u << 29;

    PushViterbi()
    {
        for (int s = 0; s < dsp::convStates; ++s) {
            for (int u = 0; u < 2; ++u) {
                uint32_t w = (static_cast<uint32_t>(u) << 6) |
                             static_cast<uint32_t>(s);
                exp_[s][u] = static_cast<uint8_t>(
                    parity32(w & dsp::convG0) |
                    (parity32(w & dsp::convG1) << 1));
            }
        }
        metric_.assign(dsp::convStates, kInf);
        metric_[0] = 0;
    }

    void
    inputPair(uint8_t a, uint8_t b, std::vector<uint8_t>& out)
    {
        std::vector<uint32_t> next(dsp::convStates, kInf);
        uint32_t costTab[4];
        for (int e = 0; e < 4; ++e) {
            costTab[e] = static_cast<uint32_t>(a != 2 && a != (e & 1)) +
                         static_cast<uint32_t>(b != 2 && b != (e >> 1));
        }
        uint64_t word = 0;
        for (int s = 0; s < dsp::convStates; ++s) {
            if (metric_[s] >= kInf)
                continue;
            for (int u = 0; u < 2; ++u) {
                uint32_t cost = metric_[s] + costTab[exp_[s][u]];
                int ns = (s >> 1) | (u << 5);
                if (cost < next[ns]) {
                    next[ns] = cost;
                    if (s & 1)
                        word |= uint64_t{1} << ns;
                    else
                        word &= ~(uint64_t{1} << ns);
                }
            }
        }
        metric_.swap(next);
        decisions_.push_back(word);
        uint32_t minM = *std::min_element(metric_.begin(), metric_.end());
        if (minM > (1u << 20)) {
            ++normalizations;
            for (auto& m : metric_)
                m -= minM;
        }
        if (decisions_.size() >= 128 + 64)
            traceback(64, out);
    }

    void
    flush(std::vector<uint8_t>& out)
    {
        if (!decisions_.empty())
            traceback(static_cast<int>(decisions_.size()), out);
    }

    void
    snapshot(StateWriter& w) const
    {
        w.bytes(metric_.data(), metric_.size() * sizeof(uint32_t));
        w.blob(decisions_.data(), decisions_.size() * sizeof(uint64_t));
    }

    void
    restore(StateReader& r)
    {
        r.bytes(metric_.data(), metric_.size() * sizeof(uint32_t));
        std::vector<uint8_t> raw = r.blob();
        decisions_.resize(raw.size() / sizeof(uint64_t));
        if (!raw.empty())
            std::memcpy(decisions_.data(), raw.data(), raw.size());
    }

    int normalizations = 0;

  private:
    void
    traceback(int emit, std::vector<uint8_t>& out)
    {
        int best = static_cast<int>(
            std::min_element(metric_.begin(), metric_.end()) -
            metric_.begin());
        const int steps = static_cast<int>(decisions_.size());
        std::vector<uint8_t> bits(steps);
        int state = best;
        for (int t = steps - 1; t >= 0; --t) {
            bits[t] = static_cast<uint8_t>(state >> 5);
            int dropped = static_cast<int>((decisions_[t] >> state) & 1);
            state = ((state << 1) & 0x3f) | dropped;
        }
        emit = std::min(emit, steps);
        out.insert(out.end(), bits.begin(), bits.begin() + emit);
        decisions_.erase(decisions_.begin(), decisions_.begin() + emit);
    }

    uint8_t exp_[dsp::convStates][2];
    std::vector<uint32_t> metric_;
    std::vector<uint64_t> decisions_;
};

template <class D>
std::vector<uint8_t>
snapBytes(const D& d)
{
    StateWriter w;
    d.snapshot(w);
    return w.take();
}

/** A lattice value: a hard bit, or an erasure with probability 1/5. */
uint8_t
latticeValue(Rng& rng)
{
    return rng.below(5) == 0 ? 2 : rng.bit();
}

/** Feed both decoders @p n pairs; compare bits and (every @p every
 *  steps) snapshot bytes as they go. */
template <class Gen>
void
feedBoth(PushViterbi& ref, dsp::ViterbiDecoder& dec, long n, Gen gen,
         std::vector<uint8_t>& refOut, std::vector<uint8_t>& decOut,
         long every = 997)
{
    for (long i = 0; i < n; ++i) {
        uint8_t a = gen(), b = gen();
        ref.inputPair(a, b, refOut);
        dec.inputPair(a, b, decOut);
        ASSERT_EQ(refOut.size(), decOut.size()) << "pair " << i;
        if (i % every == 0) {
            ASSERT_EQ(snapBytes(ref), snapBytes(dec)) << "pair " << i;
        }
    }
    ASSERT_EQ(snapBytes(ref), snapBytes(dec));
    ASSERT_EQ(refOut, decOut);
}

TEST(ViterbiEquivalence, RandomPairsWithErasuresAcrossNormalization)
{
    // Start both decoders from the same state just below the
    // normalization threshold (some states unreachable), so the run
    // crosses `min > 2^20` early and then decodes 1M pairs past it.
    Rng rng(41);
    StateWriter w;
    for (int s = 0; s < dsp::convStates; ++s) {
        w.u32(s % 7 == 3 ? PushViterbi::kInf
                         : (1u << 20) - 2000 +
                               static_cast<uint32_t>(rng.below(40)));
    }
    w.blob(nullptr, 0);
    const std::vector<uint8_t> seed = w.take();
    PushViterbi ref;
    dsp::ViterbiDecoder dec;
    StateReader r1(seed), r2(seed);
    ref.restore(r1);
    dec.restore(r2);

    std::vector<uint8_t> refOut, decOut;
    feedBoth(ref, dec, 1'000'000, [&] { return latticeValue(rng); },
             refOut, decOut);
    EXPECT_GE(ref.normalizations, 1);
    ref.flush(refOut);
    dec.flush(decOut);
    EXPECT_EQ(refOut, decOut);
    EXPECT_GT(decOut.size(), 999'000u);
}

TEST(ViterbiEquivalence, AllZeroPrefixThenNoise)
{
    // From reset only state 0 is reachable: the first steps exercise
    // predecessors with no reachable path, then a long all-zero run
    // keeps ties everywhere before random traffic (including
    // out-of-domain bytes, which the depuncturer passes through).
    Rng rng(42);
    PushViterbi ref;
    dsp::ViterbiDecoder dec;
    std::vector<uint8_t> refOut, decOut;
    feedBoth(ref, dec, 5000, [] { return uint8_t{0}; }, refOut, decOut, 1);
    feedBoth(ref, dec, 50'000,
             [&] {
                 return rng.below(50) == 0
                            ? static_cast<uint8_t>(rng.below(256))
                            : latticeValue(rng);
             },
             refOut, decOut, 13);
    ref.flush(refOut);
    dec.flush(decOut);
    EXPECT_EQ(refOut, decOut);
}

TEST(ViterbiEquivalence, SnapshotMidStreamCrossesImplementations)
{
    // A snapshot from either implementation restores into the other and
    // both continue identically (the checkpoint format is unchanged).
    Rng rng(43);
    auto gen = [&] { return latticeValue(rng); };
    PushViterbi ref;
    dsp::ViterbiDecoder dec;
    std::vector<uint8_t> refOut, decOut;
    feedBoth(ref, dec, 20'000 + 77, gen, refOut, decOut);

    PushViterbi ref2;
    dsp::ViterbiDecoder dec2;
    const std::vector<uint8_t> fromDec = snapBytes(dec);
    const std::vector<uint8_t> fromRef = snapBytes(ref);
    StateReader r1(fromDec), r2(fromRef);
    ref2.restore(r1);
    dec2.restore(r2);
    EXPECT_EQ(snapBytes(ref2), fromDec);
    EXPECT_EQ(snapBytes(dec2), fromRef);

    std::vector<uint8_t> refOut2 = refOut, decOut2 = decOut;
    Rng rng2 = rng;
    feedBoth(ref, dec2, 20'000, gen, refOut, decOut2);
    feedBoth(ref2, dec, 20'000, [&] { return latticeValue(rng2); },
             refOut2, decOut);
    EXPECT_EQ(refOut, refOut2);
}

TEST(ViterbiEquivalence, RejectsOutOfRangeMetric)
{
    StateWriter w;
    for (int s = 0; s < dsp::convStates; ++s)
        w.u32(s == 5 ? PushViterbi::kInf + 1 : 0);
    w.blob(nullptr, 0);
    const std::vector<uint8_t> bad = w.take();
    dsp::ViterbiDecoder dec;
    StateReader r(bad);
    EXPECT_THROW(dec.restore(r), StateFormatError);
}

/**
 * Restore @p ref's snapshot into a fresh ViterbiDecoder and @p dec's
 * into a fresh PushViterbi (the two must be in the same state), then
 * check all four decoders continue identically for @p n pairs.
 */
void
crossRestoreAndContinue(PushViterbi& ref, dsp::ViterbiDecoder& dec,
                        std::vector<uint8_t> refOut,
                        std::vector<uint8_t> decOut, uint64_t seed, long n)
{
    ASSERT_EQ(snapBytes(ref), snapBytes(dec));
    PushViterbi ref2;
    dsp::ViterbiDecoder dec2;
    const std::vector<uint8_t> fromDec = snapBytes(dec);
    const std::vector<uint8_t> fromRef = snapBytes(ref);
    StateReader r1(fromDec), r2(fromRef);
    ref2.restore(r1);
    dec2.restore(r2);
    ASSERT_EQ(snapBytes(ref2), fromDec);
    ASSERT_EQ(snapBytes(dec2), fromRef);

    std::vector<uint8_t> refOut2 = refOut, decOut2 = decOut;
    Rng rng1(seed), rng2(seed);
    feedBoth(ref, dec2, n, [&] { return latticeValue(rng1); }, refOut,
             decOut2, 1);
    feedBoth(ref2, dec, n, [&] { return latticeValue(rng2); }, refOut2,
             decOut, 1);
    EXPECT_EQ(refOut, refOut2);
}

TEST(ViterbiEquivalence, SnapshotInFirstStepsCrossesImplementations)
{
    // 1-5 steps after reset some states are still unreachable (the
    // 16-bit pass holds them at its cap, the scalar one at 2^29).
    for (int steps = 1; steps <= 5; ++steps) {
        SCOPED_TRACE(steps);
        Rng rng(static_cast<uint64_t>(60 + steps));
        PushViterbi ref;
        dsp::ViterbiDecoder dec;
        std::vector<uint8_t> refOut, decOut;
        feedBoth(ref, dec, steps, [&] { return latticeValue(rng); },
                 refOut, decOut, 1);
        crossRestoreAndContinue(ref, dec, refOut, decOut,
                                static_cast<uint64_t>(70 + steps), 3000);
    }
}

TEST(ViterbiEquivalence, SnapshotAfterNormalizationCrossesImplementations)
{
    // Seed both just below the 2^20 threshold, step until the reference
    // normalizes, and cross-restore the state that step left.
    Rng rng(44);
    StateWriter w;
    for (int s = 0; s < dsp::convStates; ++s)
        w.u32((1u << 20) - 30 + static_cast<uint32_t>(rng.below(8)));
    w.blob(nullptr, 0);
    const std::vector<uint8_t> seed = w.take();
    PushViterbi ref;
    dsp::ViterbiDecoder dec;
    StateReader r1(seed), r2(seed);
    ref.restore(r1);
    dec.restore(r2);
    std::vector<uint8_t> refOut, decOut;
    for (int i = 0; i < 1000 && ref.normalizations == 0; ++i)
        feedBoth(ref, dec, 1, [&] { return latticeValue(rng); }, refOut,
                 decOut, 1);
    ASSERT_EQ(ref.normalizations, 1);
    crossRestoreAndContinue(ref, dec, refOut, decOut, 45, 3000);
}

/** Snapshot bytes of 64 metrics and no decision memory. */
std::vector<uint8_t>
metricSnapshot(const std::vector<uint32_t>& metric)
{
    StateWriter w;
    for (uint32_t m : metric)
        w.u32(m);
    w.blob(nullptr, 0);
    return w.take();
}

TEST(ViterbiEquivalence, RejectsMetricsSixteenBitsCannotHold)
{
    // Reachable metrics 2^16 apart.
    std::vector<uint32_t> apart(dsp::convStates, 100);
    apart[9] = 100 + (1u << 16);
    // No reachable state at all.
    std::vector<uint32_t> none(dsp::convStates, PushViterbi::kInf);
    // Unreachable states next to a minimum that normalizes before every
    // state becomes reachable.
    std::vector<uint32_t> nearNorm(dsp::convStates, PushViterbi::kInf);
    nearNorm[0] = (1u << 20) - 1;
    // A reachable metric whose next step would pass 2^29.
    std::vector<uint32_t> nearCap(dsp::convStates, PushViterbi::kInf - 1);
    for (const auto& bad : {apart, none, nearNorm, nearCap}) {
        const std::vector<uint8_t> bytes = metricSnapshot(bad);
        dsp::ViterbiDecoder dec;
        StateReader r(bytes);
        EXPECT_THROW(dec.restore(r), StateFormatError);
    }
    // Just inside the limits still restores and re-snapshots exactly.
    std::vector<uint32_t> ok(dsp::convStates, PushViterbi::kInf);
    ok[0] = (1u << 20) - 100;
    ok[1] = ok[0] + (1u << 14);
    const std::vector<uint8_t> bytes = metricSnapshot(ok);
    dsp::ViterbiDecoder dec;
    StateReader r(bytes);
    dec.restore(r);
    EXPECT_EQ(snapBytes(dec), bytes);
}

/** Collects a native kernel's output bits. */
class BitCollector : public Emitter
{
  public:
    void emit(const uint8_t* elem) override { bits.push_back(*elem); }

    std::vector<uint8_t> bits;
};

TEST(ViterbiKernel, SnapshotRestoreMidPuncturedPair)
{
    // Cut the coded stream at every point of two puncturing periods
    // (some cuts leave half a lattice pair pending), move the kernel
    // through a snapshot, and finish on the restored copy.
    for (CodingRate rate : {CodingRate::Half, CodingRate::TwoThirds,
                            CodingRate::ThreeQuarters}) {
        constexpr int kBits = 600;
        Rng rng(static_cast<uint64_t>(80 + static_cast<int>(rate)));
        std::vector<uint8_t> data(kBits);
        for (auto& b : data)
            b = rng.bit();
        dsp::ConvEncoder enc(rate);
        const std::vector<uint8_t> coded = enc.encode(data);
        const std::vector<Value> args = {
            Value::i32(wifi::codCode(rate)), Value::i32(kBits)};
        for (size_t cut = 300; cut < 312; ++cut) {
            SCOPED_TRACE(cut);
            auto a = wifi::specViterbi()->make(args);
            BitCollector out;
            for (size_t i = 0; i < cut; ++i)
                a->consume(&coded[i], out);
            StateWriter w;
            a->snapshot(w);
            const std::vector<uint8_t> bytes = w.take();

            auto b = wifi::specViterbi()->make(args);
            StateReader r(bytes);
            b->restore(r);
            StateWriter again;
            b->snapshot(again);
            EXPECT_EQ(again.take(), bytes);
            for (size_t i = cut; i < coded.size(); ++i)
                b->consume(&coded[i], out);
            EXPECT_EQ(out.bits, data);
        }
    }
}

TEST(Crc32, KnownVector)
{
    // CRC-32 of ASCII "123456789" = 0xCBF43926.
    std::vector<uint8_t> bits;
    const char* s = "123456789";
    for (int i = 0; i < 9; ++i) {
        for (int j = 0; j < 8; ++j)
            bits.push_back((s[i] >> j) & 1);
    }
    EXPECT_EQ(dsp::Crc32::ofBits(bits), 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitErrors)
{
    Rng rng(3);
    std::vector<uint8_t> bits(256);
    for (auto& b : bits)
        b = rng.bit();
    uint32_t good = dsp::Crc32::ofBits(bits);
    for (size_t i = 0; i < bits.size(); i += 37) {
        bits[i] ^= 1;
        EXPECT_NE(dsp::Crc32::ofBits(bits), good);
        bits[i] ^= 1;
    }
}

TEST(Crc24, Streaming)
{
    std::vector<uint8_t> bits(48, 1);
    uint32_t v = dsp::Crc24::ofBits(bits);
    EXPECT_LE(v, 0xFFFFFFu);
    bits[5] ^= 1;
    EXPECT_NE(dsp::Crc24::ofBits(bits), v);
}

class ConstellationRoundTrip : public ::testing::TestWithParam<Modulation>
{
};

TEST_P(ConstellationRoundTrip, MapDemapIdentity)
{
    Modulation m = GetParam();
    const int nb = dsp::bitsPerSymbol(m);
    for (uint32_t v = 0; v < (1u << nb); ++v) {
        Complex16 p = dsp::mapBits(m, v);
        EXPECT_EQ(dsp::demapPoint(m, p), v) << "bits " << v;
    }
}

TEST_P(ConstellationRoundTrip, ToleratesSmallNoise)
{
    Modulation m = GetParam();
    const int nb = dsp::bitsPerSymbol(m);
    // Half the minimum distance between axis levels.
    int margin = m == Modulation::Qam64 ? 40 : 80;
    Rng rng(7);
    for (uint32_t v = 0; v < (1u << nb); ++v) {
        Complex16 p = dsp::mapBits(m, v);
        Complex16 noisy{
            static_cast<int16_t>(p.re + static_cast<int>(
                                            rng.below(margin)) -
                                 margin / 2),
            static_cast<int16_t>(p.im + static_cast<int>(
                                            rng.below(margin)) -
                                 margin / 2)};
        EXPECT_EQ(dsp::demapPoint(m, noisy), v);
    }
}

INSTANTIATE_TEST_SUITE_P(All, ConstellationRoundTrip,
                         ::testing::Values(Modulation::Bpsk,
                                           Modulation::Qpsk,
                                           Modulation::Qam16,
                                           Modulation::Qam64));

TEST(ConstellationTest, UnitAveragePower)
{
    // With K_MOD normalization every constellation has roughly the same
    // mean power (constellationScale^2).
    for (Modulation m : {Modulation::Bpsk, Modulation::Qpsk,
                         Modulation::Qam16, Modulation::Qam64}) {
        const int nb = dsp::bitsPerSymbol(m);
        double acc = 0;
        for (uint32_t v = 0; v < (1u << nb); ++v) {
            Complex16 p = dsp::mapBits(m, v);
            acc += static_cast<double>(p.re) * p.re +
                   static_cast<double>(p.im) * p.im;
        }
        acc /= (1 << nb);
        double expect = static_cast<double>(dsp::constellationScale) *
                        dsp::constellationScale;
        EXPECT_NEAR(acc, expect, expect * 0.05)
            << "modulation " << static_cast<int>(m);
    }
}

TEST(Channel, SnrIsCalibrated)
{
    Rng rng(21);
    std::vector<Complex16> tx(20000);
    for (auto& x : tx) {
        x.re = static_cast<int16_t>(rng.below(2000)) - 1000;
        x.im = static_cast<int16_t>(rng.below(2000)) - 1000;
    }
    channel::ChannelConfig cfg;
    cfg.snrDb = 10.0;
    cfg.seed = 33;
    auto rx = channel::applyChannel(tx, cfg);
    ASSERT_EQ(rx.size(), tx.size());
    double noise = 0;
    for (size_t i = 0; i < tx.size(); ++i) {
        double dre = rx[i].re - tx[i].re;
        double dim = rx[i].im - tx[i].im;
        noise += dre * dre + dim * dim;
    }
    noise /= static_cast<double>(tx.size());
    double snr = 10.0 *
                 std::log10(channel::meanPower(tx) / noise);
    EXPECT_NEAR(snr, 10.0, 0.5);
}

TEST(Channel, DelayPrependsNoise)
{
    std::vector<Complex16> tx(100, Complex16{1000, 0});
    channel::ChannelConfig cfg;
    cfg.snrDb = 40.0;
    cfg.delaySamples = 37;
    cfg.trailSamples = 11;
    auto rx = channel::applyChannel(tx, cfg);
    EXPECT_EQ(rx.size(), tx.size() + 37 + 11);
}

} // namespace
} // namespace ziria
