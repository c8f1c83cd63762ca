/**
 * @file
 * IEEE 802.11a golden-vector conformance suite.  The vectors under
 * tests/data/annexg/ are produced by scripts/gen_annexg.py — an
 * independent Python implementation of the Clause 17 equations — and
 * lock down every TX stage bit-for-bit: scrambler sequence,
 * convolutional code (all three coding rates), interleaver
 * permutations, constellation mappers, SIGNAL field, and the composed
 * scramble>>encode>>interleave>>map chain at all eight rates.  The
 * deliberate deviations of this codebase from a strict Annex G reading
 * are documented in docs/TESTING.md and in gen_annexg.py.
 *
 * The suite also carries the permutation-inverse property tests and the
 * Ziria-TX-to-Ziria-RX round trip at every rate.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <fstream>
#include <sstream>

#include "channel/channel.h"
#include "dsp/constellation.h"
#include "dsp/conv_code.h"
#include "sora/sora.h"
#include "support/backends.h"
#include "support/isa_paths.h"
#include "support/rng.h"
#include "wifi/blocks_tx.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace wifi;

/** The eight 802.11a/g rates, for suites that also run per kernel path. */
auto
rateValues()
{
    return ::testing::Values(Rate::R6, Rate::R9, Rate::R12, Rate::R18,
                             Rate::R24, Rate::R36, Rate::R48, Rate::R54);
}

// ------------------------------------------------- golden-file access

std::vector<std::string>
goldenLines(const std::string& name)
{
    std::string path = std::string(ZIRIA_TEST_DATA_DIR "/annexg/") + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path
                           << " (regenerate: python3 scripts/gen_annexg.py)";
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    return lines;
}

std::vector<uint8_t>
parseBits(const std::string& s)
{
    std::vector<uint8_t> out;
    for (char c : s) {
        if (c == '0' || c == '1')
            out.push_back(static_cast<uint8_t>(c - '0'));
    }
    return out;
}

std::vector<int>
parseInts(const std::string& s)
{
    std::istringstream is(s);
    std::vector<int> out;
    int v;
    while (is >> v)
        out.push_back(v);
    return out;
}

std::vector<Complex16>
parsePoints(const std::vector<std::string>& lines)
{
    std::vector<Complex16> out;
    for (const auto& ln : lines) {
        std::istringstream is(ln);
        int re, im;
        is >> re >> im;
        out.push_back(Complex16{static_cast<int16_t>(re),
                                static_cast<int16_t>(im)});
    }
    return out;
}

std::vector<Complex16>
bytesToSamples(const std::vector<uint8_t>& bytes)
{
    std::vector<Complex16> out(bytes.size() / 4);
    std::memcpy(out.data(), bytes.data(), out.size() * 4);
    return out;
}

std::vector<uint8_t>
samplesToBytes(const std::vector<Complex16>& xs)
{
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

/** The fixed conformance payload (mirrored in gen_annexg.py). */
std::vector<uint8_t>
conformancePayload(int n = 100)
{
    std::vector<uint8_t> out(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out[static_cast<size_t>(i)] =
            static_cast<uint8_t>((7 * i + 13) & 0xFF);
    return out;
}

const char*
modTag(dsp::Modulation m)
{
    switch (m) {
      case dsp::Modulation::Bpsk: return "bpsk";
      case dsp::Modulation::Qpsk: return "qpsk";
      case dsp::Modulation::Qam16: return "qam16";
      default: return "qam64";
    }
}

// ---------------------------------------------------------- scrambler

TEST(Scrambler, SequenceMatchesSpec)
{
    auto lines = goldenLines("scrambler_seq.txt");
    ASSERT_EQ(lines.size(), 1u);
    auto golden = parseBits(lines[0]);
    ASSERT_EQ(golden.size(), 127u);
    EXPECT_EQ(scramblerSequence(127), golden);
}

TEST(Scrambler, DslBlockProducesSpecSequence)
{
    // Scrambling the all-zero stream emits the raw sequence.
    auto golden = parseBits(goldenLines("scrambler_seq.txt")[0]);
    std::vector<uint8_t> zeros(127, 0);
    for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
        auto p = compilePipeline(scramblerBlock(),
                                 CompilerOptions::forLevel(lvl));
        auto out = p->runBytes(zeros);
        size_t n = std::min(out.size(), golden.size());
        ASSERT_GT(n, 0u);
        EXPECT_TRUE(std::equal(out.begin(),
                               out.begin() + static_cast<long>(n),
                               golden.begin()))
            << "level " << static_cast<int>(lvl);
    }
}

// --------------------------------------------------------- conv code

class ConvGolden
    : public ::testing::TestWithParam<std::pair<dsp::CodingRate,
                                                const char*>>
{
};

TEST_P(ConvGolden, EncoderMatchesGolden)
{
    auto [coding, file] = GetParam();
    auto golden = parseBits(goldenLines(file)[0]);
    auto input = scramblerSequence(96);

    dsp::ConvEncoder enc(coding);
    EXPECT_EQ(enc.encode(input), golden) << "host encoder";

    for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
        auto p = compilePipeline(encoderBlock(coding),
                                 CompilerOptions::forLevel(lvl));
        auto out = p->runBytes(input);
        size_t n = std::min(out.size(), golden.size());
        ASSERT_GT(n, golden.size() / 2);
        EXPECT_TRUE(std::equal(out.begin(),
                               out.begin() + static_cast<long>(n),
                               golden.begin()))
            << "DSL encoder, level " << static_cast<int>(lvl);
        if (lvl == OptLevel::None) {
            EXPECT_EQ(out.size(), golden.size());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodings, ConvGolden,
    ::testing::Values(std::make_pair(dsp::CodingRate::Half, "conv_r12.txt"),
                      std::make_pair(dsp::CodingRate::TwoThirds,
                                     "conv_r23.txt"),
                      std::make_pair(dsp::CodingRate::ThreeQuarters,
                                     "conv_r34.txt")));

// -------------------------------------------------------- interleaver

TEST(Interleaver, TablesMatchGolden)
{
    struct Case
    {
        dsp::Modulation m;
        Rate r;
    } cases[] = {{dsp::Modulation::Bpsk, Rate::R6},
                 {dsp::Modulation::Qpsk, Rate::R12},
                 {dsp::Modulation::Qam16, Rate::R24},
                 {dsp::Modulation::Qam64, Rate::R54}};
    for (const auto& c : cases) {
        auto golden = parseInts(
            goldenLines(std::string("interleaver_") + modTag(c.m) +
                        ".txt")[0]);
        EXPECT_EQ(interleaverTable(c.r), golden) << modTag(c.m);
    }
}

TEST(Interleaver, TablesAreMutualInversesForEveryRate)
{
    for (Rate r : allRates()) {
        auto fwd = interleaverTable(r);
        auto inv = deinterleaverTable(r);
        const int ncbps = rateInfo(r).ncbps;
        ASSERT_EQ(fwd.size(), static_cast<size_t>(ncbps));
        ASSERT_EQ(inv.size(), static_cast<size_t>(ncbps));
        std::vector<bool> seen(static_cast<size_t>(ncbps), false);
        for (int k = 0; k < ncbps; ++k) {
            int j = fwd[static_cast<size_t>(k)];
            ASSERT_GE(j, 0);
            ASSERT_LT(j, ncbps);
            EXPECT_FALSE(seen[static_cast<size_t>(j)]) << "not a bijection";
            seen[static_cast<size_t>(j)] = true;
            EXPECT_EQ(inv[static_cast<size_t>(j)], k)
                << rateInfo(r).mbps << " Mbps, k=" << k;
            EXPECT_EQ(fwd[static_cast<size_t>(
                          inv[static_cast<size_t>(k)])],
                      k);
        }
    }
}

TEST(Interleaver, DslBlocksComposeToIdentityPerSymbol)
{
    // interleave >>> deinterleave over whole OFDM symbols is identity.
    Rng rng(404);
    for (dsp::Modulation m :
         {dsp::Modulation::Bpsk, dsp::Modulation::Qpsk,
          dsp::Modulation::Qam16, dsp::Modulation::Qam64}) {
        const int ncbps = numDataCarriers * dsp::bitsPerSymbol(m);
        std::vector<uint8_t> input(static_cast<size_t>(ncbps) * 4);
        for (auto& b : input)
            b = rng.bit();
        auto p = compilePipeline(
            zb::pipe(interleaverBlock(m), deinterleaverBlock(m)),
            CompilerOptions::forLevel(OptLevel::None));
        EXPECT_EQ(p->runBytes(input), input) << modTag(m);
    }
}

// ------------------------------------------------------------- mapper

class MapperGolden : public ::testing::TestWithParam<dsp::Modulation>
{
};

TEST_P(MapperGolden, EveryBitGroupMatches)
{
    dsp::Modulation m = GetParam();
    const int nb = dsp::bitsPerSymbol(m);
    auto lines = goldenLines(std::string("mapper_") + modTag(m) + ".txt");
    ASSERT_EQ(lines.size(), static_cast<size_t>(1 << nb));
    for (const auto& ln : lines) {
        std::istringstream is(ln);
        std::string bitsStr;
        int re, im;
        is >> bitsStr >> re >> im;
        auto bits = parseBits(bitsStr);
        ASSERT_EQ(bits.size(), static_cast<size_t>(nb));
        uint32_t packed = 0;
        for (int i = 0; i < nb; ++i)
            packed |= static_cast<uint32_t>(bits[static_cast<size_t>(i)])
                      << i;
        Complex16 p = dsp::mapBits(m, packed);
        EXPECT_EQ(p.re, re) << modTag(m) << " bits " << bitsStr;
        EXPECT_EQ(p.im, im) << modTag(m) << " bits " << bitsStr;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, MapperGolden,
                         ::testing::Values(dsp::Modulation::Bpsk,
                                           dsp::Modulation::Qpsk,
                                           dsp::Modulation::Qam16,
                                           dsp::Modulation::Qam64));

// ------------------------------------------------------------- SIGNAL

TEST(SignalField, MatchesGoldenAndParsesBack)
{
    auto lines = goldenLines("signal_field.txt");
    ASSERT_EQ(lines.size(), 40u);
    int checked = 0;
    for (const auto& ln : lines) {
        std::istringstream is(ln);
        int mbps, psdu;
        std::string bitsStr;
        is >> mbps >> psdu >> bitsStr;
        auto golden = parseBits(bitsStr);
        ASSERT_EQ(golden.size(), 24u);
        Rate rate = Rate::R6;
        for (Rate r : allRates())
            if (rateInfo(r).mbps == mbps)
                rate = r;
        EXPECT_EQ(signalBits(rate, psdu), golden)
            << mbps << " Mbps, len " << psdu;
        SignalInfo info = parseSignal(golden);
        EXPECT_TRUE(info.valid);
        EXPECT_EQ(info.rate, rate);
        EXPECT_EQ(info.length, psdu);
        ++checked;
    }
    EXPECT_EQ(checked, 40);
}

// ------------------------------------------------------ full TX chain

class TxChainGolden : public ::testing::TestWithParam<Rate>
{
};

TEST_P(TxChainGolden, FrequencyDomainPointsMatch)
{
    Rate rate = GetParam();
    const RateInfo& ri = rateInfo(rate);
    auto golden = parsePoints(goldenLines(
        std::string("txchain_r") + std::to_string(ri.mbps) + ".txt"));
    const int nsym = dataSymbols(rate, psduLen(100));
    ASSERT_EQ(golden.size(),
              static_cast<size_t>(nsym) * numDataCarriers);

    auto payload = conformancePayload();
    auto dataBits = assembleDataBits(payload, rate);

    auto chain = [&] {
        return zb::pipe(
            zb::pipe(zb::pipe(scramblerBlock(), encoderBlock(ri.coding)),
                     interleaverBlock(ri.modulation)),
            modulatorBlock(ri.modulation));
    };

    // Unoptimized: the whole stream must match exactly.
    auto p0 = compilePipeline(chain(),
                              CompilerOptions::forLevel(OptLevel::None));
    auto got0 = bytesToSamples(p0->runBytes(dataBits));
    ASSERT_EQ(got0.size(), golden.size()) << ri.mbps << " Mbps";
    for (size_t i = 0; i < golden.size(); ++i) {
        ASSERT_EQ(got0[i].re, golden[i].re)
            << ri.mbps << " Mbps, point " << i;
        ASSERT_EQ(got0[i].im, golden[i].im)
            << ri.mbps << " Mbps, point " << i;
    }

    // Fully optimized: prefix must match (vectorization may drop a
    // bounded tail).
    auto p1 = compilePipeline(chain(),
                              CompilerOptions::forLevel(OptLevel::All));
    auto got1 = bytesToSamples(p1->runBytes(dataBits));
    size_t n = std::min(got1.size(), golden.size());
    ASSERT_GE(n, static_cast<size_t>(numDataCarriers));
    for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got1[i].re, golden[i].re)
            << ri.mbps << " Mbps (optimized), point " << i;
        ASSERT_EQ(got1[i].im, golden[i].im)
            << ri.mbps << " Mbps (optimized), point " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllRates, TxChainGolden, rateValues());

// ------------------------------------------------- TX->RX round trips

class ZiriaRoundTrip : public OnEachIsa<Rate>
{
};

TEST_P(ZiriaRoundTrip, ReceiverDecodesZiriaTransmitter)
{
    // Ziria TX pipeline -> benign channel -> Ziria receiver, at every
    // rate.  (The other RX suites pair the receiver with the Sora
    // reference TX; this closes the loop inside the DSL.)
    Rate rate = param();
    Rng rng(600 + static_cast<uint64_t>(rate));
    std::vector<uint8_t> payload(72);
    for (auto& b : payload)
        b = static_cast<uint8_t>(rng.next());

    auto tx = compilePipeline(
        wifiTxFrameComp(rate, static_cast<int>(payload.size())),
        CompilerOptions::forLevel(OptLevel::None));
    auto txSamples = bytesToSamples(tx->runBytes(bytesToBits(payload)));
    ASSERT_GT(txSamples.size(), 400u);

    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.delaySamples = 220;
    cfg.trailSamples = 120;
    cfg.phaseRad = 0.3;
    cfg.gain = 0.9;
    cfg.seed = 1000 + static_cast<uint64_t>(rate);
    auto rxSamples = channel::applyChannel(txSamples, cfg);

    auto rx = compilePipeline(wifiReceiverComp(),
                              CompilerOptions::forLevel(OptLevel::None));
    RunStats st;
    auto bits = rx->runBytes(samplesToBytes(rxSamples), &st);
    ASSERT_TRUE(st.halted) << rateInfo(rate).mbps << " Mbps: no detection";
    ASSERT_EQ(st.ctrl.size(), 4u);
    int32_t crcOk = 0;
    std::memcpy(&crcOk, st.ctrl.data(), 4);
    EXPECT_EQ(crcOk, 1) << rateInfo(rate).mbps << " Mbps: CRC failed";

    auto bytes = bitsToBytes(bits);
    ASSERT_GE(bytes.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), bytes.begin()))
        << rateInfo(rate).mbps << " Mbps: payload mismatch";
}

INSTANTIATE_TEST_SUITE_P(AllRatesOnEachIsa, ZiriaRoundTrip, eachIsa(rateValues()));

// ------------------------------------------- fused-backend conformance
//
// The same golden vectors, executed by the fused bytecode backend
// (docs/FUSION.md), and optimized TX by the native one.  The fused and
// native output must equal the VM output BYTE FOR BYTE — not merely
// match the golden prefix — so any divergence fails even where the
// goldens would tolerate a dropped vectorization tail.

CompilerOptions
fusedConf(OptLevel lvl)
{
    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = Backend::Fused;
    return opt;
}

TEST(FusedConformance, PerStageBlocksMatchVm)
{
    struct Stage
    {
        const char* name;
        std::function<CompPtr()> make;
        std::vector<uint8_t> input;
    };
    auto bits = scramblerSequence(96 * 6);
    std::vector<Stage> stages;
    stages.push_back({"scrambler", [] { return scramblerBlock(); },
                      std::vector<uint8_t>(127 * 4, 0)});
    stages.push_back({"encoder-r12",
                      [] { return encoderBlock(dsp::CodingRate::Half); },
                      bits});
    stages.push_back(
        {"encoder-r23",
         [] { return encoderBlock(dsp::CodingRate::TwoThirds); }, bits});
    stages.push_back(
        {"encoder-r34",
         [] { return encoderBlock(dsp::CodingRate::ThreeQuarters); },
         bits});
    for (dsp::Modulation m :
         {dsp::Modulation::Bpsk, dsp::Modulation::Qpsk,
          dsp::Modulation::Qam16, dsp::Modulation::Qam64}) {
        const int ncbps = numDataCarriers * dsp::bitsPerSymbol(m);
        std::vector<uint8_t> in(static_cast<size_t>(ncbps) * 6);
        for (size_t i = 0; i < in.size(); ++i)
            in[i] = static_cast<uint8_t>((i * 2654435761u >> 7) & 1);
        stages.push_back(
            {modTag(m), [m] { return interleaverBlock(m); }, in});
        stages.push_back({modTag(m),
                          [m] { return modulatorBlock(m); }, in});
    }
    for (const Stage& s : stages)
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            SCOPED_TRACE(std::string(s.name) + " at level " +
                         std::to_string(static_cast<int>(lvl)));
            auto vm = compilePipeline(s.make(),
                                      CompilerOptions::forLevel(lvl));
            auto fz = compilePipeline(s.make(), fusedConf(lvl));
            EXPECT_EQ(fz->runBytes(s.input), vm->runBytes(s.input));
        }
}

class FusedTxChainGolden : public ::testing::TestWithParam<Rate>
{
};

TEST_P(FusedTxChainGolden, MatchesGoldenAndVmAtEveryRate)
{
    Rate rate = GetParam();
    const RateInfo& ri = rateInfo(rate);
    auto golden = parsePoints(goldenLines(
        std::string("txchain_r") + std::to_string(ri.mbps) + ".txt"));
    auto dataBits = assembleDataBits(conformancePayload(), rate);

    auto chain = [&] {
        return zb::pipe(
            zb::pipe(zb::pipe(scramblerBlock(), encoderBlock(ri.coding)),
                     interleaverBlock(ri.modulation)),
            modulatorBlock(ri.modulation));
    };

    // Unoptimized fused: exact golden match, full length.
    CompileReport rep;
    auto f0 = compilePipeline(chain(), fusedConf(OptLevel::None), &rep);
    EXPECT_EQ(rep.fuse.fallbacks, 0)
        << "the TX chain should fuse into one region";
    auto got0 = bytesToSamples(f0->runBytes(dataBits));
    ASSERT_EQ(got0.size(), golden.size()) << ri.mbps << " Mbps";
    for (size_t i = 0; i < golden.size(); ++i) {
        ASSERT_EQ(got0[i].re, golden[i].re)
            << ri.mbps << " Mbps, point " << i;
        ASSERT_EQ(got0[i].im, golden[i].im)
            << ri.mbps << " Mbps, point " << i;
    }

    // Optimized: fused must equal the optimized VM byte for byte —
    // including any vectorization tail behavior.
    const std::vector<uint8_t> vm1 =
        compilePipeline(chain(), CompilerOptions::forLevel(OptLevel::All))
            ->runBytes(dataBits);
    auto f1 = compilePipeline(chain(), fusedConf(OptLevel::All));
    EXPECT_EQ(f1->runBytes(dataBits), vm1)
        << ri.mbps << " Mbps (optimized)";

    // Native at --opt all, the configuration phy_link measures: the
    // auto-LUT'd scrambler, encoder and modulator run as lookups inlined
    // into compiled code.  Both the chain above and the exact
    // wifiTxDataComp(rate) program must equal the VM byte for byte.
    const std::vector<uint8_t> vmTx =
        compilePipeline(wifiTxDataComp(rate),
                        CompilerOptions::forLevel(OptLevel::All))
            ->runBytes(dataBits);
    for (bool whole : {false, true}) {
        SCOPED_TRACE(std::to_string(ri.mbps) + " Mbps native, " +
                     (whole ? "wifiTxDataComp" : "chain"));
        CompilerOptions nat = CompilerOptions::forLevel(OptLevel::All);
        nat.backend = Backend::Native;
        CompileReport nrep;
        auto n1 = compilePipeline(whole ? wifiTxDataComp(rate) : chain(),
                                  nat, &nrep);
        EXPECT_GT(nrep.build.lutsBuilt, 0);
        if (!testsupport::nativeUnavailable(Backend::Native)) {
            EXPECT_EQ(nrep.cgen.fallbacks, 0);
            EXPECT_EQ(nrep.cgen.hostBridges, 0)
                << "every TX lookup should be inlined";
        }
        EXPECT_EQ(n1->runBytes(dataBits), whole ? vmTx : vm1);
    }
}

INSTANTIATE_TEST_SUITE_P(AllRates, FusedTxChainGolden,
                         ::testing::Values(Rate::R6, Rate::R9, Rate::R12,
                                           Rate::R18, Rate::R24, Rate::R36,
                                           Rate::R48, Rate::R54));

class FusedRoundTrip : public OnEachIsa<Rate>
{
};

TEST_P(FusedRoundTrip, FusedTxToFusedRxDecodes)
{
    // Fused TX -> channel -> fused RX.  The receiver leans on native
    // blocks (FFT, CCA), so this path also proves kernels run inline in
    // a fused region inside one real pipeline.
    Rate rate = param();
    Rng rng(600 + static_cast<uint64_t>(rate));
    std::vector<uint8_t> payload(72);
    for (auto& b : payload)
        b = static_cast<uint8_t>(rng.next());

    auto tx = compilePipeline(
        wifiTxFrameComp(rate, static_cast<int>(payload.size())),
        fusedConf(OptLevel::None));
    auto txSamples = bytesToSamples(tx->runBytes(bytesToBits(payload)));

    // Identical channel seed to ZiriaRoundTrip: the fused TX must
    // produce the same waveform, so the same channel decodes it.
    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.delaySamples = 220;
    cfg.trailSamples = 120;
    cfg.phaseRad = 0.3;
    cfg.gain = 0.9;
    cfg.seed = 1000 + static_cast<uint64_t>(rate);
    auto rxSamples = channel::applyChannel(txSamples, cfg);

    auto rx = compilePipeline(wifiReceiverComp(),
                              fusedConf(OptLevel::None));
    RunStats st;
    auto bits = rx->runBytes(samplesToBytes(rxSamples), &st);
    ASSERT_TRUE(st.halted) << rateInfo(rate).mbps << " Mbps: no detection";
    ASSERT_EQ(st.ctrl.size(), 4u);
    int32_t crcOk = 0;
    std::memcpy(&crcOk, st.ctrl.data(), 4);
    EXPECT_EQ(crcOk, 1) << rateInfo(rate).mbps << " Mbps: CRC failed";

    auto bytes = bitsToBytes(bits);
    ASSERT_GE(bytes.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), bytes.begin()))
        << rateInfo(rate).mbps << " Mbps: payload mismatch";
}

INSTANTIATE_TEST_SUITE_P(AllRatesOnEachIsa, FusedRoundTrip, eachIsa(rateValues()));

// ------------------------------------------ kernel paths, end to end

TEST(KernelPaths, WholeChainsAreBitIdenticalAcrossPaths)
{
    // Ziria TX (IFFT) -> a channel noisy enough that the Viterbi
    // corrects errors -> Ziria RX (FFT, Viterbi, header decoder), and
    // the Sora control, once per kernel path: every sample, decoded bit
    // and verdict must agree.
    if (!dsp::isaSupported(dsp::Isa::Avx2))
        GTEST_SKIP() << "host has no avx2 kernel path";
    struct Chain
    {
        std::vector<uint8_t> tx, rx, ctrl;
        std::vector<Complex16> soraTx;
        sora::RxResult soraRx;
    };
    for (Rate rate : allRates()) {
        SCOPED_TRACE(rateInfo(rate).mbps);
        Rng rng(1100 + static_cast<uint64_t>(rate));
        std::vector<uint8_t> payload(90);
        for (auto& b : payload)
            b = static_cast<uint8_t>(rng.next());
        channel::ChannelConfig cfg;
        cfg.snrDb = 16.0;
        cfg.delaySamples = 180;
        cfg.trailSamples = 100;
        cfg.phaseRad = 0.2;
        cfg.seed = 1200 + static_cast<uint64_t>(rate);
        auto runOn = [&](dsp::Isa isa) {
            dsp::detail::IsaPin pin(isa);
            Chain c;
            c.tx = compilePipeline(
                       wifiTxFrameComp(rate,
                                       static_cast<int>(payload.size())),
                       CompilerOptions::forLevel(OptLevel::None))
                       ->runBytes(bytesToBits(payload));
            auto rxIn = samplesToBytes(
                channel::applyChannel(bytesToSamples(c.tx), cfg));
            RunStats st;
            c.rx = compilePipeline(wifiReceiverComp(),
                                   CompilerOptions::forLevel(OptLevel::None))
                       ->runBytes(rxIn, &st);
            c.ctrl = st.ctrl;
            c.soraTx = sora::txFrame(payload, rate);
            c.soraRx = sora::rxFrame(
                channel::applyChannel(c.soraTx, cfg));
            return c;
        };
        const Chain base = runOn(dsp::Isa::Base);
        const Chain avx2 = runOn(dsp::Isa::Avx2);
        ASSERT_FALSE(base.rx.empty()) << "the receiver decoded nothing";
        EXPECT_EQ(base.tx, avx2.tx);
        EXPECT_EQ(base.rx, avx2.rx);
        EXPECT_EQ(base.ctrl, avx2.ctrl);
        EXPECT_EQ(base.soraTx, avx2.soraTx);
        EXPECT_EQ(base.soraRx.detected, avx2.soraRx.detected);
        EXPECT_EQ(base.soraRx.crcOk, avx2.soraRx.crcOk);
        EXPECT_EQ(base.soraRx.psduBytes, avx2.soraRx.psduBytes);
    }
}

// ------------------------------------------ whole receivers, one region
//
// Native kernels (FFT, Viterbi, CCA, ...) run inside fused regions, so
// the RX data path and the full receiver each lower to ONE region with
// no VM fallback node.  The fused interpreter and the compiled region
// must reproduce the VM byte for byte, control value included.  Native
// runs at --opt all only (the configuration phy_link measures): each
// data-path rate is a separate cold C++ compile.

[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

void
expectOneRegionMatchesVm(const std::function<CompPtr()>& make,
                         const std::vector<uint8_t>& in)
{
    for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
        RunStats vmSt;
        auto want = compilePipeline(make(), CompilerOptions::forLevel(lvl))
                        ->runBytes(in, &vmSt);
        ASSERT_FALSE(want.empty());
        for (Backend be : {Backend::Fused, Backend::Native}) {
            if (be == Backend::Native && lvl != OptLevel::All)
                continue;
            SCOPED_TRACE(std::string(testsupport::backendName(be)) +
                         " at level " +
                         std::to_string(static_cast<int>(lvl)));
            CompilerOptions opt = CompilerOptions::forLevel(lvl);
            opt.backend = be;
            CompileReport rep;
            auto p = compilePipeline(make(), opt, &rep);
            EXPECT_EQ(rep.fuse.fallbacks, 0);
            EXPECT_EQ(rep.fuse.nodesFused, 1);
            EXPECT_EQ(rep.cgen.fallbacks, 0);
            RunStats st;
            EXPECT_EQ(p->runBytes(in, &st), want);
            EXPECT_EQ(st.halted, vmSt.halted);
            EXPECT_EQ(st.ctrl, vmSt.ctrl);
        }
    }
}

class FusedRxConformance : public ::testing::TestWithParam<Rate>
{
};

TEST_P(FusedRxConformance, DataPathIsOneRegionMatchingVm)
{
    Rate rate = GetParam();
    const int psdu = 100;
    Rng rng(700 + static_cast<uint64_t>(rate));
    std::vector<uint8_t> payload(psdu - 4);
    for (auto& b : payload)
        b = static_cast<uint8_t>(rng.next());
    auto samples =
        sora::txDataSamples(assembleDataBits(payload, rate), rate);
    expectOneRegionMatchesVm([&] { return wifiRxDataComp(rate, psdu); },
                             samplesToBytes(samples));
}

TEST_P(FusedRxConformance, ReceiverIsOneRegionMatchingVm)
{
    Rate rate = GetParam();
    Rng rng(800 + static_cast<uint64_t>(rate));
    std::vector<uint8_t> payload(60);
    for (auto& b : payload)
        b = static_cast<uint8_t>(rng.next());
    channel::ChannelConfig cfg;
    cfg.snrDb = 30.0;
    cfg.delaySamples = 150;
    cfg.trailSamples = 100;
    cfg.seed = 900 + static_cast<uint64_t>(rate);
    auto rxSamples =
        channel::applyChannel(sora::txFrame(payload, rate), cfg);
    expectOneRegionMatchesVm([] { return wifiReceiverComp(); },
                             samplesToBytes(rxSamples));
}

INSTANTIATE_TEST_SUITE_P(AllRates, FusedRxConformance,
                         ::testing::Values(Rate::R6, Rate::R9, Rate::R12,
                                           Rate::R18, Rate::R24, Rate::R36,
                                           Rate::R48, Rate::R54));

} // namespace
} // namespace ziria
