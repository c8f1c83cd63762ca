/**
 * @file
 * Native code-generation backend tests (ctest labels
 * `tier1;cgen;diff;sanitizer`):
 *
 *  - regions and the fallback ladder: a program (each `|>>>|`
 *    partition when threaded) becomes one dlopen'd region with its
 *    native blocks inline, and everything stays bit-identical to the VM;
 *  - the three-backend differential oracle {O0..O3} x {vec} x
 *    {vm,fused,native} on generated programs — the VM is the
 *    semantics, the machine code must match bit-exactly;
 *  - IEEE 802.11a Annex-G conformance executed natively at all eight
 *    rates: golden TX chain (zero fallbacks) and TX -> channel -> RX
 *    round trips;
 *  - the on-disk shared-object cache: miss-then-hit, corrupt
 *    .so/manifest quarantine + recompile, stale-key misses, an object
 *    stamped with the previous ABI refused and recompiled, cache-key
 *    determinism, and the ziria.cgen.* counters;
 *  - the runtime host and units share (zcgen/runtime.h): every built-in
 *    native and the wrapping complex operators byte-identical on all
 *    three backends, the runtime compiling alone as a unit, and one
 *    embedded copy per unit;
 *  - literal indices: in range they compile without a bounds check, out
 *    of range they trap with the interpreter's message on every
 *    backend.
 *
 * Tests that require real machine code gate on
 * zcgen::compilerAvailable(); without a compiler the backend degrades
 * to the bytecode interpreter, which the differential tests still
 * validate.
 */
#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel.h"
#include "dsp/constellation.h"
#include "support/backends.h"
#include "support/diff_runner.h"
#include "support/fault_injector.h"
#include "support/metrics.h"
#include "support/panic.h"
#include "support/rng.h"
#include "support/shapes.h"
#include "wifi/blocks_tx.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zast/builder.h"
#include "zcgen/cgen.h"
#include "zcgen/emit.h"
#include "zexpr/natives.h"
#include "zgen/generator.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;
using namespace wifi;
using difftest::DiffConfig;
using difftest::runDifferential;
using testsupport::burstBlock;
using testsupport::incBlock;
using testsupport::intBytes;
using testsupport::sumNBlock;
using zgen::GenConfig;
using zgen::GenDomain;
using zgen::GenProgram;

// ------------------------------------------------- cache-dir plumbing

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/ziria-cgen-test-XXXXXX";
    char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr) << "mkdtemp failed";
    return dir ? std::string(dir) : std::string();
}

// Every test in this binary compiles into one private cache directory
// (via $ZIRIA_CGEN_CACHE) so runs neither pollute nor depend on the
// user's ~/.cache/ziria/zcgen.  Cache-behavior tests that need a cold
// cache make their own directory and pass it explicitly.
[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

bool
fileExists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

int
countSuffix(const std::string& dir, const std::string& suffix)
{
    DIR* d = opendir(dir.c_str());
    if (!d)
        return 0;
    int n = 0;
    while (struct dirent* e = readdir(d)) {
        std::string name = e->d_name;
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            ++n;
    }
    closedir(d);
    return n;
}

void
scribbleFile(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

// ------------------------------------------------------------ helpers

CompilerOptions
nativeConf(OptLevel lvl = OptLevel::None)
{
    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = Backend::Native;
    return opt;
}

/** A minimal valid translation unit for direct compileUnit tests. */
const std::string kToySource =
    "extern \"C\" int zr_abi(void) { return " +
    std::to_string(zcgen::kZrAbiVersion) + "; }\n"
    "extern \"C\" int zr_toy(int x) { return x + 41; }\n";

// ------------------------------------------------- matrix shape/axes

TEST(NativeMatrix, ShapeAndBackendMapping)
{
    auto m = difftest::nativeMatrix();
    ASSERT_EQ(m.size(), 24u);

    // Config 0 is the unoptimized VM baseline.
    EXPECT_EQ(m[0].optTier, 0);
    EXPECT_FALSE(m[0].vectorize);
    EXPECT_FALSE(m[0].fused);
    EXPECT_FALSE(m[0].native);
    EXPECT_EQ(m[0].options().backend, Backend::Vm);

    int vm = 0, fz = 0, ng = 0;
    for (const DiffConfig& c : m) {
        if (c.native) {
            ++ng;
            EXPECT_EQ(c.options().backend, Backend::Native);
            EXPECT_NE(c.name.find("/ng"), std::string::npos) << c.name;
        } else if (c.fused) {
            ++fz;
            EXPECT_EQ(c.options().backend, Backend::Fused);
        } else {
            ++vm;
            EXPECT_EQ(c.options().backend, Backend::Vm);
        }
    }
    EXPECT_EQ(vm, 8);
    EXPECT_EQ(fz, 8);
    EXPECT_EQ(ng, 8);

    // The backend axis counts as one dimension of distance, so a
    // vm-vs-native divergence at identical flags localizes to codegen.
    DiffConfig a = m[0], b = m[16];
    ASSERT_TRUE(b.native);
    ASSERT_EQ(b.optTier, 0);
    EXPECT_EQ(DiffConfig::distance(a, b), 1);
}

// --------------------------------------------------- region lowering

TEST(NativeLowering, WholeProgramBecomesOneNativeRegion)
{
    CompileReport rep;
    auto p = compilePipeline(pipe(incBlock(1), incBlock(10)),
                             nativeConf(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_EQ(rep.fuse.fallbacks, 0);
    EXPECT_EQ(rep.cgen.regions, 1);
    if (zcgen::compilerAvailable()) {
        EXPECT_EQ(rep.cgen.emitted, 1);
        EXPECT_EQ(rep.cgen.fallbacks, 0);
        EXPECT_EQ(rep.cgen.cacheHits + rep.cgen.cacheMisses, 1);
        EXPECT_EQ(rep.cgen.cacheKey.size(), 16u);
        EXPECT_FALSE(rep.cgen.compiler.empty());
    } else {
        EXPECT_EQ(rep.cgen.fallbacks, 1);
    }

    std::vector<int32_t> in(256);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i * 7 - 100);
    auto bytes = intBytes(in);
    auto vm = compilePipeline(pipe(incBlock(1), incBlock(10)),
                              CompilerOptions::forLevel(OptLevel::None));
    EXPECT_EQ(p->runBytes(bytes), vm->runBytes(bytes));
}

TEST(NativeLowering, NativeBlockJoinsNativeRegion)
{
    // cgen >>> native block >>> cgen: one compiled region that starts
    // and feeds the kernel through its ZrCtx entries — no VM spine, and
    // the kernel calls are not host bridges.
    auto make = [] {
        return pipe(incBlock(1), pipe(burstBlock(), incBlock(10)));
    };
    CompileReport rep;
    auto p = compilePipeline(make(), nativeConf(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_EQ(rep.fuse.fallbacks, 0);
    EXPECT_EQ(rep.cgen.regions, 1);
    EXPECT_EQ(rep.cgen.hostBridges, 0);

    std::vector<int32_t> in(64);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    auto vm = compilePipeline(make(),
                              CompilerOptions::forLevel(OptLevel::None));
    auto want = vm->runBytes(bytes);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(p->runBytes(bytes), want);
}

TEST(NativeLowering, ThreadedPartitionsBecomeSeparateRegions)
{
    CompileReport rep;
    auto p = compileThreadedPipeline(ppipe(incBlock(1), incBlock(2)),
                                     nativeConf(), &rep);
    EXPECT_EQ(rep.cgen.regions, 2);

    std::vector<int32_t> in(512);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(3 * i);
    auto bytes = intBytes(in);
    auto vm = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)),
        CompilerOptions::forLevel(OptLevel::None));

    MemSource srcA(bytes, 4);
    VecSink sinkA(4);
    p->run(srcA, sinkA);
    MemSource srcB(bytes, 4);
    VecSink sinkB(4);
    vm->run(srcB, sinkB);
    EXPECT_EQ(sinkA.data(), sinkB.data());
}

TEST(NativeLowering, MetricsCountersAdvance)
{
    auto& reg = metrics::Registry::global();
    uint64_t emittedBefore = reg.counter("ziria.cgen.emitted").value();
    uint64_t servedBefore = reg.counter("ziria.cgen.cache_hits").value() +
                            reg.counter("ziria.cgen.cache_misses").value();
    uint64_t fallbackBefore = reg.counter("ziria.cgen.fallbacks").value();

    compilePipeline(incBlock(5), nativeConf());

    if (zcgen::compilerAvailable()) {
        EXPECT_GE(reg.counter("ziria.cgen.emitted").value(),
                  emittedBefore + 1);
        EXPECT_GE(reg.counter("ziria.cgen.cache_hits").value() +
                      reg.counter("ziria.cgen.cache_misses").value(),
                  servedBefore + 1);
    } else {
        EXPECT_GE(reg.counter("ziria.cgen.fallbacks").value(),
                  fallbackBefore + 1);
    }
}

// ------------------------------------------- differential equivalence

void
checkNativeSeed(const GenConfig& cfg, uint64_t seed, size_t elems)
{
    GenProgram prog = zgen::genProgram(cfg, seed);
    auto input = zgen::genInput(prog.inDomain, elems, seed ^ 0xD1FF);
    auto make = [&] { return zgen::genProgram(cfg, seed).comp; };
    auto outcome = runDifferential(make, input, difftest::nativeMatrix(),
                                   prog.describe, /*slackBytes=*/4096);
    EXPECT_TRUE(outcome.agree) << "seed=" << seed << "\n" << outcome.report;
    EXPECT_EQ(outcome.configsRun, 24);
    EXPECT_GT(outcome.baselineBytes, 0u)
        << "seed=" << seed << " " << prog.describe;
}

TEST(NativeKernels, KernelsInRegionsAgreeAcrossMatrix)
{
    // A stateful 0-2-outputs-per-input transformer feeding a native
    // computer re-made from a seq binder every iteration, between fused
    // stages: every backend, opt tier and vectorization setting must
    // reproduce the VM byte for byte.
    auto make = [] {
        VarRef n = freshVar("n", Type::int32());
        VarRef s = freshVar("s", Type::int32());
        return pipe(
            pipe(incBlock(1), burstBlock()),
            repeatc(seqc({bindc(n, take(Type::int32())),
                          bindc(s, sumNBlock(var(n) % 3 + 1)),
                          just(emit(var(s)))})));
    };
    std::vector<int32_t> in(1024);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i * 37 % 101);
    auto outcome = runDifferential(make, intBytes(in),
                                   difftest::nativeMatrix(),
                                   "burst >>> sumN computer");
    EXPECT_TRUE(outcome.agree) << outcome.report;
    EXPECT_EQ(outcome.configsRun, 24);
    EXPECT_GT(outcome.baselineBytes, 0u);
}

class NativeBitPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(NativeBitPrograms, VmFusedAndNativeAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Bits;
    cfg.maxStages = 3;
    checkNativeSeed(cfg, static_cast<uint64_t>(GetParam()), 6 * 288 * 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeBitPrograms, ::testing::Range(1, 6));

class NativeInt32Programs : public ::testing::TestWithParam<int>
{
};

TEST_P(NativeInt32Programs, VmFusedAndNativeAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Int32;
    cfg.maxStages = 3;
    checkNativeSeed(cfg, static_cast<uint64_t>(GetParam()), 2048);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeInt32Programs,
                         ::testing::Range(1, 6));

class NativeMixedPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(NativeMixedPrograms, VmFusedAndNativeAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Mixed;
    cfg.maxStages = 4;
    checkNativeSeed(cfg, static_cast<uint64_t>(GetParam()), 4096);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeMixedPrograms,
                         ::testing::Range(1, 5));

// ------------------------------------------------- Annex-G conformance
//
// The same golden vectors test_conformance.cpp locks down for the VM
// and the fused interpreter, executed by dlopen'd machine code.  The
// helper duplicates are intentional: this suite must keep standing on
// its own if the conformance file is reorganized.

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

class NativeTxChainGolden : public ::testing::TestWithParam<Rate>
{
};

TEST_P(NativeTxChainGolden, MatchesGoldenAndVmAtEveryRate)
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

    // Unoptimized native: exact golden match, full length, and — with a
    // compiler present — the whole TX chain as one region with zero
    // interpreter fallbacks.
    CompileReport rep;
    auto n0 = compilePipeline(chain(), nativeConf(OptLevel::None), &rep);
    EXPECT_EQ(rep.fuse.fallbacks, 0)
        << "the TX chain should fuse into one region";
    if (zcgen::compilerAvailable()) {
        EXPECT_EQ(rep.cgen.fallbacks, 0)
            << "the TX chain region should run natively";
    }
    auto got0 = bytesToSamples(n0->runBytes(dataBits));
    ASSERT_EQ(got0.size(), golden.size()) << ri.mbps << " Mbps";
    for (size_t i = 0; i < golden.size(); ++i) {
        ASSERT_EQ(got0[i].re, golden[i].re)
            << ri.mbps << " Mbps, point " << i;
        ASSERT_EQ(got0[i].im, golden[i].im)
            << ri.mbps << " Mbps, point " << i;
    }

    // Optimized: native must equal the optimized VM byte for byte —
    // including any vectorization tail behavior.
    auto vm1 = compilePipeline(chain(),
                               CompilerOptions::forLevel(OptLevel::All));
    auto n1 = compilePipeline(chain(), nativeConf(OptLevel::All));
    EXPECT_EQ(n1->runBytes(dataBits), vm1->runBytes(dataBits))
        << ri.mbps << " Mbps (optimized)";
}

INSTANTIATE_TEST_SUITE_P(AllRates, NativeTxChainGolden,
                         ::testing::Values(Rate::R6, Rate::R9, Rate::R12,
                                           Rate::R18, Rate::R24, Rate::R36,
                                           Rate::R48, Rate::R54));

class NativeRoundTrip : public ::testing::TestWithParam<Rate>
{
};

TEST_P(NativeRoundTrip, NativeTxToNativeRxDecodes)
{
    // Native TX -> channel -> native RX.  The receiver leans on native
    // blocks (FFT, CCA), so this also proves compiled regions run
    // their kernels inline inside one real pipeline.
    Rate rate = GetParam();
    Rng rng(600 + static_cast<uint64_t>(rate));
    std::vector<uint8_t> payload(72);
    for (auto& b : payload)
        b = static_cast<uint8_t>(rng.next());

    auto tx = compilePipeline(
        wifiTxFrameComp(rate, static_cast<int>(payload.size())),
        nativeConf(OptLevel::None));
    auto txSamples = bytesToSamples(tx->runBytes(bytesToBits(payload)));

    // Identical channel seed to ZiriaRoundTrip (test_conformance.cpp):
    // the native TX must produce the same waveform, so the same channel
    // decodes it.
    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.delaySamples = 220;
    cfg.trailSamples = 120;
    cfg.phaseRad = 0.3;
    cfg.gain = 0.9;
    cfg.seed = 1000 + static_cast<uint64_t>(rate);
    auto rxSamples = channel::applyChannel(txSamples, cfg);

    auto rx = compilePipeline(wifiReceiverComp(),
                              nativeConf(OptLevel::None));
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

INSTANTIATE_TEST_SUITE_P(AllRates, NativeRoundTrip,
                         ::testing::Values(Rate::R6, Rate::R9, Rate::R12,
                                           Rate::R18, Rate::R24, Rate::R36,
                                           Rate::R48, Rate::R54));

// ------------------------------------------------ shared-object cache

TEST(CgenCache, MissThenHitRoundTrip)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    auto cold = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(cold.lib, nullptr) << cold.error;
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_GT(cold.compileSec, 0.0);
    ASSERT_EQ(cold.key.size(), 16u);
    EXPECT_TRUE(fileExists(dir + "/" + cold.key + ".so"));
    EXPECT_TRUE(fileExists(dir + "/" + cold.key + ".manifest"));
    EXPECT_TRUE(fileExists(dir + "/" + cold.key + ".cc"));

    auto fn = reinterpret_cast<int (*)(int)>(cold.lib->sym("zr_toy"));
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn(1), 42);

    auto warm = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(warm.lib, nullptr) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.key, cold.key);
    auto fn2 = reinterpret_cast<int (*)(int)>(warm.lib->sym("zr_toy"));
    ASSERT_NE(fn2, nullptr);
    EXPECT_EQ(fn2(2), 43);
}

TEST(CgenCache, CorruptSharedObjectIsQuarantinedAndRecompiled)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    std::string key;
    {
        auto cold = zcgen::compileUnit(kToySource, dir);
        ASSERT_NE(cold.lib, nullptr) << cold.error;
        key = cold.key;
    }  // dlclose before corrupting: the object must not stay mapped
    scribbleFile(dir + "/" + key + ".so", "definitely not an ELF");

    auto again = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(again.lib, nullptr) << again.error;
    EXPECT_FALSE(again.cacheHit) << "a torn object must not be served";
    EXPECT_GE(countSuffix(dir, ".bad"), 1)
        << "the corrupt entry should be quarantined, not deleted";
    auto fn = reinterpret_cast<int (*)(int)>(again.lib->sym("zr_toy"));
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn(0), 41);

    // The reinstalled entry serves hits again.
    auto warm = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(warm.lib, nullptr);
    EXPECT_TRUE(warm.cacheHit);
}

TEST(CgenCache, CorruptManifestIsQuarantinedAndRecompiled)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    auto cold = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(cold.lib, nullptr) << cold.error;
    scribbleFile(dir + "/" + cold.key + ".manifest",
                 "ZCG1\nkey 0000000000000000\n");

    auto again = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(again.lib, nullptr) << again.error;
    EXPECT_FALSE(again.cacheHit);
    EXPECT_GE(countSuffix(dir, ".bad"), 1);
}

TEST(CgenCache, DifferentSourceMissesWithDifferentKey)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    auto a = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(a.lib, nullptr) << a.error;
    std::string other = kToySource +
                        "extern \"C\" int zr_toy2(int x) { return x; }\n";
    auto b = zcgen::compileUnit(other, dir);
    ASSERT_NE(b.lib, nullptr) << b.error;
    EXPECT_FALSE(b.cacheHit) << "a stale key must not hit";
    EXPECT_NE(a.key, b.key);
}

TEST(CgenCache, WarmPipelineRecompileIsAPureHit)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    CompilerOptions opt = nativeConf();
    opt.cgenCacheDir = dir;  // --cgen-cache-dir wins over the env var

    auto& reg = metrics::Registry::global();
    uint64_t hitsBefore = reg.counter("ziria.cgen.cache_hits").value();
    uint64_t missBefore = reg.counter("ziria.cgen.cache_misses").value();

    CompileReport cold;
    auto p1 = compilePipeline(pipe(incBlock(3), incBlock(4)), opt, &cold);
    EXPECT_EQ(cold.cgen.cacheMisses, 1);
    EXPECT_EQ(cold.cgen.compiled, 1);
    EXPECT_EQ(cold.cgen.cacheHits, 0);
    EXPECT_GT(cold.cgen.compileSec, 0.0);

    CompileReport warm;
    auto p2 = compilePipeline(pipe(incBlock(3), incBlock(4)), opt, &warm);
    EXPECT_GE(warm.cgen.cacheHits, 1);
    EXPECT_EQ(warm.cgen.compiled, 0) << "a warm cache must not recompile";
    EXPECT_EQ(warm.cgen.cacheKey, cold.cgen.cacheKey);

    EXPECT_GE(reg.counter("ziria.cgen.cache_hits").value(),
              hitsBefore + 1);
    EXPECT_GE(reg.counter("ziria.cgen.cache_misses").value(),
              missBefore + 1);

    std::vector<int32_t> in(128);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    EXPECT_EQ(p1->runBytes(bytes), p2->runBytes(bytes));
}

std::string
readText(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(CgenCache, StaleAbiUnitIsRefusedAndTheRegionStillRuns)
{
    // An object stamped with the previous ABI version loads with the
    // wrong ZrCtx layout, so the loader must refuse it — freshly
    // compiled or served from the cache — and the region must still
    // produce the VM's bytes.
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    const std::string stamp = "int zr_abi(void) { return " +
                              std::to_string(zcgen::kZrAbiVersion) +
                              "; }";
    const std::string staleStamp =
        "int zr_abi(void) { return " +
        std::to_string(zcgen::kZrAbiVersion - 1) + "; }";

    const std::string staleToy =
        "extern \"C\" " + staleStamp +
        "\nextern \"C\" int zr_toy(int x) { return x + 41; }\n";
    auto toy = zcgen::compileUnit(staleToy, makeTempDir());
    EXPECT_EQ(toy.lib, nullptr) << "a stale-ABI object must not load";
    EXPECT_NE(toy.error.find("ABI"), std::string::npos) << toy.error;

    // Plant a stale object under the key a real region will look up.
    auto make = [] { return pipe(incBlock(3), incBlock(4)); };
    std::string dir = makeTempDir();
    CompilerOptions opt = nativeConf();
    opt.cgenCacheDir = dir;
    std::string key;
    {
        CompileReport cold;
        compilePipeline(make(), opt, &cold);
        ASSERT_EQ(cold.cgen.compiled, 1);
        key = cold.cgen.cacheKey;
    }  // dlclose before replacing the object
    std::string source = readText(dir + "/" + key + ".cc");
    size_t at = source.find(stamp);
    ASSERT_NE(at, std::string::npos);
    source.replace(at, stamp.size(), staleStamp);
    std::string staleDir = makeTempDir();
    auto stale = zcgen::compileUnit(source, staleDir);
    ASSERT_EQ(stale.lib, nullptr);
    std::string manifest =
        readText(staleDir + "/" + stale.key + ".manifest");
    at = manifest.find("key " + stale.key);
    ASSERT_NE(at, std::string::npos);
    manifest.replace(at, 4 + stale.key.size(), "key " + key);
    scribbleFile(dir + "/" + key + ".so",
                 readText(staleDir + "/" + stale.key + ".so"));
    scribbleFile(dir + "/" + key + ".manifest", manifest);

    CompileReport rep;
    auto p = compilePipeline(make(), opt, &rep);
    EXPECT_EQ(rep.cgen.cacheHits, 0) << "the stale object was served";
    EXPECT_EQ(rep.cgen.fallbacks, 0);
    EXPECT_EQ(rep.cgen.compiled, 1);
    EXPECT_GE(countSuffix(dir, ".bad"), 1);

    std::vector<int32_t> in(64);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i * 5 - 40);
    auto bytes = intBytes(in);
    EXPECT_EQ(p->runBytes(bytes),
              compilePipeline(make(),
                              CompilerOptions::forLevel(OptLevel::None))
                  ->runBytes(bytes));
}

TEST(CgenCache, CacheKeyHashIsDeterministic)
{
    // FNV-1a 64 reference vectors; the key must be stable across runs
    // or the on-disk cache would never hit.
    EXPECT_EQ(zcgen::fnv1a64Hex(""), "cbf29ce484222325");
    EXPECT_EQ(zcgen::fnv1a64Hex("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(zcgen::fnv1a64Hex(kToySource),
              zcgen::fnv1a64Hex(kToySource));
    EXPECT_NE(zcgen::fnv1a64Hex("a"), zcgen::fnv1a64Hex("b"));
}

// ------------------------------------------------------ shared runtime

/** Little-endian bytes of one scalar. */
template <typename T>
std::vector<uint8_t>
le(T v)
{
    std::vector<uint8_t> b(sizeof(T));
    std::memcpy(b.data(), &v, sizeof(T));
    return b;
}

template <typename T>
std::vector<uint8_t>
cplx(T re, T im)
{
    std::vector<uint8_t> b = le(re);
    std::vector<uint8_t> i = le(im);
    b.insert(b.end(), i.begin(), i.end());
    return b;
}

std::vector<uint8_t>
c16(int16_t re, int16_t im)
{
    return cplx(re, im);
}

std::vector<uint8_t>
c32(int32_t re, int32_t im)
{
    return cplx(re, im);
}

template <typename T>
T
readAt(const std::vector<uint8_t>& bytes, size_t off)
{
    T v;
    EXPECT_LE(off + sizeof(T), bytes.size());
    std::memcpy(&v, bytes.data() + off, sizeof(T));
    return v;
}

/**
 * `repeat { x <- take : in; emit build(x) }` run on every backend at
 * OptLevel::None: fused and native must print the VM's bytes as one
 * region, and native code must call no host bridge.  Returns the VM's
 * bytes.
 */
std::vector<uint8_t>
recordMapOnEveryBackend(const TypePtr& in,
                        const std::function<ExprPtr(const VarRef&)>& build,
                        const std::vector<uint8_t>& input)
{
    auto make = [&] {
        VarRef x = freshVar("x", in);
        return repeatc(seqc({bindc(x, take(in)), just(emit(build(x)))}));
    };
    std::vector<uint8_t> want;
    for (Backend be : testsupport::kAllBackends) {
        if (testsupport::nativeUnavailable(be))
            continue;
        SCOPED_TRACE(testsupport::backendName(be));
        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.backend = be;
        CompileReport rep;
        auto out = compilePipeline(make(), opt, &rep)->runBytes(input);
        if (be == Backend::Vm) {
            want = out;
            continue;
        }
        EXPECT_EQ(out, want);
        EXPECT_EQ(rep.fuse.nodesFused, 1);
        if (be == Backend::Native) {
            EXPECT_EQ(rep.cgen.fallbacks, 0);
            EXPECT_EQ(rep.cgen.hostBridges, 0);
        }
    }
    return want;
}

/** One built-in native and its argument rows (bytes per parameter). */
struct NativeCase
{
    const char* name;
    std::vector<std::vector<std::vector<uint8_t>>> rows;
};

TEST(SharedRuntime, EveryBuiltinNativeAgreesAcrossBackends)
{
    // One record per row carries the arguments of every built-in; the
    // output record carries every result.  A built-in with fewer rows
    // repeats its last one.
    const double nan = std::nan("");
    const std::vector<NativeCase> cases = {
        {"sin", {{le(0.0)}, {le(-1.5)}, {le(1e300)}, {le(nan)}}},
        {"cos", {{le(0.0)}, {le(-1.5)}, {le(1e300)}, {le(nan)}}},
        {"sqrt", {{le(2.0)}, {le(-1.0)}, {le(-0.0)}}},
        {"exp", {{le(1.0)}, {le(-746.0)}, {le(710.0)}}},
        {"log", {{le(10.0)}, {le(-1.0)}, {le(0.0)}}},
        {"atan2",
         {{le(1.0), le(-1.0)}, {le(-0.0), le(-1.0)}, {le(0.0), le(0.0)}}},
        {"cmul16",
         {{c16(-32768, -32768), c16(-32768, -32768), le<int32_t>(0)},
          {c16(-32768, -32768), c16(-32768, -32768), le<int32_t>(31)},
          {c16(-32768, -32768), c16(-32768, -32768), le<int32_t>(32)},
          {c16(-32768, -32768), c16(-32768, -32768), le<int32_t>(-1)},
          {c16(1000, 2000), c16(-300, 50), le<int32_t>(6)}}},
        {"cmul_conj16",
         {{c16(-32768, -32768), c16(-32768, -32768), le<int32_t>(0)},
          {c16(-32768, -32768), c16(-32768, -32768), le<int32_t>(31)},
          {c16(-32768, -32768), c16(-32768, -32768), le<int32_t>(32)},
          {c16(-32768, -32768), c16(-32768, -32768), le<int32_t>(-1)},
          {c16(1000, 2000), c16(-300, 50), le<int32_t>(6)}}},
        {"cabs2",
         {{c16(-32768, -32768)}, {c16(3, -4)}, {c16(32767, -32768)}}},
        {"conj16", {{c16(5, -32768)}, {c16(-32768, 32767)}}},
        {"cadd32",
         {{c32(INT32_MAX, INT32_MIN), c32(1, -1)},
          {c32(-5, 7), c32(2, 3)}}},
        {"sat16",
         {{le<int32_t>(32767)}, {le<int32_t>(32768)}, {le<int32_t>(-32768)},
          {le<int32_t>(-32769)}, {le<int32_t>(INT32_MIN)}}},
        {"creal", {{c16(-32768, 7)}}},
        {"cimag", {{c16(7, -32768)}}},
        {"mk_complex16", {{le<int16_t>(-32768), le<int16_t>(32767)}}},
    };
    std::set<std::string> covered;
    for (const NativeCase& c : cases)
        covered.insert(c.name);
    for (const FunRef& f : natives::builtins())
        EXPECT_EQ(covered.count(f->name), 1u) << "no case for " << f->name;
    ASSERT_EQ(covered.size(), natives::builtins().size());

    std::vector<FunRef> funs;
    std::vector<std::pair<std::string, TypePtr>> inFields, outFields;
    size_t rows = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
        FunRef f = natives::lookup(cases[i].name);
        ASSERT_NE(f, nullptr) << cases[i].name;
        funs.push_back(f);
        for (size_t j = 0; j < f->params.size(); ++j)
            inFields.push_back({"a" + std::to_string(i) + "_" +
                                    std::to_string(j),
                                f->params[j]->type});
        outFields.push_back({cases[i].name, f->retType});
        rows = std::max(rows, cases[i].rows.size());
    }
    TypePtr inT = Type::strct("NativeArgs", inFields);
    TypePtr outT = Type::strct("NativeResults", outFields);

    std::vector<uint8_t> input;
    for (size_t r = 0; r < rows; ++r) {
        for (size_t i = 0; i < cases.size(); ++i) {
            const auto& row =
                cases[i].rows[std::min(r, cases[i].rows.size() - 1)];
            ASSERT_EQ(row.size(), funs[i]->params.size()) << cases[i].name;
            for (size_t j = 0; j < row.size(); ++j) {
                ASSERT_EQ(row[j].size(),
                          funs[i]->params[j]->type->byteWidth())
                    << cases[i].name << " arg " << j;
                input.insert(input.end(), row[j].begin(), row[j].end());
            }
        }
    }
    ASSERT_EQ(input.size(), rows * inT->byteWidth());

    auto out = recordMapOnEveryBackend(
        inT,
        [&](const VarRef& x) {
            std::vector<ExprPtr> results;
            for (size_t i = 0; i < funs.size(); ++i) {
                std::vector<ExprPtr> args;
                for (size_t j = 0; j < funs[i]->params.size(); ++j)
                    args.push_back(field(var(x), "a" + std::to_string(i) +
                                                     "_" +
                                                     std::to_string(j)));
                results.push_back(call(funs[i], std::move(args)));
            }
            return structLit(outT, std::move(results));
        },
        input);
    ASSERT_EQ(out.size(), rows * outT->byteWidth());

    // The wrapped and saturated values every backend must reproduce.
    auto at = [&](size_t row, const char* name) {
        return row * outT->byteWidth() +
               static_cast<size_t>(outT->fieldOffset(name));
    };
    auto c16At = [&](size_t row, const char* name) {
        return std::make_pair(readAt<int16_t>(out, at(row, name)),
                              readAt<int16_t>(out, at(row, name) + 2));
    };
    using P16 = std::pair<int16_t, int16_t>;
    const int16_t sat[] = {32767, 32767, -32768, -32768, -32768};
    for (size_t r = 0; r < 5; ++r)
        EXPECT_EQ(readAt<int16_t>(out, at(r, "sat16")), sat[r]) << r;
    EXPECT_EQ(c16At(0, "conj16"), P16(5, -32768));
    EXPECT_EQ(c16At(1, "conj16"), P16(-32768, -32767));
    EXPECT_EQ(readAt<int32_t>(out, at(0, "cabs2")), INT32_MIN);
    EXPECT_EQ(readAt<int32_t>(out, at(1, "cabs2")), 25);
    EXPECT_EQ(readAt<int32_t>(out, at(2, "cabs2")), 2147418113);
    // (-32768, -32768)^2 = (0, 2^31): the imaginary part wraps to
    // INT32_MIN; shift counts are taken & 31, so 32 is 0 and -1 is 31.
    const P16 sq[] = {{0, 0}, {0, -1}, {0, 0}, {0, -1}};
    const P16 sqConj[] = {{0, 0}, {-1, 0}, {0, 0}, {-1, 0}};
    for (size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(c16At(r, "cmul16"), sq[r]) << r;
        EXPECT_EQ(c16At(r, "cmul_conj16"), sqConj[r]) << r;
    }
    EXPECT_EQ(c16At(4, "cmul16"), P16(-6250, -8594));
    EXPECT_EQ(c16At(4, "cmul_conj16"), P16(-3125, -10157));
    EXPECT_EQ(readAt<int32_t>(out, at(0, "cadd32")), INT32_MIN);
    EXPECT_EQ(readAt<int32_t>(out, at(0, "cadd32") + 4), INT32_MAX);
    EXPECT_TRUE(std::isnan(readAt<double>(out, at(1, "sqrt"))));
    EXPECT_TRUE(std::isnan(readAt<double>(out, at(1, "log"))));
    EXPECT_EQ(readAt<double>(out, at(2, "log")), -HUGE_VAL);
    EXPECT_EQ(readAt<int16_t>(out, at(0, "creal")), -32768);
    EXPECT_EQ(readAt<int16_t>(out, at(0, "cimag")), -32768);
    EXPECT_EQ(c16At(0, "mk_complex16"), P16(-32768, 32767));
}

TEST(SharedRuntime, ComplexOverflowWrapsOnEveryBackend)
{
    // Complex operators run on 32-bit parts that wrap: (-32768,
    // -32768)^2 reaches 2^31, complex32 sums and products overflow,
    // negating INT32_MIN and shifting negative parts stay defined.
    // Before the shared runtime the VM's closures computed these in
    // signed int — undefined behaviour a UBSan build aborts on.
    TypePtr inT = Type::strct(
        "WrapArgs", {{"a", Type::complex16()}, {"b", Type::complex16()},
                     {"p", Type::complex32()}, {"q", Type::complex32()},
                     {"s", Type::int32()}});
    TypePtr outT = Type::strct(
        "WrapResults",
        {{"mul16", Type::complex16()}, {"shl16", Type::complex16()},
         {"neg16", Type::complex16()}, {"add32", Type::complex32()},
         {"sub32", Type::complex32()}, {"mul32", Type::complex32()},
         {"shl32", Type::complex32()}, {"shr32", Type::complex32()},
         {"neg32", Type::complex32()}, {"sat16", Type::complex16()}});
    std::vector<uint8_t> input;
    for (const auto& part :
         {c16(-32768, -32768), c16(-32768, -32768),
          c32(INT32_MAX, INT32_MIN), c32(1, -1), le<int32_t>(1),
          c16(3, -4), c16(-2, 7), c32(INT32_MIN, INT32_MAX), c32(1, -1),
          le<int32_t>(33)})
        input.insert(input.end(), part.begin(), part.end());

    auto out = recordMapOnEveryBackend(
        inT,
        [&](const VarRef& x) {
            auto f = [&](const char* n) { return field(var(x), n); };
            return structLit(
                outT, {f("a") * f("b"), f("a") << f("s"), neg(f("a")),
                       f("p") + f("q"), f("p") - f("q"), f("p") * f("q"),
                       f("p") << f("s"), f("p") >> f("s"), neg(f("p")),
                       cast(Type::complex16(), f("p"))});
        },
        input);
    ASSERT_EQ(out.size(), 2 * outT->byteWidth());

    using P = std::pair<int32_t, int32_t>;
    auto get = [&](size_t row, const char* name) {
        size_t off = row * outT->byteWidth() +
                     static_cast<size_t>(outT->fieldOffset(name));
        if (outT->fieldType(name)->kind() == TypeKind::Complex16)
            return P(readAt<int16_t>(out, off),
                     readAt<int16_t>(out, off + 2));
        return P(readAt<int32_t>(out, off), readAt<int32_t>(out, off + 4));
    };
    EXPECT_EQ(get(0, "mul16"), P(0, 0));
    EXPECT_EQ(get(0, "shl16"), P(0, 0));
    EXPECT_EQ(get(0, "neg16"), P(-32768, -32768));
    EXPECT_EQ(get(0, "add32"), P(INT32_MIN, INT32_MAX));
    EXPECT_EQ(get(0, "sub32"), P(INT32_MAX - 1, INT32_MIN + 1));
    EXPECT_EQ(get(0, "mul32"), P(-1, 1));
    EXPECT_EQ(get(0, "shl32"), P(-2, 0));
    EXPECT_EQ(get(0, "shr32"), P(1073741823, -1073741824));
    EXPECT_EQ(get(0, "neg32"), P(-INT32_MAX, INT32_MIN));
    EXPECT_EQ(get(0, "sat16"), P(32767, -32768));
    // Row 1: the shift count 33 is taken & 31.
    EXPECT_EQ(get(1, "mul16"), P(22, 29));
    EXPECT_EQ(get(1, "shl16"), P(6, -8));
    EXPECT_EQ(get(1, "neg16"), P(-3, 4));
    EXPECT_EQ(get(1, "add32"), P(INT32_MIN + 1, INT32_MAX - 1));
    EXPECT_EQ(get(1, "sub32"), P(INT32_MAX, INT32_MIN));
    EXPECT_EQ(get(1, "mul32"), P(-1, -1));
    EXPECT_EQ(get(1, "shl32"), P(0, -2));
    EXPECT_EQ(get(1, "shr32"), P(-1073741824, 1073741823));
    EXPECT_EQ(get(1, "neg32"), P(INT32_MIN, -INT32_MAX));
    EXPECT_EQ(get(1, "sat16"), P(-32768, 32767));
}

TEST(SharedRuntime, HostNativeNamedLikeABuiltinKeepsItsBody)
{
    // Native code inlines the runtime body only for the built-in's own
    // FunRef: a host native that is also called "sin" stays a bridge to
    // its lambda, as the VM runs it.
    FunRef mySin = makeNativeFun(
        "sin", {freshVar("x", Type::real())}, Type::real(),
        [](const uint8_t* const*, uint8_t* ret) {
            const double v = 42.0;
            std::memcpy(ret, &v, 8);
        });
    for (Backend be : testsupport::kAllBackends) {
        if (testsupport::nativeUnavailable(be))
            continue;
        SCOPED_TRACE(testsupport::backendName(be));
        VarRef x = freshVar("x", Type::real());
        CompPtr prog = repeatc(seqc({bindc(x, take(Type::real())),
                                     just(emit(call(mySin, {var(x)})))}));
        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.backend = be;
        CompileReport rep;
        auto out = compilePipeline(prog, opt, &rep)->runBytes(le(0.0));
        ASSERT_EQ(out.size(), 8u);
        EXPECT_EQ(readAt<double>(out, 0), 42.0);
        if (be == Backend::Native) {
            EXPECT_EQ(rep.cgen.hostBridges, 1);
        }
    }
}

TEST(SharedRuntime, RuntimeCompilesAloneAsAUnit)
{
    // Units build with -std=c++17 while the host builds the same header
    // as C++20.  A construct only the host accepts must fail here, with
    // the compiler's diagnostic, rather than leave every region on the
    // interpreter.
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    auto r = zcgen::compileUnit(
        std::string(zcgen::runtimeSource()) + zcgen::abiStamp(),
        makeTempDir());
    EXPECT_NE(r.lib, nullptr)
        << "zcgen/runtime.h does not build as a generated unit:\n"
        << r.error;
}

TEST(SharedRuntime, EmittedUnitEmbedsTheRuntimeOnce)
{
    // The unit's context struct is the host's header, embedded once and
    // stamped with the ABI version the loader checks.
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();
    CompilerOptions opt = nativeConf();
    opt.cgenCacheDir = dir;
    CompileReport rep;
    compilePipeline(pipe(incBlock(3), incBlock(4)), opt, &rep);
    ASSERT_EQ(rep.cgen.compiled, 1);
    const std::string source = readText(dir + "/" + rep.cgen.cacheKey + ".cc");
    auto count = [&](const std::string& needle) {
        int n = 0;
        for (size_t at = source.find(needle); at != std::string::npos;
             at = source.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("struct ZrCtx"), 1);
    EXPECT_EQ(count("struct ZrKernel"), 1);
    EXPECT_EQ(count("static inline ZrC32 zr_cmul("), 1);
    EXPECT_EQ(count("static inline void zr_nat_cmul16("), 1);
    EXPECT_EQ(count("int zr_abi(void) { return 4; }"), 1);
    EXPECT_NE(source.find(zcgen::runtimeSource()), std::string::npos);
}

// ----------------------------------------------- literal index checks

/** repeat { x <- take; emit [x, x+1, x+2, x+3][i] } */
CompPtr
pickBlock(ExprPtr i)
{
    VarRef x = freshVar("x", Type::int32());
    return repeatc(seqc(
        {bindc(x, take(Type::int32())),
         just(emit(idx(arrayLit({var(x), var(x) + 1, var(x) + 2,
                                 var(x) + 3}),
                       std::move(i))))}));
}

TEST(LiteralIndices, InRangeLiteralCompilesWithoutABoundsCheck)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    auto trapSites = [](CompPtr c) {
        std::string dir = makeTempDir();
        CompilerOptions opt = nativeConf();
        opt.cgenCacheDir = dir;
        CompileReport rep;
        auto p = compilePipeline(std::move(c), opt, &rep);
        EXPECT_EQ(rep.cgen.compiled, 1);
        const std::string src =
            readText(dir + "/" + rep.cgen.cacheKey + ".cc");
        int n = 0;
        for (size_t at = src.find("zr_trap_index(zc, ");
             at != std::string::npos;
             at = src.find("zr_trap_index(zc, ", at + 1))
            ++n;
        return std::make_pair(n, p->runBytes(intBytes({1, 5, 9})));
    };
    auto lit = trapSites(pickBlock(cInt(2)));
    EXPECT_EQ(lit.first, 0);
    EXPECT_EQ(lit.second, intBytes({3, 7, 11}));
    auto dyn = trapSites(pickBlock(cInt(3) - cInt(1)));
    EXPECT_EQ(dyn.second, intBytes({3, 7, 11}));
    EXPECT_GE(dyn.first, 1) << "a computed index keeps its check";
}

TEST(LiteralIndices, OutOfRangeLiteralStillTrapsWithTheSameMessage)
{
    for (Backend b : testsupport::kAllBackends) {
        SCOPED_TRACE(testsupport::backendName(b));
        CompilerOptions opt = nativeConf();
        opt.backend = b;
        auto p = compilePipeline(pickBlock(cInt(5)), opt);
        try {
            p->runBytes(intBytes({1, 2}));
            ADD_FAILURE() << "no trap";
        } catch (const FatalError& e) {
            EXPECT_STREQ(e.what(),
                         "array index out of bounds: 5 not in [0, 4)");
        }
    }
}

} // namespace
} // namespace ziria
