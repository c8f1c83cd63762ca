/**
 * @file
 * Golden checks over the shipped `.zir` example sources: every file must
 * parse, compile at every optimization level, behave sensibly, and
 * produce the VM's bytes on the fused and native backends.
 */
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "support/backends.h"
#include "support/rng.h"
#include "wifi/native_blocks.h"
#include "zir/compiler.h"
#include "zparse/parser.h"

namespace ziria {
namespace {

using testsupport::backendName;
using testsupport::nativeUnavailable;

// Native cells compile into one private cache directory (via
// $ZIRIA_CGEN_CACHE), not the user's ~/.cache/ziria/zcgen.
[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path
                           << " (run tests from the repo root or build/)";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
findExampleDir()
{
    for (const char* p : {"examples/zir/", "../examples/zir/",
                          "../../examples/zir/"}) {
        std::ifstream probe(std::string(p) + "scrambler.zir");
        if (probe.good())
            return p;
    }
    return "examples/zir/";
}

class ZirSources : public ::testing::TestWithParam<const char*>
{
};

TEST_P(ZirSources, ParsesAndCompilesAtEveryLevel)
{
    wifi::registerWifiNatives();
    std::string src = readFile(findExampleDir() + GetParam());
    ASSERT_FALSE(src.empty());
    for (OptLevel lvl :
         {OptLevel::None, OptLevel::Vectorize, OptLevel::All}) {
        CompPtr c;
        ASSERT_NO_THROW(c = parseComp(src)) << GetParam();
        ASSERT_NO_THROW(compilePipeline(c, CompilerOptions::forLevel(lvl)))
            << GetParam() << " level " << static_cast<int>(lvl);
    }
}

/**
 * Deterministic input of @p elems unvectorized stream elements of
 * @p width bytes: 0/1 bits for a bit stream, small non-negative ints
 * (the first one, 3, is decimate.zir's factor) for an int stream.
 * Vectorized builds read the same bytes in wider elements.
 */
std::vector<uint8_t>
sourceInput(size_t width, size_t elems)
{
    std::vector<uint8_t> in(width * elems);
    if (width == 1) {
        Rng rng(7);
        for (auto& b : in)
            b = rng.bit();
        return in;
    }
    EXPECT_EQ(width, 4u) << "input is neither bit nor int";
    for (size_t i = 0; i < elems && width == 4; ++i) {
        const int32_t v = static_cast<int32_t>((i * 7 + 3) % 11);
        std::memcpy(in.data() + i * 4, &v, 4);
    }
    return in;
}

TEST_P(ZirSources, FusedAndNativeMatchTheVm)
{
    // Every file, including the two `|>>>|` splits run single-threaded,
    // is one region on fused and native and prints the VM's bytes.
    wifi::registerWifiNatives();
    std::string src = readFile(findExampleDir() + GetParam());
    ASSERT_FALSE(src.empty());
    const auto input = sourceInput(
        compilePipeline(parseComp(src),
                        CompilerOptions::forLevel(OptLevel::None))
            ->inWidth(),
        48 * 64);
    for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
        auto vm = compilePipeline(parseComp(src),
                                  CompilerOptions::forLevel(lvl));
        auto want = vm->runBytes(input);
        ASSERT_FALSE(want.empty()) << GetParam();
        for (Backend be : {Backend::Fused, Backend::Native}) {
            if (nativeUnavailable(be))
                continue;
            SCOPED_TRACE(std::string(GetParam()) + " on " +
                         backendName(be) + " at level " +
                         std::to_string(static_cast<int>(lvl)));
            CompilerOptions opt = CompilerOptions::forLevel(lvl);
            opt.backend = be;
            CompileReport rep;
            auto p = compilePipeline(parseComp(src), opt, &rep);
            EXPECT_EQ(rep.fuse.nodesFused, 1);
            EXPECT_EQ(rep.cgen.fallbacks, 0);
            EXPECT_EQ(p->runBytes(input), want);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Files, ZirSources,
                         ::testing::Values("scrambler.zir",
                                           "decimate.zir",
                                           "mini_ofdm_tx.zir",
                                           "pipeline.zir",
                                           "running_sum.zir"));

TEST(ZirSources, ScramblerMatchesReferenceSequence)
{
    std::string src = readFile(findExampleDir() + "scrambler.zir");
    CompPtr c = parseComp(src);
    auto p = compilePipeline(c, CompilerOptions::forLevel(OptLevel::All));
    std::vector<uint8_t> zeros(508, 0);  // multiple of the 8-bit groups?
    zeros.resize(512, 0);
    auto out = p->runBytes(zeros);
    // Scrambling zeros yields the raw scrambler sequence.
    auto seq = wifi::scramblerSequence(static_cast<int>(out.size()));
    EXPECT_TRUE(std::equal(out.begin(), out.end(), seq.begin()));
}

TEST(ZirSources, MiniOfdmProducesWholeSymbols)
{
    wifi::registerWifiNatives();
    std::string src = readFile(findExampleDir() + "mini_ofdm_tx.zir");
    CompPtr c = parseComp(src);
    auto p = compilePipeline(c, CompilerOptions::forLevel(OptLevel::None));
    Rng rng(3);
    std::vector<uint8_t> bits(48 * 5);
    for (auto& b : bits)
        b = rng.bit();
    auto out = p->runBytes(bits);
    // 5 symbols x 80 samples x 4 bytes.
    EXPECT_EQ(out.size(), 5u * 80u * 4u);
}

} // namespace
} // namespace ziria
