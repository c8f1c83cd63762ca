/**
 * @file
 * Durable checkpoint store tests (ctest label `checkpoint`): the
 * crash-safe on-disk envelope (docs/ROBUSTNESS.md, "Durable
 * checkpoints & live migration") under hostile conditions — truncated
 * files, CRC mismatches, bit-flipped headers, out-of-order
 * generations, a concurrent writer's leftover tmp file — every one of
 * which must quarantine and fall back, never crash.  Plus the solo
 * crash-resume property in-process: a run killed mid-stream (simulated
 * by a throwing sink) resumes from the newest valid generation with
 * byte-identical concatenated output on the vm, fused and native
 * backends.
 */
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/backends.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "zexec/ckpt_store.h"
#include "zexec/pipeline.h"
#include "zir/compiler.h"
#include "zparse/parser.h"

namespace ziria {
namespace {

[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new testsupport::PrivateCgenCache);

/** The paper's Figure 3 scrambler — 7 bits of state per element. */
const char* kScramblerSrc = R"(
let comp scrambler() =
    var scrmbl_st : arr[7] bit := {'1,'1,'1,'1,'1,'1,'1} in
    repeat {
        seq { (x : bit) <- take : bit
            ; (tmp : bit) <- return (scrmbl_st[3] ^ scrmbl_st[0])
            ; do { scrmbl_st[0, 6] := scrmbl_st[1, 6];
                   scrmbl_st[6] := tmp; }
            ; emit (x ^ tmp)
            }
    }

scrambler()
)";

uint64_t
ctrValue(const char* name)
{
    return metrics::Registry::global().counter(name).value();
}

/** A scratch store directory unique to this process and test. */
std::string
scratchDir(const char* tag)
{
    static int seq = 0;
    return std::string("/tmp/ziria_test_ckpt_store.") +
           std::to_string(::getpid()) + "." + tag + "." +
           std::to_string(seq++);
}

/** Recursive best-effort rm -rf for the scratch dirs above. */
void
nukeDir(const std::string& path)
{
    DIR* d = ::opendir(path.c_str());
    if (!d) {
        ::unlink(path.c_str());
        return;
    }
    while (struct dirent* e = ::readdir(d)) {
        std::string n = e->d_name;
        if (n == "." || n == "..")
            continue;
        nukeDir(path + "/" + n);
    }
    ::closedir(d);
    ::rmdir(path.c_str());
}

std::string
keyDir(const CkptStore& store, const std::string& key)
{
    return store.dir() + "/v1/" + key;
}

/** Names in @p dir ending with @p suffix (no dot-entries). */
std::vector<std::string>
listSuffix(const std::string& dir, const std::string& suffix)
{
    std::vector<std::string> out;
    DIR* d = ::opendir(dir.c_str());
    if (!d)
        return out;
    while (struct dirent* e = ::readdir(d)) {
        std::string n = e->d_name;
        if (n.size() >= suffix.size() &&
            n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0)
            out.push_back(n);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<uint8_t>
readFile(const std::string& path)
{
    std::vector<uint8_t> out;
    FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return out;
}

void
writeFile(const std::string& path, const std::vector<uint8_t>& bytes)
{
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** Build a valid ZDK1 envelope around @p payload (the store's layout). */
std::vector<uint8_t>
makeEnvelope(const std::vector<uint8_t>& payload)
{
    std::vector<uint8_t> env;
    auto putU32 = [&](uint32_t v) {
        for (int i = 0; i < 4; ++i)
            env.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    putU32(kCkptFileMagic);
    putU32(kCkptFileVersion);
    uint64_t len = payload.size();
    for (int i = 0; i < 8; ++i)
        env.push_back(static_cast<uint8_t>(len >> (8 * i)));
    putU32(crc32Ieee(payload.data(), payload.size()));
    env.insert(env.end(), payload.begin(), payload.end());
    return env;
}

std::string
genName(uint64_t gen)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "ckpt-%016llx.zck",
                  static_cast<unsigned long long>(gen));
    return buf;
}

std::vector<uint8_t>
bytesOf(const char* s)
{
    return std::vector<uint8_t>(s, s + std::strlen(s));
}

// ------------------------------------------------------- happy path

TEST(CkptStore, SaveLoadRoundTripBumpsCounters)
{
    std::string dir = scratchDir("roundtrip");
    CkptStore store(dir);
    uint64_t saved0 = ctrValue("ziria.ckpt.disk.saved");
    uint64_t loaded0 = ctrValue("ziria.ckpt.disk.loaded");

    std::vector<uint8_t> payload = bytesOf("hello durable world");
    std::string err;
    ASSERT_TRUE(store.save("k1", payload, &err)) << err;
    EXPECT_EQ(ctrValue("ziria.ckpt.disk.saved"), saved0 + 1);

    std::vector<uint8_t> got;
    ASSERT_TRUE(store.load("k1", got, &err)) << err;
    EXPECT_EQ(got, payload);
    EXPECT_EQ(ctrValue("ziria.ckpt.disk.loaded"), loaded0 + 1);

    // No stray tmp files survive a clean save.
    EXPECT_TRUE(listSuffix(keyDir(store, "k1"), ".tmp").empty());
    nukeDir(dir);
}

TEST(CkptStore, LoadOfMissingKeyIsAFreshStart)
{
    std::string dir = scratchDir("missing");
    CkptStore store(dir);
    std::vector<uint8_t> got;
    std::string err;
    EXPECT_FALSE(store.load("never-saved", got, &err));
    nukeDir(dir);
}

TEST(CkptStore, InvalidKeysAreRejected)
{
    EXPECT_FALSE(CkptStore::validKey(""));
    EXPECT_FALSE(CkptStore::validKey(".dotfirst"));
    EXPECT_FALSE(CkptStore::validKey("has space"));
    EXPECT_FALSE(CkptStore::validKey("slash/attack"));
    EXPECT_FALSE(CkptStore::validKey("..traversal"));
    EXPECT_FALSE(CkptStore::validKey(std::string(65, 'a')));
    EXPECT_TRUE(CkptStore::validKey("ok-key_1.2"));
    EXPECT_TRUE(CkptStore::validKey(std::string(64, 'a')));
}

TEST(CkptStore, RetentionWindowGcsOldestGenerations)
{
    std::string dir = scratchDir("gc");
    CkptStore store(dir);
    uint64_t gc0 = ctrValue("ziria.ckpt.disk.gc");

    for (int i = 0; i < 7; ++i) {
        std::vector<uint8_t> payload = bytesOf("gen payload");
        payload.push_back(static_cast<uint8_t>(i));
        ASSERT_TRUE(store.save("k", payload));
    }
    std::vector<std::string> kept = listSuffix(keyDir(store, "k"), ".zck");
    EXPECT_EQ(kept.size(), kCkptRetainGenerations);
    EXPECT_EQ(ctrValue("ziria.ckpt.disk.gc"),
              gc0 + (7 - kCkptRetainGenerations));

    // The survivor set is the newest window and load returns its top.
    std::vector<uint8_t> got;
    ASSERT_TRUE(store.load("k", got));
    EXPECT_EQ(got.back(), 6);
    nukeDir(dir);
}

TEST(CkptStore, RemoveDropsEveryGeneration)
{
    std::string dir = scratchDir("remove");
    CkptStore store(dir);
    ASSERT_TRUE(store.save("k", bytesOf("a")));
    ASSERT_TRUE(store.save("k", bytesOf("b")));
    store.remove("k");
    std::vector<uint8_t> got;
    EXPECT_FALSE(store.load("k", got));
    EXPECT_TRUE(listSuffix(keyDir(store, "k"), ".zck").empty());
    nukeDir(dir);
}

// -------------------------------------------------- hostile on-disk

TEST(CkptStore, TruncatedNewestQuarantinesAndFallsBack)
{
    std::string dir = scratchDir("truncate");
    CkptStore store(dir);
    uint64_t q0 = ctrValue("ziria.ckpt.disk.quarantined");
    ASSERT_TRUE(store.save("k", bytesOf("older but intact")));
    ASSERT_TRUE(store.save("k", bytesOf("newest, soon truncated")));

    std::string kd = keyDir(store, "k");
    std::string newest = kd + "/" + listSuffix(kd, ".zck").back();
    std::vector<uint8_t> file = readFile(newest);
    ASSERT_GT(file.size(), 8u);
    file.resize(file.size() / 2);  // mid-payload truncation
    writeFile(newest, file);

    std::vector<uint8_t> got;
    ASSERT_TRUE(store.load("k", got));
    EXPECT_EQ(got, bytesOf("older but intact"));
    EXPECT_EQ(ctrValue("ziria.ckpt.disk.quarantined"), q0 + 1);
    EXPECT_EQ(listSuffix(kd, ".bad").size(), 1u);
    nukeDir(dir);
}

TEST(CkptStore, BitFlippedBodyFailsCrcAndFallsBack)
{
    std::string dir = scratchDir("crc");
    CkptStore store(dir);
    uint64_t q0 = ctrValue("ziria.ckpt.disk.quarantined");
    ASSERT_TRUE(store.save("k", bytesOf("good generation")));
    ASSERT_TRUE(store.save("k", bytesOf("about to be flipped")));

    std::string kd = keyDir(store, "k");
    std::string newest = kd + "/" + listSuffix(kd, ".zck").back();
    std::vector<uint8_t> file = readFile(newest);
    ASSERT_GT(file.size(), 21u);
    file[20] ^= 0x40;  // one bit inside the payload body
    writeFile(newest, file);

    std::vector<uint8_t> got;
    ASSERT_TRUE(store.load("k", got));
    EXPECT_EQ(got, bytesOf("good generation"));
    EXPECT_EQ(ctrValue("ziria.ckpt.disk.quarantined"), q0 + 1);
    nukeDir(dir);
}

TEST(CkptStore, BadMagicQuarantines)
{
    std::string dir = scratchDir("magic");
    CkptStore store(dir);
    uint64_t q0 = ctrValue("ziria.ckpt.disk.quarantined");
    ASSERT_TRUE(store.save("k", bytesOf("survivor")));
    ASSERT_TRUE(store.save("k", bytesOf("victim")));

    std::string kd = keyDir(store, "k");
    std::string newest = kd + "/" + listSuffix(kd, ".zck").back();
    std::vector<uint8_t> file = readFile(newest);
    file[0] ^= 0xFF;  // header bit-flip: wrong magic
    writeFile(newest, file);

    std::vector<uint8_t> got;
    ASSERT_TRUE(store.load("k", got));
    EXPECT_EQ(got, bytesOf("survivor"));
    EXPECT_EQ(ctrValue("ziria.ckpt.disk.quarantined"), q0 + 1);
    nukeDir(dir);
}

TEST(CkptStore, EveryGenerationCorruptMeansFreshStartNotCrash)
{
    std::string dir = scratchDir("allbad");
    CkptStore store(dir);
    uint64_t q0 = ctrValue("ziria.ckpt.disk.quarantined");
    ASSERT_TRUE(store.save("k", bytesOf("one")));
    ASSERT_TRUE(store.save("k", bytesOf("two")));

    std::string kd = keyDir(store, "k");
    for (const std::string& n : listSuffix(kd, ".zck")) {
        std::vector<uint8_t> file = readFile(kd + "/" + n);
        file.resize(4);  // short envelope
        writeFile(kd + "/" + n, file);
    }
    std::vector<uint8_t> got;
    std::string err;
    EXPECT_FALSE(store.load("k", got, &err));
    EXPECT_EQ(ctrValue("ziria.ckpt.disk.quarantined"), q0 + 2);
    EXPECT_EQ(listSuffix(kd, ".bad").size(), 2u);

    // The key is usable again: a fresh save starts a new lineage.
    ASSERT_TRUE(store.save("k", bytesOf("reborn")));
    ASSERT_TRUE(store.load("k", got));
    EXPECT_EQ(got, bytesOf("reborn"));
    nukeDir(dir);
}

TEST(CkptStore, NumericGenerationOrderBeatsDirectoryOrder)
{
    std::string dir = scratchDir("order");
    CkptStore store(dir);
    ASSERT_TRUE(store.save("k", bytesOf("seed lineage")));
    std::string kd = keyDir(store, "k");

    // Hand-plant valid generations out of creation order: an old gen 2
    // written AFTER a newer gen 23 must still lose to it.
    writeFile(kd + "/" + genName(23), makeEnvelope(bytesOf("newest")));
    writeFile(kd + "/" + genName(2), makeEnvelope(bytesOf("stale")));

    std::vector<uint8_t> got;
    ASSERT_TRUE(store.load("k", got));
    EXPECT_EQ(got, bytesOf("newest"));

    // And the next save continues numerically past the top.
    ASSERT_TRUE(store.save("k", bytesOf("next")));
    ASSERT_TRUE(store.load("k", got));
    EXPECT_EQ(got, bytesOf("next"));
    std::vector<std::string> names = listSuffix(kd, ".zck");
    EXPECT_NE(std::find(names.begin(), names.end(), genName(24)),
              names.end());
    nukeDir(dir);
}

TEST(CkptStore, ConcurrentWriterTmpFileIsIgnored)
{
    std::string dir = scratchDir("tmp");
    CkptStore store(dir);
    ASSERT_TRUE(store.save("k", bytesOf("real checkpoint")));
    std::string kd = keyDir(store, "k");

    // A crashed (or still-running) writer's tmp sibling: garbage bytes,
    // never renamed into place.  Scans must skip it entirely.
    std::string tmp = kd + "/.tmp-99999-" + genName(7);
    writeFile(tmp, bytesOf("partial garbage write"));

    uint64_t q0 = ctrValue("ziria.ckpt.disk.quarantined");
    std::vector<uint8_t> got;
    ASSERT_TRUE(store.load("k", got));
    EXPECT_EQ(got, bytesOf("real checkpoint"));
    EXPECT_EQ(ctrValue("ziria.ckpt.disk.quarantined"), q0);

    // Saving alongside it works and leaves the foreign tmp alone.
    ASSERT_TRUE(store.save("k", bytesOf("second")));
    EXPECT_FALSE(readFile(tmp).empty());
    nukeDir(dir);
}

// ------------------------------------------- solo crash-resume, e2e

/** Collects output runs and throws on the one that reaches a byte
 *  budget, having taken none of it — the in-process stand-in for
 *  kill -9 mid-run. */
class CrashingSink : public OutputSink
{
  public:
    explicit CrashingSink(size_t crashAtBytes) : budget_(crashAtBytes) {}

    void
    putRun(const uint8_t* elems, size_t n, size_t width) override
    {
        if (data_.size() + n * width >= budget_)
            throw std::runtime_error("simulated crash");
        data_.insert(data_.end(), elems, elems + n * width);
    }

    const std::vector<uint8_t>& data() const { return data_; }

  private:
    size_t budget_;
    std::vector<uint8_t> data_;
};

void
durableResumeByteIdentity(Backend backend)
{
    CompPtr program = parseComp(kScramblerSrc);
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.backend = backend;
    opt.checkpoint.interval = 64;

    Rng rng(7);
    std::vector<uint8_t> input(4096);
    for (auto& b : input)
        b = rng.bit();

    // Fault-free reference.
    auto clean = compilePipeline(program, opt, nullptr);
    std::vector<uint8_t> expect = clean->runBytes(input);

    const std::string tag =
        std::string("resume-") + testsupport::backendName(backend);
    std::string dir = scratchDir(tag.c_str());
    CkptStore store(dir);
    const std::string key = "solo-resume";

    // "Crash" run: the sink dies mid-stream, past several cadences.
    auto p1 = compilePipeline(program, opt, nullptr);
    p1->setDurable(&store, key);
    const size_t inW = p1->inWidth();
    const size_t outW = p1->outWidth();
    MemSource src1(input, inW);
    CrashingSink sink1(1500 * outW);
    EXPECT_THROW(p1->run(src1, sink1), std::runtime_error);

    // The durable generation survived the crash.
    std::vector<uint8_t> peek;
    ASSERT_TRUE(store.load(key, peek));

    // Resume in a fresh process image: new pipeline, restore, feed the
    // input past the restored consumed count, truncate the first run's
    // output to the restored emitted count, concatenate.
    auto p2 = compilePipeline(program, opt, nullptr);
    p2->setDurable(&store, key);
    uint64_t consumed = 0, emitted = 0;
    ASSERT_TRUE(p2->restoreDurable(consumed, emitted));
    ASSERT_LE(consumed * inW, input.size());
    ASSERT_LE(emitted * outW, sink1.data().size());

    MemSource src2(input.data() + consumed * inW,
                   input.size() - consumed * inW, inW);
    VecSink sink2(outW);
    p2->run(src2, sink2);

    std::vector<uint8_t> got(sink1.data().begin(),
                             sink1.data().begin() +
                                 static_cast<long>(emitted * outW));
    got.insert(got.end(), sink2.data().begin(), sink2.data().end());
    EXPECT_EQ(got, expect) << "resumed output diverged ("
                           << testsupport::backendName(backend) << ")";

    // Orderly completion retired the key: no stale resume next start.
    std::vector<uint8_t> after;
    EXPECT_FALSE(store.load(key, after));
    nukeDir(dir);
}

TEST(DurableResume, ByteIdenticalAfterCrashVm)
{
    durableResumeByteIdentity(Backend::Vm);
}

TEST(DurableResume, ByteIdenticalAfterCrashFused)
{
    durableResumeByteIdentity(Backend::Fused);
}

TEST(DurableResume, ByteIdenticalAfterCrashNative)
{
    if (testsupport::nativeUnavailable(Backend::Native))
        GTEST_SKIP() << "no C++ compiler on this host";
    durableResumeByteIdentity(Backend::Native);
}

} // namespace
} // namespace ziria
