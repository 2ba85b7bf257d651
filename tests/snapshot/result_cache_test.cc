/**
 * @file
 * Unit tests for the RESULT cache's record (src/driver/result_cache):
 * a saved result loads back field for field and saves to the same
 * bytes, each outcome comes from the check that names it, and the
 * config hash covers every field.  Every truncation, an appended
 * byte and seeded bit flips make a record Corrupt, and so do a bad
 * magic or version, a field running past the end and a byte left
 * over even with the CRC fixed up.  A valid record under another
 * hash or label is Stale, and a record in the sectioned format of
 * version 2 is quarantined and simulated again, once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "config/system_config.hh"
#include "driver/result_cache.hh"
#include "driver/sweep.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t sampleHash = 0x1234'5678'9abc'def0ull;
const std::string sampleRun = "Reuse_Stash-smoke";

/** Where the fields after the run label start in a sample record. */
constexpr std::size_t bodyAt = 8 + 4 + 8 + 4 + 17;
/** The error count: after the validated flag and seven u64s. */
constexpr std::size_t errorCountAt = bodyAt + 1 + 7 * 8;

/** A result with every field set, each counter to its own value. */
RunResult
sampleResult()
{
    RunResult r;
    r.validated = false;
    r.gpuCycles = 123456;
    r.perf.events = 1001;
    r.perf.simTicks = 1002;
    r.perf.hostSeconds = 2.5; // host time: never stored
    r.perf.shape = {1003, 1004, 1005, 1006};
    r.errors = {"cpu1: load @0x10000000 = 0x3, expected 0x4", "",
                "third"};
    std::uint64_t next = 0x0102'0304'0506'0708ull;
    SystemStats::visitGroups(r.stats, [&next](const char *, auto &g) {
        std::decay_t<decltype(g)>::visit(
            g, [&next](const char *, Counter &c) { c = next++; });
    });
    r.stats.gpuCycles = 777;
    r.stats.numGpuCus = 15;
    return r;
}

/** Every stored field of @p r, one comparable string. */
std::string
fingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << "validated=" << r.validated << " gpuCycles=" << r.gpuCycles
       << " events=" << r.perf.events << " simTicks=" << r.perf.simTicks
       << " shape=" << r.perf.shape.peakLiveEvents << ","
       << r.perf.shape.poolChunks << "," << r.perf.shape.wheelInserts
       << "," << r.perf.shape.farInserts << "\n";
    for (const std::string &e : r.errors)
        os << "error: " << e << "\n";
    for (const auto &[key, value] : r.stats.flatten())
        os << key << "=" << value << "\n";
    return os.str();
}

/** A file of the running test's own: ctest runs tests in parallel. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "result_cache_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + name + ".snap";
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(b.data()),
             std::streamsize(b.size()));
}

/** The sample result's record image. */
std::vector<std::uint8_t>
sampleImage()
{
    const std::string path = tempPath("sample");
    saveResult(path, sampleHash, sampleRun, sampleResult());
    return readBytes(path);
}

/** Loads @p image as the sample run's record. */
ResultLoad
load(const std::vector<std::uint8_t> &image, RunResult *out = nullptr)
{
    const std::string path = tempPath("probe");
    writeBytes(path, image);
    RunResult scratch;
    return loadResult(path, sampleHash, sampleRun, out ? *out : scratch);
}

std::uint64_t
getLe(const std::vector<std::uint8_t> &b, std::size_t at, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint64_t(b[at + i]) << (8 * i);
    return v;
}

void
putLe(std::vector<std::uint8_t> &b, std::size_t at, std::uint64_t v,
      unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        b[at + i] = std::uint8_t(v >> (8 * i));
}

/** Rewrites the trailing CRC over the bytes before it. */
void
reseal(std::vector<std::uint8_t> &b)
{
    putLe(b, b.size() - 4, crc32(b.data(), b.size() - 4), 4);
}

TEST(SnapshotFormatTest, TypedValuesRoundTrip)
{
    RunResult loaded;
    ASSERT_EQ(load(sampleImage(), &loaded), ResultLoad::Ok);
    EXPECT_EQ(fingerprint(loaded), fingerprint(sampleResult()));
    EXPECT_EQ(loaded.perf.hostSeconds, 0.0);
    EXPECT_EQ(loaded.energy.total(), 0.0)
        << "the caller recomputes the energy";
}

TEST(SnapshotFormatTest, FileRoundTripIsByteIdentical)
{
    const std::vector<std::uint8_t> image = sampleImage();
    ASSERT_GT(image.size(), errorCountAt + 4);
    EXPECT_EQ(std::string(image.begin(), image.begin() + 8), "STASHSNP");
    EXPECT_EQ(getLe(image, 8, 4), resultVersion);
    EXPECT_EQ(getLe(image, 12, 8), sampleHash);
    EXPECT_EQ(getLe(image, 20, 4), sampleRun.size());
    EXPECT_EQ(getLe(image, errorCountAt, 4), 3u);
    EXPECT_EQ(getLe(image, image.size() - 4, 4),
              crc32(image.data(), image.size() - 4));

    // Loading and saving again gives the same bytes, and the write
    // leaves no temp file behind.
    RunResult loaded;
    ASSERT_EQ(load(image, &loaded), ResultLoad::Ok);
    const std::string again = tempPath("again");
    saveResult(again, sampleHash, sampleRun, loaded);
    EXPECT_EQ(readBytes(again), image);
    EXPECT_FALSE(fs::exists(again + ".tmp"));
}

TEST(SnapshotFormatTest, MissingFileIsMissing)
{
    const std::string path = tempPath("absent");
    fs::remove(path);
    RunResult out;
    EXPECT_EQ(loadResult(path, sampleHash, sampleRun, out),
              ResultLoad::Missing);
}

TEST(SnapshotFormatTest, HashOrLabelMismatchIsStale)
{
    const std::string path = tempPath("stale");
    writeBytes(path, sampleImage());
    RunResult out;
    out.gpuCycles = 42;
    EXPECT_EQ(loadResult(path, sampleHash + 1, sampleRun, out),
              ResultLoad::Stale);
    EXPECT_EQ(loadResult(path, sampleHash, "Reuse_Stash-quick", out),
              ResultLoad::Stale);
    EXPECT_EQ(loadResult(path, sampleHash, sampleRun + "x", out),
              ResultLoad::Stale);
    EXPECT_EQ(out.gpuCycles, 42u) << "a stale record is never read";
}

TEST(SnapshotFormatTest, EveryTruncationIsDetected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    for (std::size_t n = 0; n < image.size(); ++n) {
        const std::vector<std::uint8_t> cut(image.begin(),
                                            image.begin() + n);
        EXPECT_EQ(load(cut), ResultLoad::Corrupt)
            << "truncation to " << n << " bytes";
    }
}

TEST(SnapshotFormatTest, TrailingGarbageIsDetected)
{
    std::vector<std::uint8_t> image = sampleImage();
    image.push_back(0x00);
    EXPECT_EQ(load(image), ResultLoad::Corrupt);
}

TEST(SnapshotFormatTest, RandomBitFlipsAreDetected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    // Seeded, so the trial set is reproducible.  Each trial flips one
    // bit anywhere in the image, the CRC included.
    std::mt19937 rng(20150613);
    std::uniform_int_distribution<std::size_t> pos(0,
                                                   image.size() - 1);
    std::uniform_int_distribution<unsigned> bit(0, 7);
    for (int trial = 0; trial < 256; ++trial) {
        std::vector<std::uint8_t> flipped = image;
        flipped[pos(rng)] ^= std::uint8_t(1u << bit(rng));
        EXPECT_EQ(load(flipped), ResultLoad::Corrupt)
            << "bit flip in trial " << trial;
    }
}

TEST(SnapshotFormatTest, BadMagicOrVersionIsCorrupt)
{
    // Resealed, so only the magic or the version is wrong.
    for (const std::uint32_t version : {2u, 4u}) {
        std::vector<std::uint8_t> image = sampleImage();
        putLe(image, 8, version, 4);
        reseal(image);
        EXPECT_EQ(load(image), ResultLoad::Corrupt) << version;
    }
    std::vector<std::uint8_t> image = sampleImage();
    image[7] = 'Q';
    reseal(image);
    EXPECT_EQ(load(image), ResultLoad::Corrupt);
}

TEST(SnapshotFormatTest, OverReadIsStructuredError)
{
    // One error more than the record holds: the stats then run past
    // the end.
    std::vector<std::uint8_t> moreErrors = sampleImage();
    putLe(moreErrors, errorCountAt, 4, 4);
    reseal(moreErrors);
    EXPECT_EQ(load(moreErrors), ResultLoad::Corrupt);

    // The first error's length reaching past the end.
    std::vector<std::uint8_t> longString = sampleImage();
    putLe(longString, errorCountAt + 4, longString.size(), 4);
    reseal(longString);
    EXPECT_EQ(load(longString), ResultLoad::Corrupt);
}

TEST(SnapshotFormatTest, PartialConsumptionIsStructuredError)
{
    // A byte the fields do not account for, before a valid CRC.
    std::vector<std::uint8_t> image = sampleImage();
    image.insert(image.end() - 4, 0x00);
    reseal(image);
    EXPECT_EQ(load(image), ResultLoad::Corrupt);

    // One error fewer than the record holds leaves bytes over.
    std::vector<std::uint8_t> fewer = sampleImage();
    putLe(fewer, errorCountAt, 2, 4);
    reseal(fewer);
    EXPECT_EQ(load(fewer), ResultLoad::Corrupt);
}

TEST(SnapshotFormatTest, InflatedLengthFieldIsRejected)
{
    // Extreme counts and lengths end in an over-read, without sizing
    // an allocation from them first.
    for (const std::size_t at : {std::size_t(20), errorCountAt,
                                 errorCountAt + 4}) {
        std::vector<std::uint8_t> image = sampleImage();
        putLe(image, at, 0xffff'ffffu, 4);
        reseal(image);
        EXPECT_EQ(load(image), ResultLoad::Corrupt) << "offset " << at;
    }
}

/**
 * Re-wraps a version 3 record in the sectioned container that
 * version 2 wrote: the same header fields, a one-entry section table
 * ("result", payload size, payload CRC) behind a header CRC, then
 * the payload, which holds exactly the fields version 3 stores after
 * the run label.
 */
std::vector<std::uint8_t>
versionTwoImage(const std::vector<std::uint8_t> &v3,
                std::size_t labelBytes)
{
    const std::size_t payloadAt = 8 + 4 + 8 + 4 + labelBytes;
    const std::vector<std::uint8_t> payload(v3.begin() + payloadAt,
                                            v3.end() - 4);
    std::vector<std::uint8_t> b(v3.begin(), v3.begin() + 8);
    const auto append = [&b](std::uint64_t v, unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            b.push_back(std::uint8_t(v >> (8 * i)));
    };
    append(2, 4);
    b.insert(b.end(), v3.begin() + 12, v3.begin() + payloadAt);
    append(1, 4);
    append(6, 4);
    b.insert(b.end(), {'r', 'e', 's', 'u', 'l', 't'});
    append(payload.size(), 8);
    append(crc32(payload.data(), payload.size()), 4);
    append(crc32(b.data(), b.size()), 4);
    b.insert(b.end(), payload.begin(), payload.end());
    return b;
}

TEST(SnapshotFormatTest, VersionTwoResultIsQuarantinedAndReSimulatedOnce)
{
    const std::string dir = ::testing::TempDir() + "result_cache_v2";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::atomic<int> builds{0};
    RunSpec spec;
    spec.workload = "Reuse";
    spec.org = MemOrg::Cache;
    spec.scale = workloads::Scale::Smoke;
    spec.make = [&builds](const workloads::WorkloadParams &p) {
        ++builds;
        return workloads::WorkloadFactory::instance().make("Reuse", p);
    };
    SweepOptions opts;
    opts.threads = 1;
    opts.stateDir = dir;
    const auto first = SweepDriver(opts).run({spec});
    ASSERT_TRUE(first[0].result.validated);
    const std::string label = "Reuse_Cache-smoke";
    const std::string path = dir + "/RESULT_" + label + ".snap";
    const std::vector<std::uint8_t> v3 = readBytes(path);
    ASSERT_FALSE(v3.empty());
    writeBytes(path, versionTwoImage(v3, label.size()));

    SweepCounters counters;
    const auto rerun = SweepDriver(opts).run({spec}, &counters);
    EXPECT_EQ(builds.load(), 2) << "the old record must not be served";
    EXPECT_EQ(counters.cachedRuns, 0u);
    EXPECT_EQ(counters.corruptSnapshots, 1u);
    EXPECT_EQ(counters.quarantinedArtifacts, 1u);
    EXPECT_TRUE(fs::exists(dir + "/QUARANTINE/RESULT_" + label + ".snap"));
    EXPECT_EQ(readBytes(path), v3) << "the rerun caches a new record";

    SweepCounters again;
    SweepDriver(opts).run({spec}, &again);
    EXPECT_EQ(builds.load(), 2) << "simulated again once, then served";
    EXPECT_EQ(again.cachedRuns, 1u);
    EXPECT_EQ(first[0].result.gpuCycles, rerun[0].result.gpuCycles);
}

TEST(SnapshotConfigHashTest, SensitiveToEveryVerifyField)
{
    // Each instrument can change what a run reports (the injector its
    // timing, the checker and watchdog its failures), so a result
    // cached under one verify setting must never match another.
    const SystemConfig base = SystemConfig::microbenchmarkDefault();
    const std::uint64_t h = configHash(base);
    const std::vector<void (*)(VerifyConfig &)> edits = {
        [](VerifyConfig &v) { v.protocolChecker = !v.protocolChecker; },
        [](VerifyConfig &v) { v.watchdog = !v.watchdog; },
        [](VerifyConfig &v) { v.watchdogCheckTicks += 1; },
        [](VerifyConfig &v) { v.watchdogStallChecks += 1; },
        [](VerifyConfig &v) { v.faultInjection = !v.faultInjection; },
        [](VerifyConfig &v) { v.faultSeed += 1; },
        [](VerifyConfig &v) { v.faultDelayPermille += 1; },
        [](VerifyConfig &v) { v.faultMaxDelayCycles += 1; },
        [](VerifyConfig &v) { v.faultDupPermille += 1; },
        [](VerifyConfig &v) { v.faultDupDelayCycles += 1; },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        SystemConfig c = base;
        edits[i](c.verify);
        EXPECT_NE(configHash(c), h) << "verify field " << i;
    }
}

TEST(SnapshotConfigHashTest, SensitiveToSimulatedState)
{
    // One edit per top-level SystemConfig field, in declaration
    // order: a field the hash leaves out would let a cached result
    // be served for a machine that was never simulated.
    const SystemConfig base = SystemConfig::microbenchmarkDefault();
    const std::uint64_t h = configHash(base);
    const std::vector<std::pair<const char *, void (*)(SystemConfig &)>>
        edits = {
            {"meshWidth", [](SystemConfig &c) { c.meshWidth += 1; }},
            {"meshHeight", [](SystemConfig &c) { c.meshHeight += 1; }},
            {"numGpuCus", [](SystemConfig &c) { c.numGpuCus += 1; }},
            {"numCpuCores", [](SystemConfig &c) { c.numCpuCores += 1; }},
            {"memOrg",
             [](SystemConfig &c) { c.memOrg = MemOrg::ScratchGD; }},
            {"l1Bytes", [](SystemConfig &c) { c.l1Bytes *= 2; }},
            {"l1Assoc", [](SystemConfig &c) { c.l1Assoc *= 2; }},
            {"l1Mshrs", [](SystemConfig &c) { c.l1Mshrs += 1; }},
            {"l1HitCycles", [](SystemConfig &c) { c.l1HitCycles += 1; }},
            {"localBytes", [](SystemConfig &c) { c.localBytes *= 2; }},
            {"stashMapEntries",
             [](SystemConfig &c) { c.stashMapEntries += 1; }},
            {"vpMapEntries", [](SystemConfig &c) { c.vpMapEntries += 1; }},
            {"stashChunkBytes",
             [](SystemConfig &c) { c.stashChunkBytes *= 2; }},
            {"stashTranslationCycles",
             [](SystemConfig &c) { c.stashTranslationCycles += 1; }},
            {"localHitCycles",
             [](SystemConfig &c) { c.localHitCycles += 1; }},
            {"stashReplicationOpt",
             [](SystemConfig &c) {
                 c.stashReplicationOpt = !c.stashReplicationOpt;
             }},
            {"llcBankBytes", [](SystemConfig &c) { c.llcBankBytes *= 2; }},
            {"llcAssoc", [](SystemConfig &c) { c.llcAssoc *= 2; }},
            {"llcBankCycles", [](SystemConfig &c) { c.llcBankCycles += 1; }},
            {"routerCycles", [](SystemConfig &c) { c.routerCycles += 1; }},
            {"linkCycles", [](SystemConfig &c) { c.linkCycles += 1; }},
            {"nocFlitsPerCycle",
             [](SystemConfig &c) { c.nocFlitsPerCycle += 1; }},
            {"memBackend",
             [](SystemConfig &c) { c.memBackend.dramCycles += 1; }},
            {"maxResidentTbsPerCu",
             [](SystemConfig &c) { c.maxResidentTbsPerCu += 1; }},
            {"maxWarpsPerCu", [](SystemConfig &c) { c.maxWarpsPerCu += 1; }},
            {"cpuOutstanding",
             [](SystemConfig &c) { c.cpuOutstanding += 1; }},
            {"verify",
             [](SystemConfig &c) {
                 c.verify.protocolChecker = !c.verify.protocolChecker;
             }},
        };
    for (const auto &[field, edit] : edits) {
        SystemConfig c = base;
        edit(c);
        EXPECT_NE(configHash(c), h) << field;
    }
}

} // namespace
} // namespace stashsim
