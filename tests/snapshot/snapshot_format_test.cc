/**
 * @file
 * Unit tests for the RESULT cache's container format: typed round
 * trips, manifest handling, the config hash, and — most importantly —
 * robustness: every
 * truncation and every bit flip of a valid image must surface as a
 * structured SnapshotError naming the failing section, never as
 * undefined behavior or silently-wrong data.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "config/system_config.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{
namespace
{

SnapshotWriter
sampleWriter()
{
    SnapshotWriter w;
    w.configHash = 0x1234'5678'9abc'def0ull;
    w.workload = "sample";
    w.beginSection("alpha");
    w.u8(0x42);
    w.u32(0xdeadbeef);
    w.u64(0x0123'4567'89ab'cdefull);
    w.b(true);
    w.str("hello snapshot");
    w.endSection();
    w.beginSection("beta");
    for (std::uint32_t i = 0; i < 64; ++i)
        w.u32(i * i);
    w.endSection();
    return w;
}

TEST(SnapshotFormatTest, TypedValuesRoundTrip)
{
    SnapshotReader r(sampleWriter().serialize());
    EXPECT_EQ(r.configHash(), 0x1234'5678'9abc'def0ull);
    EXPECT_EQ(r.workload(), "sample");

    r.openSection("alpha");
    EXPECT_EQ(r.u8(), 0x42);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123'4567'89ab'cdefull);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.str(), "hello snapshot");
    r.closeSection();

    r.openSection("beta");
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(r.u32(), i * i);
    r.closeSection();
}

TEST(SnapshotFormatTest, SectionNamesAndLookup)
{
    // Sections are found by name, whatever their on-disk order.
    SnapshotReader r(sampleWriter().serialize());
    r.verifyAllSections();
    r.openSection("beta");
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(r.u32(), i * i);
    r.closeSection();
    r.openSection("alpha");
    EXPECT_EQ(r.u8(), 0x42);
}

TEST(SnapshotFormatTest, MissingSectionIsStructuredError)
{
    SnapshotReader r(sampleWriter().serialize());
    try {
        r.openSection("gamma");
        FAIL() << "openSection of a missing section must throw";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "gamma");
    }
}

TEST(SnapshotFormatTest, PartialConsumptionIsStructuredError)
{
    SnapshotReader r(sampleWriter().serialize());
    r.openSection("alpha");
    r.u8();
    // The payload still holds values: schema drift must be loud.
    EXPECT_THROW(r.closeSection(), SnapshotError);
}

TEST(SnapshotFormatTest, OverReadIsStructuredError)
{
    SnapshotWriter w;
    w.beginSection("tiny");
    w.u8(7);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection("tiny");
    EXPECT_EQ(r.u8(), 7);
    EXPECT_THROW(r.u32(), SnapshotError);
}

TEST(SnapshotFormatTest, EveryTruncationIsDetected)
{
    const std::vector<std::uint8_t> image =
        sampleWriter().serialize();
    // Every proper prefix must fail structurally at parse time: the
    // section table's payload accounting makes any truncation visible
    // before a single payload byte is interpreted.
    for (std::size_t n = 0; n < image.size(); ++n) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() + n);
        EXPECT_THROW(SnapshotReader r(std::move(cut)), SnapshotError)
            << "truncation to " << n << " bytes parsed successfully";
    }
}

TEST(SnapshotFormatTest, TrailingGarbageIsDetected)
{
    std::vector<std::uint8_t> image = sampleWriter().serialize();
    image.push_back(0x00);
    EXPECT_THROW(SnapshotReader r(std::move(image)), SnapshotError);
}

TEST(SnapshotFormatTest, RandomBitFlipsAreDetected)
{
    const std::vector<std::uint8_t> image =
        sampleWriter().serialize();
    // Seeded, so the trial set is reproducible.  Each trial flips one
    // bit anywhere in the image; either the header validation or a
    // section CRC must notice.
    std::mt19937 rng(20150613);
    std::uniform_int_distribution<std::size_t> pos(0,
                                                   image.size() - 1);
    std::uniform_int_distribution<unsigned> bit(0, 7);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> flipped = image;
        flipped[pos(rng)] ^= std::uint8_t(1u << bit(rng));
        bool detected = false;
        try {
            SnapshotReader r(std::move(flipped));
            r.verifyAllSections();
        } catch (const SnapshotError &) {
            detected = true;
        }
        EXPECT_TRUE(detected)
            << "bit flip in trial " << trial << " went unnoticed";
    }
}

TEST(SnapshotFormatTest, InflatedSectionTableIsRejected)
{
    // Length-field inflation in the section table must be caught by
    // the table's own bounds, before it sizes an allocation and before
    // the header CRC is reached.  Offsets follow the layout documented
    // in snapshot.cc; sampleWriter()'s workload is "sample" and its
    // first section "alpha".
    const std::size_t countAt = 8 + 4 + 8 + (4 + 6);
    const std::size_t alphaSizeAt = countAt + 4 + (4 + 5);
    const std::size_t headerCrcAt =
        countAt + 4 + (4 + 5 + 8 + 4) + (4 + 4 + 8 + 4);
    auto put = [](std::vector<std::uint8_t> &image, std::size_t at,
                  std::uint64_t v, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i)
            image[at + i] = std::uint8_t(v >> (8 * i));
    };
    auto rejection = [](std::vector<std::uint8_t> image) {
        try {
            SnapshotReader r(std::move(image));
        } catch (const SnapshotError &e) {
            return e.reason();
        }
        return std::string("accepted");
    };

    std::vector<std::uint8_t> hugeCount = sampleWriter().serialize();
    put(hugeCount, countAt, 0xFFFFFFFFu, 4);
    EXPECT_NE(rejection(std::move(hugeCount)).find("section count"),
              std::string::npos);

    // The header CRC is recomputed, so only the size is wrong.
    std::vector<std::uint8_t> hugeSize = sampleWriter().serialize();
    put(hugeSize, alphaSizeAt, std::uint64_t{1} << 63, 8);
    put(hugeSize, headerCrcAt, crc32(hugeSize.data(), headerCrcAt), 4);
    EXPECT_NE(rejection(std::move(hugeSize)).find("exceeds the image"),
              std::string::npos);
}

TEST(SnapshotFormatTest, FileRoundTripIsByteIdentical)
{
    const std::string path =
        ::testing::TempDir() + "snapshot_format_roundtrip.snap";
    const SnapshotWriter w = sampleWriter();
    w.writeFile(path);
    SnapshotReader r = SnapshotReader::fromFile(path);
    EXPECT_EQ(r.workload(), "sample");
    r.verifyAllSections();
    std::remove(path.c_str());
}

TEST(SnapshotConfigHashTest, SensitiveToEveryVerifyField)
{
    // Each instrument can change what a run reports (the injector its
    // timing, the checker and watchdog its failures), so a result
    // cached under one verify setting must never match another.
    const SystemConfig base = SystemConfig::microbenchmarkDefault();
    const std::uint64_t h = snapshotConfigHash(base);
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
        EXPECT_NE(snapshotConfigHash(c), h) << "verify field " << i;
    }
}

TEST(SnapshotConfigHashTest, SensitiveToSimulatedState)
{
    // One edit per top-level SystemConfig field, in declaration
    // order: a field the hash leaves out would let a cached result
    // be served for a machine that was never simulated.
    const SystemConfig base = SystemConfig::microbenchmarkDefault();
    const std::uint64_t h = snapshotConfigHash(base);
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
            {"llcBanks", [](SystemConfig &c) { c.llcBanks += 1; }},
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
        EXPECT_NE(snapshotConfigHash(c), h) << field;
    }
}

} // namespace
} // namespace stashsim
