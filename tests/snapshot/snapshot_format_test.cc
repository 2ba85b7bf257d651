/**
 * @file
 * Unit tests for the snapshot container format: typed round trips,
 * manifest handling, and — most importantly — robustness: every
 * truncation and every bit flip of a valid image must surface as a
 * structured SnapshotError naming the failing section, never as
 * undefined behavior or silently-wrong data.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
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
    w.tick = 987654321;
    w.phaseCursor = 3;
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
    EXPECT_EQ(r.tick(), 987654321u);
    EXPECT_EQ(r.phaseCursor(), 3u);
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
    SnapshotReader r(sampleWriter().serialize());
    EXPECT_TRUE(r.hasSection("alpha"));
    EXPECT_TRUE(r.hasSection("beta"));
    EXPECT_FALSE(r.hasSection("gamma"));
    const std::vector<std::string> names = r.sectionNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "beta");
    r.verifyAllSections();
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

TEST(SnapshotFormatTest, RequireThrowsWithSectionContext)
{
    SnapshotReader r(sampleWriter().serialize());
    r.openSection("alpha");
    try {
        r.require(false, "synthetic mismatch");
        FAIL() << "require(false) must throw";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "alpha");
        EXPECT_EQ(e.reason(), "synthetic mismatch");
    }
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
    const std::size_t countAt = 8 + 4 + 8 + 8 + 4 + (4 + 6);
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

TEST(SnapshotConfigHashTest, IgnoresVerify)
{
    SystemConfig a = SystemConfig::microbenchmarkDefault();
    SystemConfig b = a;
    b.verify.protocolChecker = true;
    b.verify.watchdog = true;
    // A checkpoint restores under any verify instrumentation, so it
    // may not perturb the hash.
    EXPECT_EQ(snapshotConfigHash(a), snapshotConfigHash(b));
}

TEST(SnapshotConfigHashTest, SensitiveToSimulatedState)
{
    const SystemConfig base = SystemConfig::microbenchmarkDefault();
    const std::uint64_t h = snapshotConfigHash(base);

    SystemConfig c1 = base;
    c1.l1Bytes *= 2;
    EXPECT_NE(snapshotConfigHash(c1), h);

    SystemConfig c2 = base;
    c2.memOrg = MemOrg::ScratchGD;
    EXPECT_NE(snapshotConfigHash(c2), h);

    SystemConfig c3 = base;
    c3.numGpuCus += 1;
    EXPECT_NE(snapshotConfigHash(c3), h);

    SystemConfig c4 = base;
    c4.stashChunkBytes *= 2;
    EXPECT_NE(snapshotConfigHash(c4), h);
}

} // namespace
} // namespace stashsim
