/**
 * @file
 * Seeded mutation test of the RESULT cache: a cached RESULT_*.snap is
 * mutated in its fields, its length fields, its length and its
 * header, with the CRC fixed up afterwards so that each mutant gets
 * past the checksum.  A resume sweep over every mutant must either
 * serve it or quarantine it and re-simulate the run from tick 0.  It
 * never crashes, which the ASan/UBSan build of this test checks too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "driver/result_cache.hh"
#include "driver/sweep.hh"

namespace stashsim
{
namespace
{

namespace fs = std::filesystem;

/**
 * A two-node machine running one short CPU store/load program, so a
 * re-simulation costs little.  Three loads expect wrong values, so
 * the cached result carries error strings for the mutations to hit.
 */
RunSpec
tinySpec()
{
    RunSpec spec;
    spec.labelOverride = "tiny";
    spec.org = MemOrg::Cache;
    spec.scale = workloads::Scale::Smoke;
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.numGpuCus = 1;
    cfg.numCpuCores = 1;
    spec.config = cfg;
    spec.make = [](const workloads::WorkloadParams &) {
        constexpr Addr base = 0x400000;
        Workload wl;
        wl.name = "tiny";
        std::vector<std::vector<CpuOp>> stores(1), loads(1);
        for (std::uint32_t i = 0; i < 16; ++i) {
            stores[0].push_back(CpuOp{base + i * 4, true, i + 1});
            const std::uint32_t expect = i < 3 ? i + 100 : i + 1;
            loads[0].push_back(CpuOp{base + i * 4, false, expect, true});
        }
        wl.phases.push_back(Phase::cpu(std::move(stores)));
        wl.phases.push_back(Phase::cpu(std::move(loads)));
        return wl;
    };
    return spec;
}

std::string
fingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << "validated=" << r.validated << " gpuCycles=" << r.gpuCycles
       << " energy=" << r.energy.total() << " events=" << r.perf.events
       << " errors=" << r.errors.size() << "\n";
    for (const auto &[key, value] : r.stats.flatten())
        os << key << "=" << value << "\n";
    return os.str();
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(b.data()),
             std::streamsize(b.size()));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &b, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(b[at + i]) << (8 * i);
    return v;
}

void
putLe(std::vector<std::uint8_t> &b, std::size_t at, std::uint64_t v,
      unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        b[at + i] = std::uint8_t(v >> (8 * i));
}

/**
 * Where the fields of a record sit, following the layout documented
 * in src/driver/result_cache.hh.
 */
struct Layout
{
    std::size_t versionAt = 8;
    std::size_t hashAt = 12;
    std::size_t labelAt = 24; //!< first byte of the label text
    std::size_t bodyAt = 0;   //!< first field after the label
    std::size_t crcAt = 0;

    explicit Layout(const std::vector<std::uint8_t> &b)
        : bodyAt(labelAt + getU32(b, labelAt - 4)), crcAt(b.size() - 4)
    {
    }
};

/** Rewrites the trailing CRC over the bytes before it. */
void
reseal(std::vector<std::uint8_t> &b)
{
    putLe(b, b.size() - 4, crc32(b.data(), b.size() - 4), 4);
}

/** One seeded mutant of @p image, resealed; @p kind picks the family. */
std::vector<std::uint8_t>
mutate(const std::vector<std::uint8_t> &image, unsigned kind,
       std::mt19937_64 &rng)
{
    const Layout at(image);
    std::vector<std::uint8_t> b = image;
    const std::size_t body = at.crcAt - at.bodyAt;
    auto pick = [&rng](std::size_t n) {
        return std::size_t(rng() % std::max<std::size_t>(n, 1));
    };
    switch (kind) {
      case 0: {
        // Random field bytes.
        const unsigned n = 1 + unsigned(rng() % 4);
        for (unsigned i = 0; i < n; ++i)
            b[at.bodyAt + pick(body)] = std::uint8_t(rng());
        break;
      }
      case 1: {
        // An extreme value in a length field: the error count, which
        // follows the validated flag and seven u64 counts, or one
        // error string's length.
        std::vector<std::size_t> lengths = {at.bodyAt + 1 + 7 * 8};
        std::size_t off = lengths[0] + 4;
        for (std::uint32_t e = getU32(b, lengths[0]); e > 0; --e) {
            lengths.push_back(off);
            off += 4 + getU32(b, off);
        }
        static const std::uint32_t extremes[] = {
            0, 1, 2, 0x7fff'ffffu, 0xffff'ffffu, 0x8000'0000u,
            std::uint32_t(body), std::uint32_t(body + 1)};
        putLe(b, lengths[pick(lengths.size())],
              extremes[pick(std::size(extremes))], 4);
        break;
      }
      case 2: {
        // Fewer or more bytes before the CRC.
        const std::size_t pos = at.bodyAt + pick(body + 1);
        const std::size_t n = 1 + pick(16);
        if (rng() % 2 == 0) {
            b.erase(b.begin() + std::ptrdiff_t(pos),
                    b.begin() + std::ptrdiff_t(
                                    std::min(pos + n, at.crcAt)));
        } else {
            std::vector<std::uint8_t> extra(n);
            for (auto &x : extra)
                x = std::uint8_t(rng());
            b.insert(b.begin() + std::ptrdiff_t(pos), extra.begin(),
                     extra.end());
        }
        break;
      }
      default: {
        // The header: magic, version, config hash or run label.
        const std::size_t field[] = {pick(8), at.versionAt + pick(4),
                                     at.hashAt + pick(8), at.labelAt};
        b[field[pick(4)]] ^= std::uint8_t(1 + rng() % 255);
        break;
      }
    }
    reseal(b);
    return b;
}

TEST(ResultCacheFuzzTest, EveryMutantIsServedOrReSimulated)
{
    const std::string dir =
        ::testing::TempDir() + "result_cache_fuzz";
    fs::remove_all(dir);
    fs::create_directories(dir);
    SweepOptions opts;
    opts.threads = 1;
    opts.stateDir = dir;

    const std::vector<RunRecord> first =
        SweepDriver(opts).run({tinySpec()});
    ASSERT_EQ(first[0].result.errors.size(), 3u);
    const std::string reference = fingerprint(first[0].result);
    std::string path;
    for (const auto &de : fs::directory_iterator(dir)) {
        if (de.path().filename().string().rfind("RESULT_", 0) == 0)
            path = de.path().string();
    }
    ASSERT_FALSE(path.empty());
    const std::vector<std::uint8_t> image = readFile(path);

    // Sanity: the untouched image is served as is.
    {
        SweepCounters c;
        const auto recs = SweepDriver(opts).run({tinySpec()}, &c);
        ASSERT_EQ(c.cachedRuns, 1u);
        ASSERT_EQ(fingerprint(recs[0].result), reference);
    }

    std::mt19937_64 rng(20150613);
    constexpr unsigned kinds = 4;
    constexpr unsigned perKind = 75;
    unsigned served = 0;
    unsigned resimulated = 0;
    for (unsigned kind = 0; kind < kinds; ++kind) {
        for (unsigned trial = 0; trial < perKind; ++trial) {
            writeFile(path, mutate(image, kind, rng));
            SweepCounters c;
            const auto recs = SweepDriver(opts).run({tinySpec()}, &c);
            const bool wasServed = c.cachedRuns == 1;
            const bool wasRerun =
                c.corruptSnapshots + c.staleResults == 1 &&
                c.quarantinedArtifacts == 1;
            EXPECT_NE(wasServed, wasRerun)
                << "kind " << kind << " trial " << trial;
            if (wasRerun) {
                ++resimulated;
                EXPECT_EQ(fingerprint(recs[0].result), reference)
                    << "kind " << kind << " trial " << trial;
                EXPECT_EQ(readFile(path), image)
                    << "the rerun must re-cache its result";
            } else {
                ++served;
            }
        }
    }
    // Both outcomes occur, so both paths were exercised.
    EXPECT_GT(served, 0u);
    EXPECT_GT(resimulated, 0u);
}

} // namespace
} // namespace stashsim
