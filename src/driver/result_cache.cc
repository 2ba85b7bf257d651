#include "driver/result_cache.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace stashsim
{

namespace
{

constexpr std::array<std::uint8_t, 8> magic =
    {'S', 'T', 'A', 'S', 'H', 'S', 'N', 'P'};

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

const std::array<std::uint32_t, 256> crcTable = makeCrcTable();

struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a offset basis

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/** Appends little-endian values to a record image. */
struct Writer
{
    std::vector<std::uint8_t> bytes;

    void
    put(std::uint64_t v, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            bytes.push_back(std::uint8_t(v >> (8 * i)));
    }

    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }

    void
    str(const std::string &s)
    {
        u32(std::uint32_t(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    }
};

/** Thrown by Reader when a field runs past the end of the record. */
struct OverRead
{
};

/** Bounds-checked little-endian reads of bytes [at, end). */
struct Reader
{
    const std::vector<std::uint8_t> &bytes;
    std::size_t at;
    std::size_t end;

    std::uint64_t
    get(unsigned n)
    {
        if (end - at < n)
            throw OverRead{};
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= std::uint64_t(bytes[at++]) << (8 * i);
        return v;
    }

    std::uint32_t u32() { return std::uint32_t(get(4)); }
    std::uint64_t u64() { return get(8); }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (end - at < n)
            throw OverRead{};
        std::string s(bytes.begin() + std::ptrdiff_t(at),
                      bytes.begin() + std::ptrdiff_t(at + n));
        at += n;
        return s;
    }
};

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = crcTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::uint64_t
configHash(const SystemConfig &cfg)
{
    Fnv1a f;
    f.mix(cfg.meshWidth);
    f.mix(cfg.meshHeight);
    f.mix(cfg.numGpuCus);
    f.mix(cfg.numCpuCores);
    f.mix(std::uint64_t(cfg.memOrg));
    f.mix(cfg.l1Bytes);
    f.mix(cfg.l1Assoc);
    f.mix(cfg.l1Mshrs);
    f.mix(cfg.l1HitCycles);
    f.mix(cfg.localBytes);
    f.mix(cfg.stashMapEntries);
    f.mix(cfg.vpMapEntries);
    f.mix(cfg.stashChunkBytes);
    f.mix(cfg.stashTranslationCycles);
    f.mix(cfg.localHitCycles);
    f.mix(cfg.stashReplicationOpt ? 1 : 0);
    f.mix(cfg.llcBankBytes);
    f.mix(cfg.llcAssoc);
    f.mix(cfg.llcBankCycles);
    f.mix(cfg.routerCycles);
    f.mix(cfg.linkCycles);
    f.mix(cfg.nocFlitsPerCycle);
    // The memory backend's identity and every one of its knobs: a
    // result simulated against one backing-store model must never be
    // served for another.
    f.mix(std::uint64_t(cfg.memBackend.kind));
    f.mix(cfg.memBackend.dramCycles);
    f.mix(cfg.memBackend.sttReadCycles);
    f.mix(cfg.memBackend.sttWriteCycles);
    f.mix(cfg.memBackend.sttWriteQueue);
    f.mix(cfg.memBackend.scmCacheLines);
    f.mix(cfg.memBackend.scmCacheAssoc);
    f.mix(cfg.memBackend.scmHitCycles);
    f.mix(cfg.memBackend.scmHitOccupancy);
    f.mix(cfg.memBackend.scmReadCycles);
    f.mix(cfg.memBackend.scmWriteCycles);
    f.mix(cfg.memBackend.scmOccupancy);
    f.mix(cfg.maxResidentTbsPerCu);
    f.mix(cfg.maxWarpsPerCu);
    f.mix(cfg.cpuOutstanding);
    f.mix(cfg.verify.protocolChecker ? 1 : 0);
    f.mix(cfg.verify.watchdog ? 1 : 0);
    f.mix(cfg.verify.watchdogCheckTicks);
    f.mix(cfg.verify.watchdogStallChecks);
    f.mix(cfg.verify.faultInjection ? 1 : 0);
    f.mix(cfg.verify.faultSeed);
    f.mix(cfg.verify.faultDelayPermille);
    f.mix(cfg.verify.faultMaxDelayCycles);
    f.mix(cfg.verify.faultDupPermille);
    f.mix(cfg.verify.faultDupDelayCycles);
    return f.h;
}

void
saveResult(const std::string &path, std::uint64_t hash,
           const std::string &run, const RunResult &r)
{
    Writer w;
    w.bytes.assign(magic.begin(), magic.end());
    w.u32(resultVersion);
    w.u64(hash);
    w.str(run);
    w.put(r.validated ? 1 : 0, 1);
    w.u64(r.gpuCycles);
    w.u64(r.perf.events);
    w.u64(r.perf.simTicks);
    w.u64(r.perf.shape.peakLiveEvents);
    w.u64(r.perf.shape.poolChunks);
    w.u64(r.perf.shape.wheelInserts);
    w.u64(r.perf.shape.farInserts);
    w.u32(std::uint32_t(r.errors.size()));
    for (const std::string &e : r.errors)
        w.str(e);
    SystemStats::visitGroups(r.stats, [&w](const char *, const auto &g) {
        std::decay_t<decltype(g)>::visit(
            g, [&w](const char *, const Counter &c) { w.u64(c); });
    });
    w.u64(r.stats.gpuCycles);
    w.u64(r.stats.numGpuCus);
    w.u32(crc32(w.bytes.data(), w.bytes.size()));

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw std::runtime_error("cannot open '" + tmp + "' for writing");
    const bool ok = std::fwrite(w.bytes.data(), 1, w.bytes.size(), f) ==
                    w.bytes.size();
    if (std::fclose(f) != 0 || !ok) {
        std::remove(tmp.c_str());
        throw std::runtime_error("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename '" + tmp + "' to '" +
                                 path + "'");
    }
}

ResultLoad
loadResult(const std::string &path, std::uint64_t hash,
           const std::string &run, RunResult &out)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return ResultLoad::Missing;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return ResultLoad::Corrupt;
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());

    // The magic, the version and the CRC come first: nothing else is
    // read from bytes that may be foreign or damaged.
    constexpr std::size_t crcBytes = 4;
    if (bytes.size() < magic.size() + 4 + crcBytes ||
        !std::equal(magic.begin(), magic.end(), bytes.begin()))
        return ResultLoad::Corrupt;
    const std::size_t body = bytes.size() - crcBytes;
    Reader r{bytes, magic.size(), body};
    if (r.u32() != resultVersion ||
        Reader{bytes, body, bytes.size()}.u32() !=
            crc32(bytes.data(), body))
        return ResultLoad::Corrupt;

    try {
        if (r.u64() != hash || r.str() != run)
            return ResultLoad::Stale;
        RunResult res;
        res.validated = r.get(1) != 0;
        res.gpuCycles = Cycles(r.u64());
        res.perf.events = r.u64();
        res.perf.simTicks = r.u64();
        res.perf.shape.peakLiveEvents = r.u64();
        res.perf.shape.poolChunks = r.u64();
        res.perf.shape.wheelInserts = r.u64();
        res.perf.shape.farInserts = r.u64();
        // No reserve: a hostile count ends in an over-read after at
        // most one string per four bytes left.
        for (std::uint32_t n = r.u32(); n > 0; --n)
            res.errors.push_back(r.str());
        SystemStats::visitGroups(res.stats, [&r](const char *, auto &g) {
            std::decay_t<decltype(g)>::visit(
                g, [&r](const char *, Counter &c) { c = r.u64(); });
        });
        res.stats.gpuCycles = r.u64();
        res.stats.numGpuCus = r.u64();
        if (r.at != r.end)
            return ResultLoad::Corrupt;
        out = std::move(res);
        return ResultLoad::Ok;
    } catch (const OverRead &) {
        return ResultLoad::Corrupt;
    }
}

} // namespace stashsim
