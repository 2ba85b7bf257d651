/**
 * @file
 * Snapshot serializer/deserializer implementation (DESIGN.md §11).
 *
 * On-disk layout, all values little-endian:
 *
 *   magic        8 bytes  "STASHSNP"
 *   version      u32      snapshotVersion
 *   configHash   u64      snapshotConfigHash() of the run's config
 *   workload     str      u32 length + bytes (the run identity)
 *   sectionCount u32
 *   sections[]            u32 nameLen + name + u64 size + u32 crc32
 *   headerCrc    u32      crc32 over every byte above
 *   payloads              section payloads, concatenated in table order
 *
 * The section table's sizes must exactly account for the bytes that
 * follow the header, so any truncation (or trailing garbage) is caught
 * at parse time before a single payload byte is interpreted.
 */

#include "snapshot/snapshot.hh"

#include <array>
#include <cstdio>
#include <utility>

#include "config/system_config.hh"
#include "sim/log.hh"

namespace stashsim
{

SnapshotError::SnapshotError(std::string section, std::string reason)
    : std::runtime_error("snapshot section '" + section + "': " + reason),
      _section(std::move(section)), _reason(std::move(reason))
{
}

namespace
{

constexpr std::array<char, 8> snapshotMagic =
    {'S', 'T', 'A', 'S', 'H', 'S', 'N', 'P'};

/** Name used by SnapshotError for failures outside any section. */
constexpr const char *headerSection = "<header>";

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

void
putU8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

void
putStr(std::vector<std::uint8_t> &out, const std::string &s)
{
    putU32(out, std::uint32_t(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

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

namespace
{

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

} // namespace

std::uint64_t
snapshotConfigHash(const SystemConfig &cfg)
{
    Fnv1a f;
    f.mix(snapshotVersion);
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
    f.mix(cfg.llcBanks);
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

// --- SnapshotWriter ----------------------------------------------------

void
SnapshotWriter::beginSection(const std::string &name)
{
    sim_assert(!open);
    for (const auto &s : sections)
        sim_assert(s.name != name);
    sections.push_back({name, {}});
    open = true;
}

void
SnapshotWriter::endSection()
{
    sim_assert(open);
    open = false;
}

void
SnapshotWriter::u8(std::uint8_t v)
{
    sim_assert(open);
    putU8(sections.back().payload, v);
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    sim_assert(open);
    putU32(sections.back().payload, v);
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    sim_assert(open);
    putU64(sections.back().payload, v);
}

void
SnapshotWriter::str(const std::string &s)
{
    sim_assert(open);
    putStr(sections.back().payload, s);
}

std::vector<std::uint8_t>
SnapshotWriter::serialize() const
{
    sim_assert(!open);
    std::vector<std::uint8_t> out;
    out.insert(out.end(), snapshotMagic.begin(), snapshotMagic.end());
    putU32(out, snapshotVersion);
    putU64(out, configHash);
    putStr(out, workload);
    putU32(out, std::uint32_t(sections.size()));
    for (const auto &s : sections) {
        putStr(out, s.name);
        putU64(out, s.payload.size());
        putU32(out, crc32(s.payload.data(), s.payload.size()));
    }
    putU32(out, crc32(out.data(), out.size()));
    for (const auto &s : sections)
        out.insert(out.end(), s.payload.begin(), s.payload.end());
    return out;
}

void
SnapshotWriter::writeFile(const std::string &path) const
{
    const std::vector<std::uint8_t> image = serialize();
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw SnapshotError(headerSection, "cannot open '" + tmp +
                                               "' for writing");
    const bool ok =
        std::fwrite(image.data(), 1, image.size(), f) == image.size();
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed) {
        std::remove(tmp.c_str());
        throw SnapshotError(headerSection, "short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError(headerSection,
                            "cannot rename '" + tmp + "' to '" + path + "'");
    }
}

// --- SnapshotReader ----------------------------------------------------

void
SnapshotReader::fail(const std::string &reason) const
{
    throw SnapshotError(current.empty() ? headerSection : current, reason);
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> raw)
    : bytes(std::move(raw))
{
    // Manifest parsing with explicit bounds checks: `cursor`/`limit`
    // temporarily walk the header region.
    cursor = 0;
    limit = bytes.size();

    if (limit < snapshotMagic.size())
        fail("image truncated before magic");
    for (std::size_t i = 0; i < snapshotMagic.size(); ++i)
        if (char(bytes[i]) != snapshotMagic[i])
            fail("bad magic (not a stashsim snapshot)");
    cursor = snapshotMagic.size();

    const std::uint32_t version = u32();
    if (version != snapshotVersion)
        fail("unsupported schema version " + std::to_string(version) +
             " (this build reads version " +
             std::to_string(snapshotVersion) + ")");
    _configHash = u64();
    _workload = str();

    // The count and sizes are unvalidated until the header CRC below,
    // so bound them before they size anything: a table entry takes at
    // least 16 bytes (u32 name length, u64 size, u32 CRC), and the
    // payloads together cannot exceed the image.
    const std::uint32_t count = u32();
    if (count > (limit - cursor) / 16)
        fail("section count " + std::to_string(count) +
             " exceeds what the image can hold");
    std::size_t payloadBytes = 0;
    _sections.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Section s;
        s.name = str();
        const std::uint64_t size = u64();
        s.crc = u32();
        if (size > bytes.size() - payloadBytes)
            fail("section '" + s.name + "' size " + std::to_string(size) +
                 " exceeds the image");
        s.size = std::size_t(size);
        payloadBytes += s.size;
        _sections.push_back(std::move(s));
    }

    // Header CRC covers everything up to (not including) itself.
    const std::size_t headerEnd = cursor;
    const std::uint32_t storedCrc = u32();
    if (crc32(bytes.data(), headerEnd) != storedCrc)
        fail("header CRC mismatch (corrupt manifest or section table)");

    // The section payloads must exactly fill the rest of the image, so
    // truncation and trailing garbage are both structural errors.
    if (bytes.size() - cursor != payloadBytes)
        fail("image size mismatch: header promises " +
             std::to_string(payloadBytes) + " payload bytes, found " +
             std::to_string(bytes.size() - cursor));
    std::size_t off = cursor;
    for (auto &s : _sections) {
        s.offset = off;
        off += s.size;
    }

    cursor = 0;
    limit = 0;
}

SnapshotReader
SnapshotReader::fromFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw SnapshotError(headerSection,
                            "cannot open '" + path + "' for reading");
    std::vector<std::uint8_t> raw;
    std::array<std::uint8_t, 64 * 1024> buf;
    std::size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
        raw.insert(raw.end(), buf.begin(), buf.begin() + n);
    const bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    if (!readOk)
        throw SnapshotError(headerSection, "read error on '" + path + "'");
    return SnapshotReader(std::move(raw));
}

const SnapshotReader::Section *
SnapshotReader::find(const std::string &name) const
{
    for (const auto &s : _sections)
        if (s.name == name)
            return &s;
    return nullptr;
}

void
SnapshotReader::checkCrc(const Section &s) const
{
    if (crc32(bytes.data() + s.offset, s.size) != s.crc)
        throw SnapshotError(s.name, "payload CRC mismatch (corrupt data)");
}

void
SnapshotReader::verifyAllSections() const
{
    for (const auto &s : _sections)
        checkCrc(s);
}

void
SnapshotReader::openSection(const std::string &name)
{
    sim_assert(current.empty());
    const Section *s = find(name);
    if (!s)
        throw SnapshotError(name, "section missing from snapshot");
    checkCrc(*s);
    current = name;
    cursor = s->offset;
    limit = s->offset + s->size;
}

void
SnapshotReader::closeSection()
{
    sim_assert(!current.empty());
    if (cursor != limit)
        fail("payload not fully consumed (" +
             std::to_string(limit - cursor) +
             " bytes left; schema mismatch?)");
    current.clear();
    cursor = 0;
    limit = 0;
}

std::uint8_t
SnapshotReader::u8()
{
    if (cursor + 1 > limit)
        fail("read past end of payload");
    return bytes[cursor++];
}

std::uint32_t
SnapshotReader::u32()
{
    if (cursor + 4 > limit)
        fail("read past end of payload");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(bytes[cursor++]) << (8 * i);
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    if (cursor + 8 > limit)
        fail("read past end of payload");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(bytes[cursor++]) << (8 * i);
    return v;
}

std::string
SnapshotReader::str()
{
    const std::uint32_t n = u32();
    if (cursor + n > limit)
        fail("read past end of payload");
    std::string s(bytes.begin() + cursor, bytes.begin() + cursor + n);
    cursor += n;
    return s;
}

} // namespace stashsim
