/**
 * @file
 * Versioned, deterministic binary container for the sweep's RESULT
 * cache (DESIGN.md §11).
 *
 * A snapshot is a manifest (magic, schema version, config hash, run
 * identity) plus a table of named sections, each carrying a CRC32
 * over its payload, followed by the concatenated payloads.  Every
 * multi-byte value is little-endian and fixed-width, so the same
 * result always serializes to the same bytes.
 *
 * Readers validate the header CRC on open and each section's CRC on
 * openSection(), so truncation and bit-flips surface as a structured
 * SnapshotError naming the failing section, never as undefined
 * behavior.  Unknown sections are ignored (forward compatibility).
 */

#ifndef STASHSIM_SNAPSHOT_SNAPSHOT_HH
#define STASHSIM_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace stashsim
{

struct SystemConfig;

/** Schema version written into every snapshot manifest. */
constexpr std::uint32_t snapshotVersion = 2;

/**
 * Structured snapshot failure: which section was being processed and
 * why it is unusable.  Thrown (never UB) on truncation, CRC mismatch,
 * missing sections, over-reads, and under-consumption.
 */
class SnapshotError : public std::runtime_error
{
  public:
    SnapshotError(std::string section, std::string reason);

    /** Section being processed ("<header>" for manifest failures). */
    const std::string &section() const { return _section; }
    /** Human-readable failure cause. */
    const std::string &reason() const { return _reason; }

  private:
    std::string _section;
    std::string _reason;
};

/** IEEE CRC32 (reflected, 0xEDB88320) over @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n);

/**
 * Hash of every SystemConfig field, `verify` included: the checker,
 * the watchdog and above all the fault injector change what a run
 * reports, so a result cached under one setting is never served
 * under another.
 */
std::uint64_t snapshotConfigHash(const SystemConfig &cfg);

/**
 * Accumulates named sections of typed little-endian values and
 * serializes them behind a manifest + CRC-carrying section table.
 */
class SnapshotWriter
{
  public:
    /** @{ Manifest fields; set before serialize(). */
    std::uint64_t configHash = 0;
    std::string workload;
    /** @} */

    /** Opens a new section; names must be unique per snapshot. */
    void beginSection(const std::string &name);
    /** Closes the currently open section. */
    void endSection();

    /** @{ Typed appends into the open section. */
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void b(bool v) { u8(v ? 1 : 0); }
    void str(const std::string &s);
    /** @} */

    /** Renders the complete snapshot image. */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Writes serialize() to @p path atomically (temp file + rename),
     * so a crash mid-write can never leave a half-written snapshot
     * under the final name.  Throws SnapshotError on I/O failure.
     */
    void writeFile(const std::string &path) const;

  private:
    struct Section
    {
        std::string name;
        std::vector<std::uint8_t> payload;
    };

    std::vector<Section> sections;
    bool open = false;
};

/**
 * Parses a snapshot image.  The constructor validates the magic,
 * schema version, section-table geometry (the payload sizes must
 * exactly account for the image size), and the header CRC;
 * openSection() validates the per-section payload CRC.
 */
class SnapshotReader
{
  public:
    /** Parses @p bytes; throws SnapshotError if the image is invalid. */
    explicit SnapshotReader(std::vector<std::uint8_t> bytes);

    /** Reads and parses @p path; throws SnapshotError on failure. */
    static SnapshotReader fromFile(const std::string &path);

    /** @{ Manifest accessors. */
    std::uint64_t configHash() const { return _configHash; }
    const std::string &workload() const { return _workload; }
    /** @} */

    /** CRC-checks every section payload; throws on the first bad one. */
    void verifyAllSections() const;

    /**
     * Positions the read cursor at the start of section @p name.
     * Throws SnapshotError when missing or when the payload CRC does
     * not match the section table.
     */
    void openSection(const std::string &name);

    /**
     * Ends the section opened by openSection(); throws when the
     * payload was not fully consumed (a schema drift guard).
     */
    void closeSection();

    /** @{ Typed reads; throw SnapshotError on payload over-read. */
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    bool b() { return u8() != 0; }
    std::string str();
    /** @} */

  private:
    struct Section
    {
        std::string name;
        std::size_t offset = 0; //!< into bytes
        std::size_t size = 0;
        std::uint32_t crc = 0;
    };

    const Section *find(const std::string &name) const;
    void checkCrc(const Section &s) const;
    [[noreturn]] void fail(const std::string &reason) const;

    std::vector<std::uint8_t> bytes;
    std::vector<Section> _sections;
    std::uint64_t _configHash = 0;
    std::string _workload;

    std::string current; //!< open section name ("" when none)
    std::size_t cursor = 0;
    std::size_t limit = 0;
};

/** @{
 * Stats-struct (de)serialization driven by the struct's own visit()
 * enumeration, so a new counter is picked up automatically — and, by
 * the same token, changes the RESULT payload layout (bump
 * snapshotVersion when it does).
 */
template <class S>
void
writeStats(SnapshotWriter &w, const S &s)
{
    S::visit(s, [&w](const char *, const Counter &c) { w.u64(c); });
}

template <class S>
void
readStats(SnapshotReader &r, S &s)
{
    S::visit(s, [&r](const char *, Counter &c) { c = r.u64(); });
}

inline void
writeSystemStats(SnapshotWriter &w, const SystemStats &s)
{
    SystemStats::visitGroups(
        s, [&w](const char *, const auto &g) { writeStats(w, g); });
    w.u64(s.gpuCycles);
    w.u64(s.numGpuCus);
}

inline void
readSystemStats(SnapshotReader &r, SystemStats &s)
{
    SystemStats::visitGroups(
        s, [&r](const char *, auto &g) { readStats(r, g); });
    s.gpuCycles = r.u64();
    s.numGpuCus = r.u64();
}
/** @} */

} // namespace stashsim

#endif // STASHSIM_SNAPSHOT_SNAPSHOT_HH
