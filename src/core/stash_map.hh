/**
 * @file
 * The stash-map: a circular buffer of stash-to-global mappings.
 *
 * Paper Section 4.1.3: each entry holds the translation parameters of
 * one AddMap/ChgMap call (we keep the TileSpec; a real implementation
 * precomputes the handful of constants so a miss costs six ALU ops —
 * our timing charges the Table 2 translation latency, and the math
 * lives in TileSpec), a Valid bit, and the #DirtyData counter that
 * drives lazy writebacks.  Entries are allocated and replaced in FIFO
 * order via the tail pointer; 64 entries suffice for 8 concurrent
 * thread blocks x 4 maps each, with headroom for lazy writebacks of
 * already-replaced mappings.
 *
 * The entry also carries the Section 4.5 data-replication state: the
 * reuseBit and a pointer to the older matching entry.
 */

#ifndef STASHSIM_CORE_STASH_MAP_HH
#define STASHSIM_CORE_STASH_MAP_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/tile.hh"
#include "sim/types.hh"

namespace stashsim
{

/** Index into the stash-map. */
using MapIndex = std::uint8_t;

/** Sentinel map index: the access has no global mapping (temporary /
 *  global-unmapped usage modes). */
constexpr MapIndex unmappedIndex = 0xff;

/**
 * One stash-map entry.
 */
struct StashMapEntry
{
    bool valid = false;
    /** The mapping's thread block is still resident (live). */
    bool pinned = false;
    LocalAddr stashBase = 0;
    TileSpec tile;
    /** Dirty chunks not yet written back (#DirtyData). */
    std::uint32_t dirtyData = 0;
    /** Section 4.5: an older entry maps the same tile. */
    bool reuseBit = false;
    MapIndex reuseIdx = 0;
};

/**
 * AddMap's argument checks (Section 3.1, footnote 4): a well-formed,
 * word-aligned tile whose stash bytes [stash_base, stash_base +
 * tile.mappedBytes()) start on a chunk boundary and fit a
 * @p stash_bytes stash.  Returns what is wrong, or nullptr.
 */
inline const char *
mappingError(LocalAddr stash_base, const TileSpec &tile,
             unsigned stash_bytes, unsigned chunk_bytes)
{
    if (!tile.wellFormed())
        return "malformed tile";
    if (stash_base % chunk_bytes != 0)
        return "stash base must be chunk-aligned";
    // 64-bit: a hostile tile's 32-bit mappedBytes() may wrap.
    const std::uint64_t row_bytes =
        std::uint64_t(tile.fieldSize) * tile.rowSize;
    if (row_bytes > stash_bytes ||
        stash_base + row_bytes * tile.numStrides > stash_bytes) {
        return "mapping exceeds stash size";
    }
    if (tile.globalBase % wordBytes != 0 ||
        tile.fieldSize % wordBytes != 0 ||
        tile.objectSize % wordBytes != 0) {
        return "tile must be word-aligned";
    }
    return nullptr;
}

/**
 * The circular stash-map buffer.
 */
class StashMap
{
  public:
    explicit StashMap(unsigned entries) : entries(entries) {}

    unsigned capacity() const { return unsigned(entries.size()); }

    /**
     * Advances the tail and returns the index of the entry to use.
     * Entries whose thread block is still resident (pinned) are
     * skipped: replacing a live mapping would orphan its directory
     * registrations.  The caller is responsible for writing back any
     * dirty data of a still-valid entry before overwriting it
     * (Section 4.2, AddMap).
     */
    MapIndex advanceTail();

    StashMapEntry &entry(MapIndex i) { return entries.at(i); }
    const StashMapEntry &entry(MapIndex i) const { return entries.at(i); }

    /** The index the next AddMap will claim (for tests). */
    MapIndex tailIndex() const { return tail; }

    /**
     * Replication search (Section 4.5): finds a valid entry mapping
     * exactly @p tile.  O(entries), but AddMap is infrequent.
     */
    std::optional<MapIndex>
    findMatch(const TileSpec &tile) const
    {
        // Scan newest-first (reverse allocation order from the tail)
        // so a replica binds to the freshest copy of the data.
        const unsigned n = unsigned(entries.size());
        for (unsigned back = 1; back <= n; ++back) {
            const MapIndex i = MapIndex((tail + n - back) % n);
            if (entries[i].valid && entries[i].tile == tile)
                return i;
        }
        return std::nullopt;
    }

    /** Count of valid entries (for tests/telemetry). */
    unsigned
    numValid() const
    {
        unsigned n = 0;
        for (const auto &e : entries)
            n += e.valid ? 1 : 0;
        return n;
    }

  private:
    std::vector<StashMapEntry> entries;
    MapIndex tail = 0;
};

inline MapIndex
StashMap::advanceTail()
{
    for (unsigned tries = 0; tries < entries.size(); ++tries) {
        const MapIndex idx = tail;
        tail = MapIndex((tail + 1) % entries.size());
        if (!entries[idx].pinned)
            return idx;
    }
    fatal("stash-map: every entry is pinned by a resident thread "
          "block; increase stashMapEntries or reduce maps per block");
}

} // namespace stashsim

#endif // STASHSIM_CORE_STASH_MAP_HH
