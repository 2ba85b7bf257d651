/**
 * @file
 * Storage-class memory behind a set-associative DRAM cache, after
 * the POSTECH bandwidth-effective DRAM-cache design (see PAPERS.md).
 *
 * The capacity tier is slow SCM; a per-bank DRAM cache absorbs the
 * hot lines.  Timing is bandwidth-aware rather than purely
 * latency-based: each tier is a channel with a busy-until clock, and
 * an access's *occupancy* (channel time) is much smaller than its
 * *latency*, so the channels pipeline independent requests but queue
 * them when a burst overruns the bandwidth.  DRAM-cache hits pay the
 * DRAM latency on the DRAM channel; misses pay the SCM read latency
 * on the SCM channel and fill the cache, spilling a dirty victim
 * back to SCM (more SCM channel time).  Writebacks from the LLC are
 * write-allocate: they dirty the DRAM cache and only reach SCM on
 * eviction — which is exactly the traffic a lazy-writeback stash
 * does or does not generate, the question the memback bench asks.
 *
 * All state is the tag array plus two busy-until ticks: plain data,
 * and deterministic.
 */

#ifndef STASHSIM_MEM_BACKEND_SCMCACHE_BACKEND_HH
#define STASHSIM_MEM_BACKEND_SCMCACHE_BACKEND_HH

#include <vector>

#include "mem/backend/mem_backend.hh"

namespace stashsim
{

class ScmCacheBackend : public MemBackend
{
  public:
    ScmCacheBackend(const MemBackendConfig &cfg, EventQueue &eq,
                    MainMemory &mem, Tick clock_period);

    void readLine(PhysAddr line_pa, ReadCallback done) override;
    void writeLine(PhysAddr line_pa, WordMask mask,
                   const LineData &d) override;

    /** Valid DRAM-cache lines (tests). */
    std::size_t residentLines() const;
    /** Dirty DRAM-cache lines (tests). */
    std::size_t dirtyLines() const;

  private:
    /**
     * Tag-only DRAM-cache entry: the data lives in the functional
     * image (MainMemory); only presence/dirtiness is modelled.
     */
    struct TagEntry
    {
        bool valid = false;
        bool dirty = false;
        PhysAddr pa = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned setIndex(PhysAddr line_pa) const;
    TagEntry *probe(PhysAddr line_pa);
    /**
     * Allocates (LRU) a DRAM-cache frame for @p line_pa, charging a
     * dirty victim's spill to the SCM channel.
     */
    TagEntry &fill(PhysAddr line_pa, bool dirty);
    /** Serializes an access onto a channel; returns its start tick. */
    static Tick claim(Tick &busy_until, Tick now, Tick occupancy);

    const Tick hitTicks;      //!< DRAM-cache hit latency
    const Tick hitOccupancy;  //!< DRAM channel time per access
    const Tick scmReadTicks;  //!< SCM tier read latency
    const Tick scmWriteTicks; //!< SCM tier write latency
    const Tick scmOccupancy;  //!< SCM channel time per access
    const unsigned assoc;
    const unsigned sets;

    std::vector<TagEntry> tags;
    std::uint64_t useClock = 0;
    Tick dramBusyUntil = 0;
    Tick scmBusyUntil = 0;
};

} // namespace stashsim

#endif // STASHSIM_MEM_BACKEND_SCMCACHE_BACKEND_HH
