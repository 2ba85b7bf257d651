/**
 * @file
 * Typed statistics counters for every subsystem.
 *
 * Each hardware component owns one of the plain counter structs below;
 * the System driver aggregates them into a SystemStats snapshot at the
 * end of a run.  The energy model (src/energy) turns a SystemStats into
 * the paper's five-way dynamic-energy breakdown, and the benches print
 * the figures directly from these counts, so every number in the
 * reproduced tables/figures is traceable to a named counter here.
 *
 * Every struct enumerates its counters exactly once, through a static
 * visit() template; add, sub, flatten() and the RESULT cache's stats
 * encoding are all derived from that single enumeration, so adding a
 * counter is a one-line change and it shows up everywhere —
 * aggregation, cached results, and the full `stats` map that
 * stashbench's --components prints through flatten() —
 * automatically.  Counter updates on the simulation hot path remain
 * plain field increments.
 */

#ifndef STASHSIM_SIM_STATS_HH
#define STASHSIM_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace stashsim
{

using Counter = std::uint64_t;

/**
 * Element-wise a += b / a -= b over two instances of one stats
 * struct, driven by the struct's own visit() enumeration.  Not a hot
 * path: aggregation happens at snapshot points, not per access.
 */
template <class S>
void
statsAdd(S &a, const S &b)
{
    std::vector<Counter *> dst;
    S::visit(a, [&](const char *, Counter &c) { dst.push_back(&c); });
    std::size_t i = 0;
    S::visit(b,
             [&](const char *, const Counter &c) { *dst[i++] += c; });
}

template <class S>
void
statsSub(S &a, const S &b)
{
    std::vector<Counter *> dst;
    S::visit(a, [&](const char *, Counter &c) { dst.push_back(&c); });
    std::size_t i = 0;
    S::visit(b,
             [&](const char *, const Counter &c) { *dst[i++] -= c; });
}

/** Message classes tracked by the NoC (paper Figure 5d). */
enum class MsgClass : unsigned
{
    Read = 0,  //!< load requests/responses, incl. remote forwards
    Write = 1, //!< registration (store-ownership) traffic
    Writeback = 2,
    NumClasses = 3
};

/** Name of a message class, for reports. */
const char *msgClassName(MsgClass c);

/** Network statistics (flit crossings per Garnet terminology). */
struct NocStats
{
    std::array<Counter, 3> flitHops{}; //!< indexed by MsgClass
    Counter packets = 0;

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("flitHops.read", s.flitHops[0]);
        f("flitHops.write", s.flitHops[1]);
        f("flitHops.writeback", s.flitHops[2]);
        f("packets", s.packets);
    }

    Counter
    totalFlitHops() const
    {
        return flitHops[0] + flitHops[1] + flitHops[2];
    }

    void add(const NocStats &o) { statsAdd(*this, o); }
    void sub(const NocStats &o) { statsSub(*this, o); }
};

/** L1 cache statistics (per cache; aggregated by the driver). */
struct CacheStats
{
    Counter loadHits = 0;
    Counter loadMisses = 0;
    Counter storeHits = 0;
    Counter storeMisses = 0;
    Counter hitWords = 0;  //!< lane-level (per-word) hit accesses
    Counter missWords = 0; //!< lane-level (per-word) miss accesses
    Counter evictions = 0;
    Counter writebacks = 0;     //!< lines written back (had dirty words)
    Counter wordsWrittenBack = 0;
    Counter tlbAccesses = 0;
    Counter remoteHits = 0;     //!< forwarded requests served by this L1
    Counter selfInvalidations = 0; //!< words dropped at kernel bounds

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("loadHits", s.loadHits);
        f("loadMisses", s.loadMisses);
        f("storeHits", s.storeHits);
        f("storeMisses", s.storeMisses);
        f("hitWords", s.hitWords);
        f("missWords", s.missWords);
        f("evictions", s.evictions);
        f("writebacks", s.writebacks);
        f("wordsWrittenBack", s.wordsWrittenBack);
        f("tlbAccesses", s.tlbAccesses);
        f("remoteHits", s.remoteHits);
        f("selfInvalidations", s.selfInvalidations);
    }

    Counter hits() const { return loadHits + storeHits; }
    Counter misses() const { return loadMisses + storeMisses; }
    Counter accesses() const { return hits() + misses(); }

    void add(const CacheStats &o) { statsAdd(*this, o); }
    void sub(const CacheStats &o) { statsSub(*this, o); }
};

/** Scratchpad statistics. */
struct ScratchpadStats
{
    Counter reads = 0;
    Counter writes = 0;

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("reads", s.reads);
        f("writes", s.writes);
    }

    Counter accesses() const { return reads + writes; }

    void add(const ScratchpadStats &o) { statsAdd(*this, o); }
    void sub(const ScratchpadStats &o) { statsSub(*this, o); }
};

/** Stash statistics (per stash; aggregated by the driver). */
struct StashStats
{
    Counter loadHits = 0;
    Counter loadMisses = 0;
    Counter storeHits = 0;      //!< stores to already-registered words
    Counter storeMisses = 0;    //!< stores needing registration
    Counter hitWords = 0;  //!< lane-level (per-word) hit accesses
    Counter missWords = 0; //!< lane-level (per-word) miss accesses
    Counter translations = 0;   //!< stash->global translations performed
    Counter vpMapAccesses = 0;  //!< TLB/RTLB lookups in the VP-map
    Counter addMaps = 0;
    Counter chgMaps = 0;
    Counter lazyWritebackChunks = 0;
    Counter wordsWrittenBack = 0;
    Counter remoteHits = 0;     //!< remote requests served by this stash
    Counter replicationHits = 0; //!< misses avoided by the reuse opt
    Counter selfInvalidations = 0;
    Counter mapReplacementStalls = 0; //!< blocking map-entry writebacks
    Counter vpMapOverflows = 0; //!< live mappings exceeded VP capacity

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("loadHits", s.loadHits);
        f("loadMisses", s.loadMisses);
        f("storeHits", s.storeHits);
        f("storeMisses", s.storeMisses);
        f("hitWords", s.hitWords);
        f("missWords", s.missWords);
        f("translations", s.translations);
        f("vpMapAccesses", s.vpMapAccesses);
        f("addMaps", s.addMaps);
        f("chgMaps", s.chgMaps);
        f("lazyWritebackChunks", s.lazyWritebackChunks);
        f("wordsWrittenBack", s.wordsWrittenBack);
        f("remoteHits", s.remoteHits);
        f("replicationHits", s.replicationHits);
        f("selfInvalidations", s.selfInvalidations);
        f("mapReplacementStalls", s.mapReplacementStalls);
        f("vpMapOverflows", s.vpMapOverflows);
    }

    Counter hits() const { return loadHits + storeHits; }
    Counter misses() const { return loadMisses + storeMisses; }
    Counter accesses() const { return hits() + misses(); }

    void add(const StashStats &o) { statsAdd(*this, o); }
    void sub(const StashStats &o) { statsSub(*this, o); }
};

/** LLC (shared L2) statistics. */
struct LlcStats
{
    Counter reads = 0;          //!< read requests served
    Counter registrations = 0;  //!< words registered
    Counter writebacksRecv = 0; //!< writeback words absorbed
    Counter remoteForwards = 0; //!< requests forwarded to an owner
    Counter invalidationsSent = 0;
    Counter fills = 0;          //!< lines fetched from memory
    Counter memWrites = 0;      //!< dirty lines evicted to memory
    Counter recalls = 0;        //!< registered lines recalled on evict
    Counter accesses = 0;       //!< total data-array accesses

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("reads", s.reads);
        f("registrations", s.registrations);
        f("writebacksRecv", s.writebacksRecv);
        f("remoteForwards", s.remoteForwards);
        f("invalidationsSent", s.invalidationsSent);
        f("fills", s.fills);
        f("memWrites", s.memWrites);
        f("recalls", s.recalls);
        f("accesses", s.accesses);
    }

    void add(const LlcStats &o) { statsAdd(*this, o); }
    void sub(const LlcStats &o) { statsSub(*this, o); }
};

/**
 * Memory-backend statistics (src/mem/backend).  One struct covers
 * all backend kinds; counters a model does not use stay zero (the
 * fixed backend only moves reads/writes).
 */
struct MemBackendStats
{
    Counter reads = 0;  //!< line fills requested by the LLC
    Counter writes = 0; //!< dirty-line writebacks absorbed
    /** Extra ticks reads spent queued behind writes or a busy
     *  channel, beyond the backend's unloaded read latency. */
    Counter readStallTicks = 0;
    Counter writePauses = 0; //!< sttmram: writes paused by a read
    Counter dcacheHits = 0;  //!< scmcache: DRAM-cache line hits
    Counter dcacheMisses = 0;
    Counter scmReads = 0;  //!< scmcache: lines fetched from SCM
    Counter scmWrites = 0; //!< scmcache: dirty lines spilled to SCM

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("reads", s.reads);
        f("writes", s.writes);
        f("readStallTicks", s.readStallTicks);
        f("writePauses", s.writePauses);
        f("dcacheHits", s.dcacheHits);
        f("dcacheMisses", s.dcacheMisses);
        f("scmReads", s.scmReads);
        f("scmWrites", s.scmWrites);
    }

    void add(const MemBackendStats &o) { statsAdd(*this, o); }
    void sub(const MemBackendStats &o) { statsSub(*this, o); }
};

/** DMA engine statistics (ScratchGD configuration). */
struct DmaStats
{
    Counter transfers = 0;
    Counter wordsLoaded = 0;
    Counter wordsStored = 0;

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("transfers", s.transfers);
        f("wordsLoaded", s.wordsLoaded);
        f("wordsStored", s.wordsStored);
    }

    void add(const DmaStats &o) { statsAdd(*this, o); }
    void sub(const DmaStats &o) { statsSub(*this, o); }
};

/** GPU compute-unit statistics. */
struct GpuStats
{
    Counter instructions = 0;   //!< warp instructions issued
    Counter computeOps = 0;
    Counter globalLoads = 0;
    Counter globalStores = 0;
    Counter localLoads = 0;     //!< scratchpad or stash loads
    Counter localStores = 0;
    Counter barriers = 0;
    Counter idleCycles = 0;     //!< cycles with no warp ready
    Counter threadBlocks = 0;
    Counter kernels = 0;

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("instructions", s.instructions);
        f("computeOps", s.computeOps);
        f("globalLoads", s.globalLoads);
        f("globalStores", s.globalStores);
        f("localLoads", s.localLoads);
        f("localStores", s.localStores);
        f("barriers", s.barriers);
        f("idleCycles", s.idleCycles);
        f("threadBlocks", s.threadBlocks);
        f("kernels", s.kernels);
    }

    void add(const GpuStats &o) { statsAdd(*this, o); }
    void sub(const GpuStats &o) { statsSub(*this, o); }
};

/** CPU core statistics. */
struct CpuStats
{
    Counter loads = 0;
    Counter stores = 0;

    template <class Self, class F>
    static void
    visit(Self &s, F &&f)
    {
        f("loads", s.loads);
        f("stores", s.stores);
    }

    void add(const CpuStats &o) { statsAdd(*this, o); }
    void sub(const CpuStats &o) { statsSub(*this, o); }
};

/** Aggregated snapshot of every counter in the system. */
struct SystemStats
{
    GpuStats gpu;
    CpuStats cpu;
    CacheStats gpuL1;   //!< all GPU L1s
    CacheStats cpuL1;   //!< all CPU L1s
    ScratchpadStats scratch;
    StashStats stash;
    LlcStats llc;
    MemBackendStats memback;
    NocStats noc;
    DmaStats dma;
    Cycles gpuCycles = 0; //!< end-to-end run length in GPU cycles
    Counter numGpuCus = 0; //!< CUs in the system (not subtracted)

    /**
     * Enumerates the counter groups with their canonical report
     * prefixes.  f is called as f(prefix, group-struct); flatten()
     * and the RESULT cache's stats encoding both build on this.
     */
    template <class Self, class F>
    static void
    visitGroups(Self &s, F &&f)
    {
        f("gpu", s.gpu);
        f("cpu", s.cpu);
        f("gpuL1", s.gpuL1);
        f("cpuL1", s.cpuL1);
        f("scratch", s.scratch);
        f("stash", s.stash);
        f("llc", s.llc);
        f("memback", s.memback);
        f("noc", s.noc);
        f("dma", s.dma);
    }

    /**
     * Subtracts a baseline snapshot (all counters are monotonic), so
     * a measurement window can exclude warm-up phases.
     */
    void
    sub(const SystemStats &o)
    {
        gpu.sub(o.gpu);
        cpu.sub(o.cpu);
        gpuL1.sub(o.gpuL1);
        cpuL1.sub(o.cpuL1);
        scratch.sub(o.scratch);
        stash.sub(o.stash);
        llc.sub(o.llc);
        memback.sub(o.memback);
        noc.sub(o.noc);
        dma.sub(o.dma);
        gpuCycles -= o.gpuCycles;
        // numGpuCus is structural, not a counter.
    }

    /**
     * Flattens every counter into a name->value map for reports:
     * every raw counter of every group under its canonical prefix,
     * plus the derived totals (hits/misses/accesses, flit-hop total)
     * and the sim.* scalars; names are "<group>.<counter>".  The one
     * named-stats path: stashbench's --components prints this map.
     */
    std::map<std::string, double> flatten() const;
};

} // namespace stashsim

#endif // STASHSIM_SIM_STATS_HH
