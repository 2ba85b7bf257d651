/**
 * @file
 * System configuration: the paper's Table 2 parameters plus the six
 * simulated memory configurations of Section 5.3.
 */

#ifndef STASHSIM_CONFIG_SYSTEM_CONFIG_HH
#define STASHSIM_CONFIG_SYSTEM_CONFIG_HH

#include "sim/types.hh"

namespace stashsim
{

/**
 * The six memory organizations evaluated by the paper (Section 5.3).
 */
enum class MemOrg
{
    Scratch,   //!< 16 KB scratchpad + 32 KB L1; original access types
    ScratchG,  //!< Scratch with global accesses moved to the scratchpad
    ScratchGD, //!< ScratchG with a D2MA-style DMA engine
    Cache,     //!< 32 KB L1 only; scratchpad accesses made global
    Stash,     //!< 16 KB stash + 32 KB L1
    StashG,    //!< Stash with global accesses moved to the stash
};

/** Printable name of a memory organization. */
const char *memOrgName(MemOrg org);

/** True for the configurations that use a stash. */
constexpr bool
usesStash(MemOrg org)
{
    return org == MemOrg::Stash || org == MemOrg::StashG;
}

/** True for the configurations that use a scratchpad. */
constexpr bool
usesScratchpad(MemOrg org)
{
    return org == MemOrg::Scratch || org == MemOrg::ScratchG ||
           org == MemOrg::ScratchGD;
}

/**
 * The pluggable memory backends behind the LLC (src/mem/backend).
 * `Fixed` is the paper's machine: every miss costs the same flat
 * DRAM latency.  The other two are drawn from related work so the
 * benches can ask how the stash's lazy-writeback advantage moves
 * when writes are expensive: `SttMram` models an STT-MRAM backing
 * store with asymmetric read/write latency and write-pausing (FUSE),
 * `ScmCache` a set-associative DRAM cache in front of a slow
 * storage-class-memory tier with bandwidth-aware hit/miss queuing
 * (the POSTECH DRAM-cache design).
 */
enum class MemBackendKind
{
    Fixed,
    SttMram,
    ScmCache,
};

/** Printable name of a memory backend kind ("fixed", ...). */
const char *memBackendName(MemBackendKind kind);

/**
 * Backend selection plus every backend's timing knobs.  The knobs of
 * the unselected backends are inert; all of them (and the kind) fold
 * into the RESULT cache's config hash, so a cached result is never served
 * under a different memory system.
 */
struct MemBackendConfig
{
    MemBackendKind kind = MemBackendKind::Fixed;

    // --- fixed: the paper's flat-latency DRAM -------------------------
    Cycles dramCycles = 168; //!< 197-261 total including L2/NoC path

    // --- sttmram: asymmetric read/write + write-pausing (FUSE) --------
    Cycles sttReadCycles = 140;  //!< reads slightly ahead of DRAM
    Cycles sttWriteCycles = 450; //!< writes ~3x the read latency
    /** Write-queue depth; a read arriving at a full queue must wait
     *  for the head write to drain before it can pause the rest. */
    unsigned sttWriteQueue = 8;

    // --- scmcache: DRAM cache over SCM (POSTECH) -----------------------
    unsigned scmCacheLines = 2048; //!< DRAM-cache lines per LLC bank
    unsigned scmCacheAssoc = 8;
    Cycles scmHitCycles = 168;      //!< DRAM-cache hit latency
    Cycles scmHitOccupancy = 4;     //!< DRAM channel busy per access
    Cycles scmReadCycles = 500;     //!< SCM tier read latency
    Cycles scmWriteCycles = 1000;   //!< SCM tier write latency
    Cycles scmOccupancy = 16;       //!< SCM channel busy per access
};

/**
 * Verification-and-robustness knobs (src/verify).  Everything is off
 * by default: the checker, watchdog, and fault injector are debugging
 * instruments, not part of the modelled machine.
 */
struct VerifyConfig
{
    /** Shadow every coherence transition against a golden memory and
     *  audit the DeNovo invariants at every drain point. */
    bool protocolChecker = false;

    /** Deadlock/livelock watchdog over the event queue and mesh. */
    bool watchdog = false;
    /** Ticks between watchdog forward-progress checks. */
    Tick watchdogCheckTicks = 200 * 1000; //!< 10k GPU cycles
    /** Consecutive no-progress checks before the watchdog trips. */
    unsigned watchdogStallChecks = 50;

    /** NoC fault injection (seeded, deterministic). */
    bool faultInjection = false;
    std::uint64_t faultSeed = 1;
    /** Per-message delay probability, in permille (0-1000). */
    unsigned faultDelayPermille = 0;
    /** Maximum injected delay, in uncore (GPU) cycles. */
    Cycles faultMaxDelayCycles = 200;
    /** Per-message duplication probability (idempotent types only). */
    unsigned faultDupPermille = 0;
    /** Maximum extra delay of a duplicate delivery, in GPU cycles. */
    Cycles faultDupDelayCycles = 50;
};

/**
 * All structural and timing parameters of the simulated system.
 * Defaults reproduce Table 2 of the paper.
 */
struct SystemConfig
{
    // --- Topology -----------------------------------------------------
    unsigned meshWidth = 4;
    unsigned meshHeight = 4;
    /** GPU CUs; 1 for microbenchmarks, 15 for applications. */
    unsigned numGpuCus = 1;
    /** CPU cores; 15 for microbenchmarks, 1 for applications. */
    unsigned numCpuCores = 15;

    MemOrg memOrg = MemOrg::Scratch;

    // --- L1 caches ----------------------------------------------------
    unsigned l1Bytes = 32 * 1024;
    unsigned l1Assoc = 8;
    unsigned l1Mshrs = 64;
    Cycles l1HitCycles = 1;

    // --- Scratchpad / stash --------------------------------------------
    unsigned localBytes = 16 * 1024; //!< scratchpad or stash size
    unsigned stashMapEntries = 64;
    unsigned vpMapEntries = 64; //!< stash VP-map TLB and RTLB, each
    unsigned stashChunkBytes = 64;
    Cycles stashTranslationCycles = 10;
    Cycles localHitCycles = 1;
    /** The Section 4.5 data-replication (reuseBit) optimization. */
    bool stashReplicationOpt = true;

    // --- LLC (shared L2, NUCA): one bank per mesh node ----------------
    unsigned llcBankBytes = 256 * 1024; //!< 4 MB total
    unsigned llcAssoc = 16;
    Cycles llcBankCycles = 23; //!< bank access; 29-61 total w/ network

    // --- NoC -----------------------------------------------------------
    Cycles routerCycles = 2;
    Cycles linkCycles = 1;
    unsigned nocFlitsPerCycle = 4; //!< link width (serialization only)

    // --- Memory --------------------------------------------------------
    /** The backing-store model behind the LLC banks; the per-backend
     *  latency knobs (dramCycles included) live in here, nowhere
     *  else. */
    MemBackendConfig memBackend;

    // --- GPU CU --------------------------------------------------------
    unsigned maxResidentTbsPerCu = 8;
    unsigned maxWarpsPerCu = 48;

    // --- CPU core ------------------------------------------------------
    unsigned cpuOutstanding = 4; //!< max in-flight CPU memory ops

    // --- Verification (not part of the modelled machine) ---------------
    VerifyConfig verify;

    /** Table 2 configuration for the four microbenchmarks. */
    static SystemConfig microbenchmarkDefault();

    /** Table 2 configuration for the seven applications. */
    static SystemConfig applicationDefault();

    /** Total nodes on the mesh. */
    unsigned numNodes() const { return meshWidth * meshHeight; }
};

} // namespace stashsim

#endif // STASHSIM_CONFIG_SYSTEM_CONFIG_HH
