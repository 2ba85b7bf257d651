/**
 * @file
 * stashtrace v1: a versioned line format of per-CU timed
 * load/store/staging records, replayable as a Workload.
 *
 * The format lets arbitrary recorded access streams run through the
 * stash.  Grammar (see DESIGN.md §13.3 for the full treatment):
 *
 *     stashtrace v1
 *     warmup <n>
 *     phase gpu <kernel> | phase cpu
 *       cu <id> compute <cycles> [<accDelta>]
 *       cu <id> ld <addr>[,<addr>...]
 *       cu <id> st <addr>[,...] [= <value>]
 *       cu <id> map <localOffset> <globalBase> <bytes> ro|rw
 *       cu <id> lld <local>[,...]
 *       cu <id> lst <local>[,...] [= <value>]
 *       core <id> ld <addr> [= <expect>]
 *       core <id> st <addr> = <value>
 *     endphase
 *
 * `map` is the staging/DMA record: it declares a local tile over
 * `bytes` of global memory, lowered per organization exactly like a
 * TileUse — copy loops on scratchpads, DMA descriptors on ScratchGD,
 * AddMap on the stash, plain global addressing on cache.  `lld`/`lst`
 * access the staged bytes by local offset; `ld`/`st` are raw global
 * accesses.  A store without `= value` writes the lane accumulator
 * (loads set it, compute shifts it by accDelta), so recorded dataflow
 * replays, not just addresses.  `#` starts a comment; numbers are
 * decimal or 0x-hex.  The parser is strict: truncated records, bad
 * opcodes, malformed numbers, out-of-range CU/core ids, unaligned or
 * unmapped addresses, `lld`/`lst` lanes split across maps, and
 * >32-lane records are all structured errors naming the line.
 */

#ifndef STASHSIM_WORKLOADS_SYNTHETIC_TRACE_REPLAY_HH
#define STASHSIM_WORKLOADS_SYNTHETIC_TRACE_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/system_config.hh"
#include "workloads/workload.hh"

namespace stashsim
{
namespace workloads
{

/** Validation bounds; defaults match the Table 2 application machine. */
struct TraceLimits
{
    unsigned maxCus = 15;
    unsigned maxCpuCores = 1;
    std::uint32_t localBytes = 16 * 1024;
};

/** One parsed GPU record. */
struct TraceGpuOp
{
    enum class Kind : std::uint8_t
    {
        Compute,
        Ld,  //!< global load
        St,  //!< global store
        Map, //!< staging/DMA declaration
        Lld, //!< staged-local load
        Lst, //!< staged-local store
    };

    Kind kind = Kind::Compute;
    std::uint16_t cycles = 1;   //!< Compute
    std::int32_t accDelta = 0;  //!< Compute
    std::vector<Addr> addrs;    //!< Ld/St VAs; Lld/Lst local offsets
    bool hasValue = false;      //!< St/Lst explicit value
    std::uint32_t value = 0;
    std::uint32_t localOffset = 0; //!< Map
    Addr globalBase = 0;           //!< Map
    std::uint32_t bytes = 0;       //!< Map
    bool writable = false;         //!< Map: rw vs ro
};

/** One parsed phase. */
struct TracePhase
{
    Phase::Kind kind = Phase::Kind::Gpu;
    std::string kernel;                         //!< Kind::Gpu
    std::vector<std::vector<TraceGpuOp>> perCu; //!< Kind::Gpu
    std::vector<std::vector<CpuOp>> perCore;    //!< Kind::Cpu
};

/** A parsed trace. */
struct TraceData
{
    unsigned warmup = 0;
    std::vector<TracePhase> phases;

    /** Total records, for inventory/diagnostics. */
    std::uint64_t records() const;
};

/**
 * Parses @p text; returns false with a line-numbered message in
 * @p err on any malformed input (see file comment for what is
 * checked).
 */
bool parseTrace(const std::string &text, const TraceLimits &lim,
                TraceData &out, std::string &err);

/** Renders @p t in canonical form (a parse/write fixed point). */
std::string writeTrace(const TraceData &t);

/** FNV-1a identity of the canonical rendering. */
std::uint64_t traceHash(const TraceData &t);

/**
 * Lowers @p t into a runnable Workload for @p org.  One thread block
 * per recorded CU (block i lands on CU i), one warp per block.
 */
Workload makeTraceReplay(const TraceData &t, MemOrg org,
                         const std::string &name = "TraceReplay");

/**
 * Records a built workload as a trace.  The workload must be built
 * for the cache organization (every access global); block b's warp
 * streams are concatenated onto CU b % @p num_cus in warp order —
 * a linearization, so the replay is a derived workload, not a
 * cycle-accurate transcript.  Value checks are dropped (replay has
 * no functional init image); store values and accumulator dataflow
 * are preserved.
 */
TraceData traceFromWorkload(const Workload &wl, unsigned num_cus);

/** The built-in demo trace behind the TraceReplay registry entry. */
const char *demoTrace();

} // namespace workloads
} // namespace stashsim

#endif // STASHSIM_WORKLOADS_SYNTHETIC_TRACE_REPLAY_HH
