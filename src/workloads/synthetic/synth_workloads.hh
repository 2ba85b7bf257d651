/**
 * @file
 * Parameterized synthetic traffic workloads (ROADMAP item 1).
 *
 * Four kernel shapes the paper never ran, all built on the portable
 * Workload/TbBuilder API so every memory organization lowers them the
 * same way it lowers the paper's benchmarks:
 *
 *  - SynthMix:     a Graphite-style synthetic memory generator —
 *    tunable read-only-shared / read-write-shared / private access
 *    mixes, access counts, and outstanding-request depth, with
 *    mt19937_64-seeded address streams.  Kernels alternate produce
 *    (each block writes its own read-write slice) and consume (each
 *    block reads a rotating peer's slice) phases, so the read-write-
 *    shared category migrates data between CUs through the stash
 *    while staying data-race-free.
 *  - GraphGather:  CSR-style graph traversal — a staged column-index
 *    slice drives an irregular gather from a global vertex-value
 *    array into a staged per-block output slice; iterations ping-pong
 *    the value arrays.
 *  - AttnScatter:  attention-style gather/scatter — each block stages
 *    its queries and an output slice, then walks a random sequence of
 *    key-pool chunks via mid-kernel re-staging (ChgMap on the stash,
 *    DMA refills on ScratchGD, copy loops on scratchpads), gathering
 *    at random offsets within each chunk.
 *  - Stencil2D:    a 5-point 2D stencil over row bands with staged
 *    halo-read tiles and fully-overwritten output bands, ping-ponging
 *    grids across iterations.
 *
 * Every workload validates its final memory image against a host-side
 * model replayed from the same seeded generation, so the whole family
 * is deterministic.
 */

#ifndef STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_WORKLOADS_HH
#define STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/system_config.hh"
#include "workloads/workload.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace workloads
{

/**
 * Every knob of the synthetic family.  Defaults are the Full-scale
 * sizing; scaledSynthConfig() derives Quick and Smoke.
 */
struct SynthConfig
{
    MemOrg org = MemOrg::Scratch;
    unsigned cpuCores = 1;
    std::uint64_t seed = 1;

    /** @{ SynthMix: the Graphite-style generator. */
    unsigned mixBlocks = 15;  //!< one per CU on the Table 2 machine
    unsigned mixWarps = 2;    //!< warps per block
    unsigned mixKernels = 4;  //!< GPU phases (produce/consume pairs)
    unsigned mixAccesses = 96; //!< access records per warp per kernel
    unsigned mixDepth = 4;    //!< outstanding accesses per burst
    unsigned mixComputeCycles = 8; //!< compute cycles between bursts
    unsigned mixRoPct = 40;   //!< % read-only-shared accesses
    unsigned mixRwPct = 30;   //!< % read-write-shared (rest private)
    std::uint32_t mixRoWords = 8192;   //!< shared read-only pool
    std::uint32_t mixSliceWords = 512; //!< per-(block,warp) rw slice
    std::uint32_t mixPrivWords = 512;  //!< per-(block,warp) private
    /** @} */

    /** @{ GraphGather: CSR irregular gather. */
    std::uint32_t graphVerts = 3840; //!< divisible by graphBlocks
    unsigned graphDegree = 8;
    unsigned graphIters = 3;
    unsigned graphBlocks = 15;
    unsigned graphWarps = 2;
    /** @} */

    /** @{ AttnScatter: chunked gather/scatter with re-staging. */
    std::uint32_t attnQueries = 480; //!< divisible by attnBlocks
    std::uint32_t attnKeyWords = 4096;
    std::uint32_t attnChunkWords = 512; //!< divides attnKeyWords
    unsigned attnChunks = 4;  //!< chunks visited per block
    unsigned attnGathers = 4; //!< gathers per query per chunk
    unsigned attnBlocks = 15;
    /** @} */

    /** @{ Stencil2D: 5-point stencil over row bands. */
    std::uint32_t stencilX = 256;
    std::uint32_t stencilY = 60; //!< divisible by stencilBlocks
    unsigned stencilIters = 4;
    unsigned stencilBlocks = 15;
    unsigned stencilWarps = 2;
    /** @} */
};

/** The Quick/Smoke sizings (Full = SynthConfig defaults). */
SynthConfig scaledSynthConfig(const WorkloadParams &p);

/** The registered synthetic workload names. */
std::vector<std::string> syntheticNames();

/** @{ Individual makers. */
Workload makeSynthMix(const SynthConfig &cfg);
Workload makeGraphGather(const SynthConfig &cfg);
Workload makeAttnScatter(const SynthConfig &cfg);
Workload makeStencil2D(const SynthConfig &cfg);
/** @} */

/** Builds synthetic workload @p name; fatal() when unknown. */
Workload makeSynthetic(const std::string &name, const SynthConfig &cfg);

/** Registers the synthetic family. */
void registerSyntheticWorkloads(WorkloadFactory &factory);

} // namespace workloads
} // namespace stashsim

#endif // STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_WORKLOADS_HH
