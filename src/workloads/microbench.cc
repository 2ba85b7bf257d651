#include "workloads/microbench.hh"

#include <sstream>

#include "sim/log.hh"
#include "workloads/kernel_builder.hh"

namespace stashsim
{
namespace workloads
{

namespace
{

/** Virtual base addresses of the benchmark arrays. */
constexpr Addr aosBase = 0x1000'0000;
constexpr Addr arrayBBase = 0x2000'0000;

/** Field virtual address of AoS element @p i. */
Addr
fieldVa(Addr base, unsigned object_bytes, std::uint32_t i)
{
    return base + Addr(i) * object_bytes;
}

/** The per-TB tile over elements [first, first+count) of the AoS. */
TileSpec
aosTile(Addr base, unsigned object_bytes, std::uint32_t first,
        std::uint32_t count)
{
    TileSpec t;
    t.globalBase = base + Addr(first) * object_bytes;
    t.fieldSize = wordBytes;
    t.objectSize = object_bytes;
    t.rowSize = count;
    t.strideSize = 0;
    t.numStrides = 1;
    t.isCoherent = true;
    return t;
}

/**
 * Emits the standard per-element body: load field, compute (the last
 * compute op carries the +delta), store field.
 */
void
emitBody(TbBuilder &b, unsigned warp, unsigned tile,
         std::span<const std::uint32_t> elems, unsigned compute_ops,
         std::int32_t delta)
{
    b.accessTile(warp, tile, elems, false);
    for (unsigned c = 0; c + 1 < compute_ops; ++c)
        b.compute(warp, 1);
    b.compute(warp, 1, delta);
    b.accessTile(warp, tile, elems, true);
}

/**
 * CPU produce phase: the CPU cores write the initial field values
 * through their coherent L1s (so the data the GPU consumes is
 * communicated, not magically pre-loaded — and the LLC is warm, as
 * in the paper's CPU-GPU communication setup).
 */
std::vector<std::vector<CpuOp>>
cpuWritePhase(Addr base, unsigned object_bytes, std::uint32_t n,
              unsigned cores,
              const std::function<std::uint32_t(std::uint32_t)> &value)
{
    std::vector<std::vector<CpuOp>> work(cores);
    for (std::uint32_t i = 0; i < n; ++i) {
        CpuOp op;
        op.addr = fieldVa(base, object_bytes, i);
        op.isStore = true;
        op.value = value(i);
        work[i % cores].push_back(op);
    }
    return work;
}

/** Splits "read field of every element, check expected" over cores. */
std::vector<std::vector<CpuOp>>
cpuReadPhase(Addr base, unsigned object_bytes, std::uint32_t n,
             unsigned cores,
             const std::function<std::uint32_t(std::uint32_t)> &expect)
{
    std::vector<std::vector<CpuOp>> work(cores);
    for (std::uint32_t i = 0; i < n; ++i) {
        CpuOp op;
        op.addr = fieldVa(base, object_bytes, i);
        op.isStore = false;
        op.value = expect(i);
        op.checkValue = true;
        work[i % cores].push_back(op);
    }
    return work;
}

/** Validates field i == expect(i) for all i. */
std::function<bool(FunctionalMem &, std::vector<std::string> &)>
fieldValidator(Addr base, unsigned object_bytes, std::uint32_t n,
               std::function<std::uint32_t(std::uint32_t)> expect)
{
    return [=](FunctionalMem &fm, std::vector<std::string> &errors) {
        bool ok = true;
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t got =
                fm.readWord(fieldVa(base, object_bytes, i));
            const std::uint32_t want = expect(i);
            if (got != want) {
                if (errors.size() < 8) {
                    std::ostringstream os;
                    os << "element " << i << ": got " << got
                       << ", want " << want;
                    errors.push_back(os.str());
                }
                ok = false;
            }
        }
        return ok;
    };
}

} // namespace

// ---------------------------------------------------------------------
// Implicit
// ---------------------------------------------------------------------

Workload
makeImplicit(const MicrobenchConfig &cfg)
{
    const std::uint32_t n = cfg.implicitElements;
    const unsigned tpb = cfg.threadsPerBlock;
    const unsigned warps = tpb / 32;
    const std::uint32_t num_tbs = n / tpb;
    sim_assert(n % tpb == 0);

    Workload wl;
    wl.name = "Implicit";
    wl.init = [=](FunctionalMem &fm) {
        for (std::uint32_t i = 0; i < n; ++i)
            fm.writeWord(fieldVa(aosBase, cfg.objectBytes, i), i);
    };

    wl.phases.push_back(Phase::cpu(cpuWritePhase(
        aosBase, cfg.objectBytes, n, cfg.cpuCores,
        [](std::uint32_t i) { return i; })));
    wl.warmupPhases = 1;

    Kernel k;
    k.name = "implicit_update";
    for (std::uint32_t tb = 0; tb < num_tbs; ++tb) {
        TbBuilder b(cfg.org, warps);
        TileUse use;
        use.tile = aosTile(aosBase, cfg.objectBytes, tb * tpb, tpb);
        use.localOffset = 0;
        use.readIn = true;
        use.writeOut = true;
        const unsigned t = b.addTile(use);
        for (unsigned w = 0; w < warps; ++w) {
            emitBody(b, w, t, laneElems(w * 32, 32),
                     cfg.computeOpsPerElement, 1);
        }
        k.blocks.push_back(b.build());
    }
    wl.phases.push_back(Phase::gpu(std::move(k)));

    wl.phases.push_back(Phase::cpu(cpuReadPhase(
        aosBase, cfg.objectBytes, n, cfg.cpuCores,
        [](std::uint32_t i) { return i + 1; })));

    wl.validate = fieldValidator(aosBase, cfg.objectBytes, n,
                                 [](std::uint32_t i) { return i + 1; });
    return wl;
}

// ---------------------------------------------------------------------
// Pollution
// ---------------------------------------------------------------------

Workload
makePollution(const MicrobenchConfig &cfg)
{
    const std::uint32_t n = cfg.pollutionElementsA;
    const std::uint32_t bn = cfg.pollutionWordsB;
    const unsigned tpb = cfg.threadsPerBlock;
    const unsigned warps = tpb / 32;
    const std::uint32_t num_tbs = n / tpb;
    sim_assert(n % tpb == 0 && n % bn == 0);

    Workload wl;
    wl.name = "Pollution";
    wl.init = [=](FunctionalMem &fm) {
        for (std::uint32_t i = 0; i < n; ++i)
            fm.writeWord(fieldVa(aosBase, cfg.objectBytes, i), i);
        for (std::uint32_t i = 0; i < bn; ++i)
            fm.writeWord(arrayBBase + Addr(i) * wordBytes, 1000 + i);
    };

    // B: a dense, cache-resident array, deliberately left in the
    // global space in every configuration (see file comment in the
    // header).
    TileSpec b_tile;
    b_tile.globalBase = arrayBBase;
    b_tile.fieldSize = wordBytes;
    b_tile.objectSize = wordBytes;
    b_tile.rowSize = bn;
    b_tile.strideSize = 0;
    b_tile.numStrides = 1;

    {
        auto work = cpuWritePhase(aosBase, cfg.objectBytes, n,
                                  cfg.cpuCores,
                                  [](std::uint32_t i) { return i; });
        auto bw = cpuWritePhase(arrayBBase, wordBytes, bn,
                                cfg.cpuCores, [](std::uint32_t i) {
                                    return 1000 + i;
                                });
        for (unsigned c = 0; c < cfg.cpuCores; ++c)
            work[c].insert(work[c].end(), bw[c].begin(), bw[c].end());
        wl.phases.push_back(Phase::cpu(std::move(work)));
        wl.warmupPhases = 1;
    }

    Kernel k;
    k.name = "pollution_sum";
    for (std::uint32_t tb = 0; tb < num_tbs; ++tb) {
        TbBuilder b(cfg.org, warps);
        TileUse a_use;
        a_use.tile = aosTile(aosBase, cfg.objectBytes, tb * tpb, tpb);
        a_use.readIn = true;
        a_use.writeOut = true;
        const unsigned ta = b.addTile(a_use);

        TileUse b_use;
        b_use.tile = b_tile;
        b_use.readIn = true;
        b_use.writeOut = false;
        b_use.originallyGlobal = true;
        b_use.convertible = false; // shared across blocks: stays global
        const unsigned tbb = b.addTile(b_use);

        for (unsigned w = 0; w < warps; ++w) {
            const LaneList elems = laneElems(w * 32, 32);
            // t = B[(global element) mod |B|]: the reused, cache-
            // resident read.  Its value feeds the computation; the
            // one-accumulator dataflow model folds that contribution
            // into the compute delta below (see header comment).
            LaneList b_elems;
            for (std::uint32_t e : elems)
                b_elems.push_back((tb * tpb + e) % bn);
            b.accessTile(w, tbb, b_elems, false);
            // acc = A[i]
            b.accessTile(w, ta, elems, false);
            for (unsigned c = 0; c + 1 < cfg.pollutionComputeOps; ++c)
                b.compute(w, 1);
            b.compute(w, 1, 1);
            b.accessTile(w, ta, elems, true);
        }
        k.blocks.push_back(b.build());
    }
    wl.phases.push_back(Phase::gpu(std::move(k)));

    wl.phases.push_back(Phase::cpu(cpuReadPhase(
        aosBase, cfg.objectBytes, n, cfg.cpuCores,
        [](std::uint32_t i) { return i + 1; })));

    wl.validate =
        fieldValidator(aosBase, cfg.objectBytes, n,
                       [](std::uint32_t i) { return i + 1; });
    return wl;
}

// ---------------------------------------------------------------------
// On-demand
// ---------------------------------------------------------------------

Workload
makeOnDemand(const MicrobenchConfig &cfg)
{
    const std::uint32_t n = cfg.onDemandElements;
    const unsigned tpb = cfg.threadsPerBlock;
    const unsigned warps = tpb / 32;
    const std::uint32_t num_tbs = n / tpb;
    sim_assert(n % tpb == 0);

    // The "runtime condition": lane (17 tb + 13 w) mod 32 of each
    // warp touches its element; everything else is untouched.
    auto chosen_lane = [](std::uint32_t tb, unsigned w) {
        return (17 * tb + 13 * w + 5) % 32;
    };
    auto accessed = [=](std::uint32_t i) {
        const std::uint32_t tb = i / tpb;
        const unsigned w = (i % tpb) / 32;
        return (i % 32) == chosen_lane(tb, w);
    };

    Workload wl;
    wl.name = "On-demand";
    wl.init = [=](FunctionalMem &fm) {
        for (std::uint32_t i = 0; i < n; ++i)
            fm.writeWord(fieldVa(aosBase, cfg.objectBytes, i), i);
    };

    wl.phases.push_back(Phase::cpu(cpuWritePhase(
        aosBase, cfg.objectBytes, n, cfg.cpuCores,
        [](std::uint32_t i) { return i; })));
    wl.warmupPhases = 1;

    Kernel k;
    k.name = "ondemand_update";
    for (std::uint32_t tb = 0; tb < num_tbs; ++tb) {
        TbBuilder b(cfg.org, warps);
        TileUse use;
        use.tile = aosTile(aosBase, cfg.objectBytes, tb * tpb, tpb);
        use.readIn = true;
        use.writeOut = true;
        const unsigned t = b.addTile(use);
        for (unsigned w = 0; w < warps; ++w) {
            // Evaluate the condition, then touch a single element.
            b.compute(w, 1);
            const std::uint32_t e = w * 32 + chosen_lane(tb, w);
            emitBody(b, w, t, laneElems(e, 1), cfg.onDemandComputeOps, 1);
        }
        k.blocks.push_back(b.build());
    }
    wl.phases.push_back(Phase::gpu(std::move(k)));

    wl.phases.push_back(Phase::cpu(cpuReadPhase(
        aosBase, cfg.objectBytes, n, cfg.cpuCores,
        [=](std::uint32_t i) { return accessed(i) ? i + 1 : i; })));

    wl.validate =
        fieldValidator(aosBase, cfg.objectBytes, n,
                       [=](std::uint32_t i) {
                           return accessed(i) ? i + 1 : i;
                       });
    return wl;
}

// ---------------------------------------------------------------------
// Reuse
// ---------------------------------------------------------------------

Workload
makeReuse(const MicrobenchConfig &cfg)
{
    const std::uint32_t n = cfg.reuseElements;
    const unsigned tpb = cfg.reuseThreadsPerBlock;
    const unsigned warps = tpb / 32;
    const std::uint32_t num_tbs = n / tpb;
    const unsigned kernels = cfg.reuseKernels;
    sim_assert(n % tpb == 0);

    Workload wl;
    wl.name = "Reuse";
    wl.init = [=](FunctionalMem &fm) {
        for (std::uint32_t i = 0; i < n; ++i)
            fm.writeWord(fieldVa(aosBase, cfg.objectBytes, i), i);
    };

    wl.phases.push_back(Phase::cpu(cpuWritePhase(
        aosBase, cfg.objectBytes, n, cfg.cpuCores,
        [](std::uint32_t i) { return i; })));
    wl.warmupPhases = 1;

    for (unsigned kk = 0; kk < kernels; ++kk) {
        Kernel k;
        k.name = "reuse_pass";
        for (std::uint32_t tb = 0; tb < num_tbs; ++tb) {
            TbBuilder b(cfg.org, warps);
            TileUse use;
            use.tile = aosTile(aosBase, cfg.objectBytes, tb * tpb, tpb);
            use.readIn = true;
            use.writeOut = true;
            const unsigned t = b.addTile(use);
            for (unsigned w = 0; w < warps; ++w) {
                emitBody(b, w, t, laneElems(w * 32, 32),
                         cfg.reuseComputeOps, 1);
            }
            k.blocks.push_back(b.build());
        }
        wl.phases.push_back(Phase::gpu(std::move(k)));
    }

    wl.phases.push_back(Phase::cpu(cpuReadPhase(
        aosBase, cfg.objectBytes, n, cfg.cpuCores,
        [=](std::uint32_t i) { return i + kernels; })));

    wl.validate =
        fieldValidator(aosBase, cfg.objectBytes, n,
                       [=](std::uint32_t i) { return i + kernels; });
    return wl;
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::vector<std::string>
microbenchmarkNames()
{
    return {"Implicit", "Pollution", "On-demand", "Reuse"};
}

Workload
makeMicrobenchmark(const std::string &name, const MicrobenchConfig &cfg)
{
    if (name == "Implicit")
        return makeImplicit(cfg);
    if (name == "Pollution")
        return makePollution(cfg);
    if (name == "On-demand")
        return makeOnDemand(cfg);
    if (name == "Reuse")
        return makeReuse(cfg);
    fatal("unknown microbenchmark: ", name);
}

} // namespace workloads
} // namespace stashsim
