#include "workloads/synthetic/synth_workloads.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "sim/log.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/synthetic/synth_engine.hh"
#include "workloads/synthetic/trace_replay.hh"

namespace stashsim
{
namespace workloads
{

namespace
{

/**
 * Virtual base addresses of the synthetic arrays — above the
 * application range (0x4000'0000..0x7fff'ffff) so nothing aliases
 * when tooling compares traces across workload families.
 */
constexpr Addr roBase = 0x8000'0000;       //!< SynthMix read-only pool
constexpr Addr rwBase = 0x8400'0000;       //!< SynthMix rw-shared pool
constexpr Addr privBase = 0x8800'0000;     //!< SynthMix private pool
constexpr Addr graphColBase = 0x8c00'0000; //!< CSR column indices
constexpr Addr graphABase = 0x9000'0000;   //!< vertex values (ping)
constexpr Addr graphBBase = 0x9400'0000;   //!< vertex values (pong)
constexpr Addr attnQBase = 0x9800'0000;    //!< query vector
constexpr Addr attnKBase = 0x9c00'0000;    //!< key pool
constexpr Addr attnOutBase = 0xa000'0000;  //!< attention output
constexpr Addr stencilABase = 0xa400'0000; //!< grid (ping)
constexpr Addr stencilBBase = 0xa800'0000; //!< grid (pong)

Addr
wordVa(Addr base, std::uint32_t i)
{
    return base + Addr(i) * wordBytes;
}

/** A contiguous scalar-word tile over [first, first+count). */
TileSpec
wordTile(Addr base, std::uint32_t first, std::uint32_t count)
{
    TileSpec t;
    t.globalBase = base + Addr(first) * wordBytes;
    t.fieldSize = wordBytes;
    t.objectSize = wordBytes;
    t.rowSize = count;
    t.strideSize = 0;
    t.numStrides = 1;
    t.isCoherent = true;
    return t;
}

/** Deterministic initial value of the word at @p a. */
std::uint32_t
initVal(Addr a)
{
    return std::uint32_t(a >> 2) * 2654435761u + 12345;
}

/**
 * The expected final memory image, built alongside generation: the
 * word array at each base, in address order so validation error
 * messages are deterministic.
 */
using Model = std::vector<std::pair<Addr, std::vector<std::uint32_t>>>;

/** Appends the array @p v at @p base, above every array in @p m. */
void
addArray(Model &m, Addr base, std::vector<std::uint32_t> v)
{
    sim_assert(m.empty() ||
               wordVa(m.back().first,
                      std::uint32_t(m.back().second.size())) <= base);
    m.emplace_back(base, std::move(v));
}

std::function<bool(FunctionalMem &, std::vector<std::string> &)>
modelValidator(std::shared_ptr<const Model> m)
{
    return [m](FunctionalMem &fm, std::vector<std::string> &errors) {
        bool ok = true;
        for (const auto &[base, words] : *m) {
            for (std::uint32_t i = 0; i < words.size(); ++i) {
                const Addr a = wordVa(base, i);
                const std::uint32_t got = fm.readWord(a);
                if (got != words[i]) {
                    if (errors.size() < 8) {
                        std::ostringstream os;
                        os << "word 0x" << std::hex << a << ": got 0x"
                           << got << ", want 0x" << words[i];
                        errors.push_back(os.str());
                    }
                    ok = false;
                }
            }
        }
        return ok;
    };
}

/** CPU phase writing initVal() to every @p step'th word of a pool. */
std::vector<std::vector<CpuOp>>
cpuWriteWords(Addr base, std::uint32_t n, std::uint32_t step,
              unsigned cores)
{
    std::vector<std::vector<CpuOp>> work(std::max(1u, cores));
    std::size_t idx = 0;
    for (std::uint32_t i = 0; i < n; i += step, ++idx) {
        CpuOp op;
        op.addr = wordVa(base, i);
        op.isStore = true;
        op.value = initVal(op.addr);
        work[idx % work.size()].push_back(op);
    }
    return work;
}

/**
 * CPU phase checking every @p step'th word of the array at @p base
 * against its expected words @p want.
 */
std::vector<std::vector<CpuOp>>
cpuCheckWords(Addr base, const std::vector<std::uint32_t> &want,
              std::uint32_t step, unsigned cores)
{
    std::vector<std::vector<CpuOp>> work(std::max(1u, cores));
    std::size_t idx = 0;
    for (std::uint32_t i = 0; i < want.size(); i += step, ++idx) {
        CpuOp op;
        op.addr = wordVa(base, i);
        op.isStore = false;
        op.value = want[i];
        op.checkValue = true;
        work[idx % work.size()].push_back(op);
    }
    return work;
}

} // namespace

// ---------------------------------------------------------------------
// SynthMix — the Graphite-style generator
// ---------------------------------------------------------------------

Workload
makeSynthMix(const SynthConfig &cfg)
{
    const unsigned B = cfg.mixBlocks;
    const unsigned W = cfg.mixWarps;
    const unsigned cores = std::max(1u, cfg.cpuCores);
    const std::uint32_t slice = cfg.mixSliceWords;
    const std::uint32_t priv = cfg.mixPrivWords;
    const std::uint32_t roWords = cfg.mixRoWords;
    const std::uint32_t rwWords = B * W * slice;
    const std::uint32_t privWords = B * W * priv;
    sim_assert(cfg.mixRoPct + cfg.mixRwPct <= 100);
    sim_assert(slice >= 32 && priv >= 32 && roWords >= 32);
    sim_assert(cfg.mixDepth >= 1);

    SynthEngine eng(cfg.seed);
    std::vector<std::uint32_t> rwV(rwWords), privV(privWords);
    for (std::uint32_t i = 0; i < rwWords; ++i)
        rwV[i] = initVal(wordVa(rwBase, i));
    for (std::uint32_t i = 0; i < privWords; ++i)
        privV[i] = initVal(wordVa(privBase, i));

    Workload wl;
    wl.name = "SynthMix";
    wl.init = [roWords, rwWords, privWords](FunctionalMem &fm) {
        for (std::uint32_t i = 0; i < roWords; ++i)
            fm.writeWord(wordVa(roBase, i), initVal(wordVa(roBase, i)));
        for (std::uint32_t i = 0; i < rwWords; ++i)
            fm.writeWord(wordVa(rwBase, i), initVal(wordVa(rwBase, i)));
        for (std::uint32_t i = 0; i < privWords; ++i) {
            fm.writeWord(wordVa(privBase, i),
                         initVal(wordVa(privBase, i)));
        }
    };

    // CPU produce phase: warm the communicated input through the
    // coherent CPU L1s (same values as init, like the microbenches).
    wl.phases.push_back(
        Phase::cpu(cpuWriteWords(rwBase, rwWords, 4, cores)));
    wl.warmupPhases = 1;

    for (unsigned k = 0; k < cfg.mixKernels; ++k) {
        // Produce kernels write each block's own read-write slice;
        // consume kernels read a rotating peer's slice — the
        // read-write-shared category migrates CU-to-CU across the
        // phase boundary without ever racing within one.
        const bool produce = (k % 2 == 0);
        Kernel kern;
        kern.name = produce ? "synthmix_produce" : "synthmix_consume";
        for (unsigned b = 0; b < B; ++b) {
            TbBuilder tb(cfg.org, W);

            TileUse ro;
            ro.tile = wordTile(roBase, 0, roWords);
            ro.readIn = true;
            ro.writeOut = false;
            ro.originallyGlobal = true;
            ro.convertible = false; // shared across blocks: stays global
            const unsigned tRo = tb.addTile(ro);

            TileUse rw;
            const unsigned owner =
                produce ? b : (b + 1 + k / 2) % B;
            rw.tile = wordTile(rwBase, owner * W * slice, W * slice);
            rw.localOffset = 0;
            rw.readIn = true;
            rw.writeOut = produce;
            const unsigned tRw = tb.addTile(rw);

            TileUse pv;
            pv.tile = wordTile(privBase, b * W * priv, W * priv);
            pv.localOffset = W * slice * wordBytes;
            pv.readIn = true;
            pv.writeOut = true;
            const unsigned tPriv = tb.addTile(pv);

            for (unsigned w = 0; w < W; ++w) {
                unsigned burst = 0;
                for (unsigned a = 0; a < cfg.mixAccesses; ++a) {
                    const unsigned cat = eng.range(100);
                    if (cat < cfg.mixRoPct) {
                        // Read-only-shared: random per-lane gather.
                        LaneList elems;
                        for (unsigned l = 0; l < 32; ++l)
                            elems.push_back(eng.range(roWords));
                        tb.accessTile(w, tRo, elems, false);
                    } else if (cat < cfg.mixRoPct + cfg.mixRwPct) {
                        if (produce) {
                            // Store to this warp's own sub-slice with
                            // an explicit generator value, tracked in
                            // the model (single writer per word).
                            const std::uint32_t start =
                                w * slice + eng.range(slice - 31);
                            const std::uint32_t v =
                                std::uint32_t(eng.next());
                            tb.accessTile(w, tRw, laneElems(start, 32),
                                          true, false, v);
                            for (unsigned l = 0; l < 32; ++l)
                                rwV[owner * W * slice + start + l] = v;
                        } else {
                            const std::uint32_t start =
                                eng.range(W * slice - 31);
                            tb.accessTile(w, tRw, laneElems(start, 32),
                                          false);
                        }
                    } else {
                        // Private: this warp's own segment.
                        const std::uint32_t start =
                            w * priv + eng.range(priv - 31);
                        if (eng.range(2) == 1) {
                            const std::uint32_t v =
                                std::uint32_t(eng.next());
                            tb.accessTile(w, tPriv,
                                          laneElems(start, 32), true,
                                          false, v);
                            for (unsigned l = 0; l < 32; ++l)
                                privV[b * W * priv + start + l] = v;
                        } else {
                            tb.accessTile(w, tPriv,
                                          laneElems(start, 32), false);
                        }
                    }
                    if (++burst == cfg.mixDepth) {
                        tb.compute(w, cfg.mixComputeCycles);
                        burst = 0;
                    }
                }
                if (burst)
                    tb.compute(w, cfg.mixComputeCycles);
            }
            kern.blocks.push_back(tb.build());
        }
        wl.phases.push_back(Phase::gpu(std::move(kern)));
    }

    wl.phases.push_back(
        Phase::cpu(cpuCheckWords(rwBase, rwV, 8, cores)));
    auto model = std::make_shared<Model>();
    addArray(*model, rwBase, std::move(rwV));
    addArray(*model, privBase, std::move(privV));
    wl.validate = modelValidator(model);
    return wl;
}

// ---------------------------------------------------------------------
// GraphGather — CSR irregular gather
// ---------------------------------------------------------------------

Workload
makeGraphGather(const SynthConfig &cfg)
{
    const std::uint32_t V = cfg.graphVerts;
    const unsigned deg = cfg.graphDegree;
    const unsigned B = cfg.graphBlocks;
    const unsigned W = cfg.graphWarps;
    const unsigned iters = cfg.graphIters;
    const unsigned cores = std::max(1u, cfg.cpuCores);
    sim_assert(V % B == 0 && iters >= 1 && deg >= 1);
    const std::uint32_t perB = V / B;
    sim_assert(perB % W == 0);
    const std::uint32_t perW = perB / W;

    SynthEngine eng(cfg.seed);
    // The host-side graph: fixed out-degree CSR column indices.
    auto col = std::make_shared<std::vector<std::uint32_t>>(
        std::size_t(V) * deg);
    for (auto &c : *col)
        c = eng.range(V);

    std::vector<std::uint32_t> va(V), vb(V, 0);
    for (std::uint32_t v = 0; v < V; ++v)
        va[v] = initVal(wordVa(graphABase, v));

    Workload wl;
    wl.name = "GraphGather";
    wl.init = [V, deg, col](FunctionalMem &fm) {
        for (std::uint32_t i = 0; i < std::uint32_t(V) * deg; ++i)
            fm.writeWord(wordVa(graphColBase, i), (*col)[i]);
        for (std::uint32_t v = 0; v < V; ++v)
            fm.writeWord(wordVa(graphABase, v),
                         initVal(wordVa(graphABase, v)));
    };

    wl.phases.push_back(Phase::cpu(cpuWriteWords(graphABase, V, 1,
                                                 cores)));
    wl.warmupPhases = 1;

    for (unsigned it = 0; it < iters; ++it) {
        const Addr src = (it % 2 == 0) ? graphABase : graphBBase;
        const Addr dst = (it % 2 == 0) ? graphBBase : graphABase;
        const std::vector<std::uint32_t> &srcV =
            (it % 2 == 0) ? va : vb;
        std::vector<std::uint32_t> &dstV = (it % 2 == 0) ? vb : va;

        Kernel kern;
        kern.name = "graph_gather";
        for (unsigned b = 0; b < B; ++b) {
            TbBuilder tb(cfg.org, W);

            // The block's column-index slice streams through the
            // local space; the vertex-value array is gathered
            // irregularly and stays global everywhere (no per-block
            // reuse to exploit).
            TileUse cu;
            cu.tile = wordTile(graphColBase, b * perB * deg,
                               perB * deg);
            cu.localOffset = 0;
            cu.readIn = true;
            cu.writeOut = false;
            const unsigned tCol = tb.addTile(cu);

            TileUse su;
            su.tile = wordTile(src, 0, V);
            su.readIn = true;
            su.writeOut = false;
            su.originallyGlobal = true;
            su.convertible = false;
            const unsigned tSrc = tb.addTile(su);

            TileUse du;
            du.tile = wordTile(dst, b * perB, perB);
            du.localOffset = perB * deg * wordBytes;
            du.readIn = false; // every owned vertex is overwritten
            du.writeOut = true;
            const unsigned tDst = tb.addTile(du);

            for (unsigned w = 0; w < W; ++w) {
                for (std::uint32_t g = 0; g < perW; g += 32) {
                    const std::uint32_t lanes =
                        std::min<std::uint32_t>(32, perW - g);
                    const std::uint32_t vrel0 = w * perW + g;
                    for (unsigned j = 0; j < deg; ++j) {
                        LaneList ce, ge;
                        for (std::uint32_t l = 0; l < lanes; ++l) {
                            ce.push_back((vrel0 + l) * deg + j);
                            ge.push_back((*col)[std::size_t(
                                             b * perB + vrel0 + l) *
                                             deg + j]);
                        }
                        tb.accessTile(w, tCol, ce, false);
                        tb.accessTile(w, tSrc, ge, false);
                    }
                    // acc = src[col[v*deg + deg-1]] after the final
                    // gather; +1 and scatter into the owned slice.
                    tb.compute(w, 2, 1);
                    tb.accessTile(w, tDst, laneElems(vrel0, lanes),
                                  true, true);
                }
            }
            kern.blocks.push_back(tb.build());
        }
        wl.phases.push_back(Phase::gpu(std::move(kern)));

        for (std::uint32_t v = 0; v < V; ++v) {
            dstV[v] =
                srcV[(*col)[std::size_t(v) * deg + deg - 1]] + 1;
        }
    }

    const bool finalInB = iters % 2 == 1;
    wl.phases.push_back(Phase::cpu(cpuCheckWords(
        finalInB ? graphBBase : graphABase, finalInB ? vb : va, 4,
        cores)));
    auto model = std::make_shared<Model>();
    addArray(*model, graphABase, std::move(va));
    addArray(*model, graphBBase, std::move(vb));
    wl.validate = modelValidator(model);
    return wl;
}

// ---------------------------------------------------------------------
// AttnScatter — chunked gather/scatter with mid-kernel re-staging
// ---------------------------------------------------------------------

Workload
makeAttnScatter(const SynthConfig &cfg)
{
    const std::uint32_t Q = cfg.attnQueries;
    const std::uint32_t K = cfg.attnKeyWords;
    const std::uint32_t C = cfg.attnChunkWords;
    const unsigned B = cfg.attnBlocks;
    const unsigned cores = std::max(1u, cfg.cpuCores);
    sim_assert(Q % B == 0 && K % C == 0);
    sim_assert(cfg.attnChunks >= 1 && cfg.attnGathers >= 1);
    const std::uint32_t perB = Q / B;
    const std::uint32_t numChunks = K / C;

    SynthEngine eng(cfg.seed);
    std::vector<std::uint32_t> kv(K), qv(Q), out(Q, 0);
    for (std::uint32_t i = 0; i < K; ++i)
        kv[i] = initVal(wordVa(attnKBase, i));
    for (std::uint32_t i = 0; i < Q; ++i)
        qv[i] = initVal(wordVa(attnQBase, i));

    Workload wl;
    wl.name = "AttnScatter";
    wl.init = [K, Q](FunctionalMem &fm) {
        for (std::uint32_t i = 0; i < K; ++i)
            fm.writeWord(wordVa(attnKBase, i),
                         initVal(wordVa(attnKBase, i)));
        for (std::uint32_t i = 0; i < Q; ++i)
            fm.writeWord(wordVa(attnQBase, i),
                         initVal(wordVa(attnQBase, i)));
    };

    {
        auto work = cpuWriteWords(attnQBase, Q, 1, cores);
        auto keys = cpuWriteWords(attnKBase, K, 4, cores);
        for (std::size_t c = 0; c < work.size(); ++c) {
            work[c].insert(work[c].end(), keys[c].begin(),
                           keys[c].end());
        }
        wl.phases.push_back(Phase::cpu(std::move(work)));
        wl.warmupPhases = 1;
    }

    Kernel kern;
    kern.name = "attn_gather";
    for (unsigned b = 0; b < B; ++b) {
        // One warp per block keeps the re-staging barrier trivial;
        // the parallelism axis is the 15 blocks across the CUs.
        TbBuilder tb(cfg.org, 1);

        TileUse qu;
        qu.tile = wordTile(attnQBase, b * perB, perB);
        qu.localOffset = 0;
        qu.readIn = true;
        qu.writeOut = false;
        const unsigned tQ = tb.addTile(qu);

        // The stash requires chunk-aligned (64 B) local bases, and
        // small smoke sizings make perB*wordBytes fall short of that.
        const auto alignUp = [](std::uint32_t bytes) {
            return (bytes + 63u) & ~63u;
        };

        const std::uint32_t chunk0 = eng.range(numChunks);
        TileUse ku;
        ku.tile = wordTile(attnKBase, chunk0 * C, C);
        ku.localOffset = alignUp(perB * wordBytes);
        ku.readIn = true;
        ku.writeOut = false; // read-only: legal to re-stage
        const unsigned tK = tb.addTile(ku);

        TileUse ou;
        ou.tile = wordTile(attnOutBase, b * perB, perB);
        ou.localOffset = alignUp(ku.localOffset + C * wordBytes);
        ou.readIn = false; // every owned query is overwritten
        ou.writeOut = true;
        const unsigned tO = tb.addTile(ou);

        for (unsigned c = 0; c < cfg.attnChunks; ++c) {
            const std::uint32_t chunk =
                c == 0 ? chunk0 : eng.range(numChunks);
            if (c > 0)
                tb.restage(tK, wordTile(attnKBase, chunk * C, C));
            for (std::uint32_t g = 0; g < perB; g += 32) {
                const std::uint32_t lanes =
                    std::min<std::uint32_t>(32, perB - g);
                tb.accessTile(0, tQ, laneElems(g, lanes), false);
                LaneList last;
                for (unsigned t = 0; t < cfg.attnGathers; ++t) {
                    LaneList ge;
                    for (std::uint32_t l = 0; l < lanes; ++l)
                        ge.push_back(eng.range(C));
                    tb.accessTile(0, tK, ge, false);
                    last = ge;
                }
                tb.compute(0, 2, 1);
                tb.accessTile(0, tO, laneElems(g, lanes), true, true);
                for (std::uint32_t l = 0; l < lanes; ++l)
                    out[b * perB + g + l] = kv[chunk * C + last[l]] + 1;
            }
        }
        kern.blocks.push_back(tb.build());
    }
    wl.phases.push_back(Phase::gpu(std::move(kern)));

    wl.phases.push_back(
        Phase::cpu(cpuCheckWords(attnOutBase, out, 1, cores)));
    auto model = std::make_shared<Model>();
    addArray(*model, attnQBase, std::move(qv));
    addArray(*model, attnKBase, std::move(kv));
    addArray(*model, attnOutBase, std::move(out));
    wl.validate = modelValidator(model);
    return wl;
}

// ---------------------------------------------------------------------
// Stencil2D — 5-point stencil over row bands
// ---------------------------------------------------------------------

Workload
makeStencil2D(const SynthConfig &cfg)
{
    const std::uint32_t X = cfg.stencilX;
    const std::uint32_t Y = cfg.stencilY;
    const unsigned B = cfg.stencilBlocks;
    const unsigned W = cfg.stencilWarps;
    const unsigned iters = cfg.stencilIters;
    const unsigned cores = std::max(1u, cfg.cpuCores);
    sim_assert(Y % B == 0 && iters >= 1 && X >= 2);
    const std::uint32_t rows = Y / B;

    std::vector<std::uint32_t> ga(std::size_t(X) * Y),
        gb(std::size_t(X) * Y, 0);
    for (std::uint32_t i = 0; i < X * Y; ++i)
        ga[i] = initVal(wordVa(stencilABase, i));

    Workload wl;
    wl.name = "Stencil2D";
    wl.init = [X, Y](FunctionalMem &fm) {
        for (std::uint32_t i = 0; i < X * Y; ++i)
            fm.writeWord(wordVa(stencilABase, i),
                         initVal(wordVa(stencilABase, i)));
    };

    wl.phases.push_back(
        Phase::cpu(cpuWriteWords(stencilABase, X * Y, 1, cores)));
    wl.warmupPhases = 1;

    for (unsigned it = 0; it < iters; ++it) {
        const Addr src = (it % 2 == 0) ? stencilABase : stencilBBase;
        const Addr dst = (it % 2 == 0) ? stencilBBase : stencilABase;
        const std::vector<std::uint32_t> &srcV =
            (it % 2 == 0) ? ga : gb;
        std::vector<std::uint32_t> &dstV = (it % 2 == 0) ? gb : ga;

        Kernel kern;
        kern.name = "stencil_step";
        for (unsigned b = 0; b < B; ++b) {
            const std::uint32_t firstRow = b * rows;
            const std::uint32_t lastRow = firstRow + rows - 1;
            const std::uint32_t tileFirst =
                firstRow > 0 ? firstRow - 1 : 0;
            const std::uint32_t tileLast =
                std::min(lastRow + 1, Y - 1);

            TbBuilder tb(cfg.org, W);
            TileUse in;
            in.tile = wordTile(src, tileFirst * X,
                               (tileLast - tileFirst + 1) * X);
            in.localOffset = 0;
            in.readIn = true;
            in.writeOut = false;
            const unsigned tIn = tb.addTile(in);

            TileUse ou;
            ou.tile = wordTile(dst, firstRow * X, rows * X);
            ou.localOffset = (tileLast - tileFirst + 1) * X *
                             wordBytes;
            ou.readIn = false; // the band is fully overwritten
            ou.writeOut = true;
            const unsigned tOut = tb.addTile(ou);

            const std::uint32_t cells = rows * X;
            unsigned g = 0;
            for (std::uint32_t c0 = 0; c0 < cells; c0 += 32, ++g) {
                const unsigned w = g % W;
                const std::uint32_t lanes =
                    std::min<std::uint32_t>(32, cells - c0);
                // Clamped-boundary 5-point star, south loaded last so
                // the accumulator dataflow is host-predictable:
                // out[r][c] = in[min(r+1, Y-1)][c] + 1.
                LaneList eC, eN, eW, eE, eS, eO;
                for (std::uint32_t l = 0; l < lanes; ++l) {
                    const std::uint32_t cell = c0 + l;
                    const std::uint32_t r = firstRow + cell / X;
                    const std::uint32_t cc = cell % X;
                    auto rel = [&](std::uint32_t rr,
                                   std::uint32_t c2) {
                        return (rr - tileFirst) * X + c2;
                    };
                    eC.push_back(rel(r, cc));
                    eN.push_back(rel(r > 0 ? r - 1 : r, cc));
                    eW.push_back(rel(r, cc > 0 ? cc - 1 : cc));
                    eE.push_back(rel(r, cc < X - 1 ? cc + 1 : cc));
                    eS.push_back(rel(r < Y - 1 ? r + 1 : r, cc));
                    eO.push_back(cell);
                }
                tb.accessTile(w, tIn, eC, false);
                tb.accessTile(w, tIn, eN, false);
                tb.accessTile(w, tIn, eW, false);
                tb.accessTile(w, tIn, eE, false);
                tb.accessTile(w, tIn, eS, false);
                tb.compute(w, 3, 1);
                tb.accessTile(w, tOut, eO, true, true);
            }
            kern.blocks.push_back(tb.build());
        }
        wl.phases.push_back(Phase::gpu(std::move(kern)));

        for (std::uint32_t r = 0; r < Y; ++r) {
            const std::uint32_t rs = r < Y - 1 ? r + 1 : r;
            for (std::uint32_t c = 0; c < X; ++c)
                dstV[r * X + c] = srcV[rs * X + c] + 1;
        }
    }

    const bool finalInB = iters % 2 == 1;
    wl.phases.push_back(Phase::cpu(cpuCheckWords(
        finalInB ? stencilBBase : stencilABase, finalInB ? gb : ga, 8,
        cores)));
    auto model = std::make_shared<Model>();
    addArray(*model, stencilABase, std::move(ga));
    addArray(*model, stencilBBase, std::move(gb));
    wl.validate = modelValidator(model);
    return wl;
}

// ---------------------------------------------------------------------
// Scales, names, registration
// ---------------------------------------------------------------------

SynthConfig
scaledSynthConfig(const WorkloadParams &p)
{
    SynthConfig c;
    c.org = p.org;
    if (p.cpuCores)
        c.cpuCores = p.cpuCores;
    switch (p.scale) {
      case Scale::Full:
        break;
      case Scale::Quick:
        c.mixKernels = 2;
        c.mixAccesses = 32;
        c.mixRoWords = 4096;
        c.mixSliceWords = 256;
        c.mixPrivWords = 256;
        c.graphVerts = 1920;
        c.graphDegree = 6;
        c.graphIters = 2;
        c.attnQueries = 240;
        c.attnKeyWords = 2048;
        c.attnChunkWords = 256;
        c.attnChunks = 3;
        c.attnGathers = 3;
        c.stencilX = 128;
        c.stencilY = 30;
        c.stencilIters = 2;
        break;
      case Scale::Smoke:
        c.mixKernels = 2;
        c.mixAccesses = 12;
        c.mixRoWords = 1024;
        c.mixSliceWords = 64;
        c.mixPrivWords = 64;
        c.graphVerts = 960;
        c.graphDegree = 4;
        c.graphIters = 2;
        c.attnQueries = 120;
        c.attnKeyWords = 1024;
        c.attnChunkWords = 128;
        c.attnChunks = 2;
        c.attnGathers = 2;
        c.stencilX = 64;
        c.stencilY = 15;
        c.stencilIters = 1;
        break;
    }
    return c;
}

std::vector<std::string>
syntheticNames()
{
    return {"SynthMix", "GraphGather", "AttnScatter", "Stencil2D"};
}

Workload
makeSynthetic(const std::string &name, const SynthConfig &cfg)
{
    if (name == "SynthMix")
        return makeSynthMix(cfg);
    if (name == "GraphGather")
        return makeGraphGather(cfg);
    if (name == "AttnScatter")
        return makeAttnScatter(cfg);
    if (name == "Stencil2D")
        return makeStencil2D(cfg);
    fatal("unknown synthetic workload: ", name);
}

void
registerSyntheticWorkloads(WorkloadFactory &factory)
{
    const struct
    {
        const char *name;
        const char *desc;
    } entries[] = {
        {"SynthMix", "Graphite-style synthetic memory mix "
                     "(ro-shared/rw-shared/private)"},
        {"GraphGather", "CSR graph traversal: staged indices, "
                        "irregular global gather"},
        {"AttnScatter", "attention-style gather/scatter over "
                        "re-staged key chunks"},
        {"Stencil2D", "5-point 2D stencil over staged row bands "
                      "with halos"},
    };
    for (const auto &e : entries) {
        WorkloadInfo info;
        info.name = e.name;
        info.kind = WorkloadInfo::Kind::Synthetic;
        info.description = e.desc;
        const std::string name = e.name;
        factory.registerWorkload(
            std::move(info), [name](const WorkloadParams &p) {
                return makeSynthetic(name, scaledSynthConfig(p));
            });
    }

    WorkloadInfo info;
    info.name = "TraceReplay";
    info.kind = WorkloadInfo::Kind::Replay;
    info.description = "stashtrace-v1 replay (built-in demo trace; "
                       "bring your own with --trace-replay FILE)";
    factory.registerWorkload(
        std::move(info), [](const WorkloadParams &p) {
            TraceData t;
            std::string err;
            if (!parseTrace(demoTrace(), TraceLimits(), t, err))
                fatal("built-in demo trace: ", err);
            return makeTraceReplay(t, p.org);
        });
}

} // namespace workloads
} // namespace stashsim
