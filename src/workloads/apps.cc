#include "workloads/apps.hh"

#include "sim/log.hh"
#include "workloads/kernel_builder.hh"

namespace stashsim
{
namespace workloads
{

namespace
{

/** Virtual base addresses of the application arrays. */
constexpr Addr matABase = 0x4000'0000;   // primary matrix / input
constexpr Addr matBBase = 0x5000'0000;   // secondary matrix
constexpr Addr matCBase = 0x6000'0000;   // output
constexpr Addr matDBase = 0x7000'0000;   // auxiliary

/** Element address in a dense row-major float matrix. */
Addr
matAddr(Addr base, unsigned ncols, unsigned r, unsigned c)
{
    return base + (Addr(r) * ncols + c) * wordBytes;
}

/** 2D sub-tile of a dense matrix: rows x cols at (r0, c0). */
TileSpec
tile2d(Addr base, unsigned ncols, unsigned r0, unsigned c0,
       unsigned rows, unsigned cols)
{
    TileSpec t;
    t.globalBase = matAddr(base, ncols, r0, c0);
    t.fieldSize = wordBytes;
    t.objectSize = wordBytes;
    t.rowSize = cols;
    t.strideSize = ncols * wordBytes;
    t.numStrides = rows;
    t.isCoherent = true;
    return t;
}

/** 1D dense tile of @p count words at @p base + offset words. */
TileSpec
tile1d(Addr base, std::uint32_t first_word, std::uint32_t count)
{
    TileSpec t;
    t.globalBase = base + Addr(first_word) * wordBytes;
    t.fieldSize = wordBytes;
    t.objectSize = wordBytes;
    t.rowSize = count;
    t.strideSize = 0;
    t.numStrides = 1;
    t.isCoherent = true;
    return t;
}

/** Initializes @p words words at @p base with a simple pattern. */
void
initWords(FunctionalMem &fm, Addr base, std::uint32_t words)
{
    for (std::uint32_t i = 0; i < words; ++i)
        fm.writeWord(base + Addr(i) * wordBytes, i % 251 + 1);
}

/**
 * A small CPU consumption phase: read @p words output words.  The
 * paper's applications "perform very little work on the CPU"
 * (Section 5.4.2), so this stays small relative to the kernels.
 */
Phase
cpuConsume(Addr base, std::uint32_t words, unsigned cores)
{
    std::vector<std::vector<CpuOp>> work(cores);
    for (std::uint32_t i = 0; i < words; ++i) {
        CpuOp op;
        op.addr = base + Addr(i) * wordBytes;
        work[i % cores].push_back(op);
    }
    return Phase::cpu(std::move(work));
}

/** Elements 0..count-1 of row @p r in a rows x cols staged tile. */
LaneList
rowElems(unsigned r, unsigned cols, unsigned count = 0)
{
    return laneElems(r * cols, count ? count : cols);
}

} // namespace

// ---------------------------------------------------------------------
// LUD (Rodinia): blocked LU decomposition, 256x256, 16x16 tiles
// ---------------------------------------------------------------------

Workload
makeLud(const AppConfig &cfg)
{
    const unsigned n = cfg.ludN;
    const unsigned t = cfg.ludTile;
    const unsigned nb = n / t;
    sim_assert(n % t == 0);

    Workload wl;
    wl.name = "LUD";
    wl.init = [=](FunctionalMem &fm) { initWords(fm, matABase, n * n); };

    for (unsigned k = 0; k < nb; ++k) {
        // --- Diagonal kernel: factor tile (k, k) in place.
        {
            Kernel ker;
            ker.name = "lud_diagonal";
            TbBuilder b(cfg.org, t * t / 64); // t*t threads
            TileUse diag;
            diag.tile = tile2d(matABase, n, k * t, k * t, t, t);
            diag.readIn = true;
            diag.writeOut = true;
            const unsigned td = b.addTile(diag);
            const unsigned warps = t * t / 64;
            for (unsigned r = 0; r < t; ++r) {
                const unsigned w = r % warps;
                b.accessTile(w, td, rowElems(r, t), false);
                b.compute(w, 2);
                        b.compute(w, 3);
                b.compute(w, 1, 1);
                b.accessTile(w, td, rowElems(r, t), true);
            }
            ker.blocks.push_back(b.build());
            wl.phases.push_back(Phase::gpu(std::move(ker)));
        }

        // --- Perimeter kernel: update row and column strips.
        if (k + 1 < nb) {
            Kernel ker;
            ker.name = "lud_perimeter";
            for (unsigned j = k + 1; j < nb; ++j) {
                for (int is_col = 0; is_col < 2; ++is_col) {
                    TbBuilder b(cfg.org, t * t / 64);
                    TileUse diag;
                    diag.tile = tile2d(matABase, n, k * t, k * t, t, t);
                    diag.readIn = true;
                    diag.writeOut = false;
                    const unsigned td = b.addTile(diag);
                    TileUse strip;
                    strip.tile =
                        is_col
                            ? tile2d(matABase, n, j * t, k * t, t, t)
                            : tile2d(matABase, n, k * t, j * t, t, t);
                    strip.readIn = true;
                    strip.writeOut = true;
                    strip.localOffset = diag.tile.mappedBytes();
                    const unsigned ts = b.addTile(strip);
                    const unsigned warps = t * t / 64;
                    for (unsigned r = 0; r < t; ++r) {
                        const unsigned w = r % warps;
                        b.accessTile(w, td, rowElems(r, t), false);
                        b.accessTile(w, ts, rowElems(r, t), false);
                        b.compute(w, 2);
                        b.compute(w, 3);
                        b.compute(w, 1, 1);
                        b.accessTile(w, ts, rowElems(r, t), true);
                    }
                    ker.blocks.push_back(b.build());
                }
            }
            wl.phases.push_back(Phase::gpu(std::move(ker)));
        }

        // --- Internal kernel: trailing submatrix update.
        if (k + 1 < nb) {
            Kernel ker;
            ker.name = "lud_internal";
            for (unsigned i = k + 1; i < nb; ++i) {
                for (unsigned j = k + 1; j < nb; ++j) {
                    TbBuilder b(cfg.org, t * t / 64);
                    TileUse row;
                    row.tile = tile2d(matABase, n, k * t, j * t, t, t);
                    row.readIn = true;
                    row.writeOut = false;
                    const unsigned tr = b.addTile(row);
                    TileUse col;
                    col.tile = tile2d(matABase, n, i * t, k * t, t, t);
                    col.readIn = true;
                    col.writeOut = false;
                    col.localOffset = row.tile.mappedBytes();
                    const unsigned tc = b.addTile(col);
                    // The updated tile is accessed globally in the
                    // original code (streamed once, no local reuse).
                    TileUse upd;
                    upd.tile = tile2d(matABase, n, i * t, j * t, t, t);
                    upd.readIn = true;
                    upd.writeOut = true;
                    upd.originallyGlobal = true;
                    upd.localOffset =
                        col.localOffset + col.tile.mappedBytes();
                    const unsigned tu = b.addTile(upd);

                    const unsigned warps = t * t / 64;
                    for (unsigned r = 0; r < t; ++r) {
                        const unsigned w = r % warps;
                        b.accessTile(w, tr, rowElems(r, t), false);
                        b.accessTile(w, tc, rowElems(r, t), false);
                        b.compute(w, 2);
                        b.compute(w, 3);
                        b.accessTile(w, tu, rowElems(r, t), false);
                        b.compute(w, 1, 1);
                        b.accessTile(w, tu, rowElems(r, t), true);
                    }
                    ker.blocks.push_back(b.build());
                }
            }
            wl.phases.push_back(Phase::gpu(std::move(ker)));
        }
    }

    wl.phases.push_back(cpuConsume(matABase, 256, cfg.cpuCores));
    return wl;
}

// ---------------------------------------------------------------------
// Backprop (Rodinia): one hidden layer, 32 KB input
// ---------------------------------------------------------------------

Workload
makeBackprop(const AppConfig &cfg)
{
    const unsigned in_words = cfg.bpInputBytes / wordBytes; // 8192
    const unsigned h = cfg.bpHidden;                        // 16
    const unsigned num_tbs = in_words / h / h;              // 32

    Workload wl;
    wl.name = "BP";
    wl.init = [=](FunctionalMem &fm) {
        initWords(fm, matABase, in_words);      // input units
        initWords(fm, matBBase, in_words * h / h); // weights (per tb)
        initWords(fm, matDBase, num_tbs * h);   // deltas
    };

    // Forward kernel: each block stages a 16-wide input slice and a
    // 16x16 weight tile, produces partial sums.
    {
        Kernel ker;
        ker.name = "bp_layerforward";
        for (unsigned tb = 0; tb < num_tbs; ++tb) {
            TbBuilder b(cfg.org, 8);
            TileUse in;
            in.tile = tile1d(matABase, tb * h * h, h * h);
            in.readIn = true;
            in.writeOut = false;
            const unsigned ti = b.addTile(in);
            TileUse wt;
            wt.tile = tile2d(matBBase, in_words / h, tb * h, 0, h, h);
            wt.readIn = true;
            wt.writeOut = false;
            wt.localOffset = in.tile.mappedBytes();
            const unsigned tw = b.addTile(wt);
            // Partial sums written once, globally.
            TileUse out;
            out.tile = tile1d(matCBase, tb * h, h);
            out.readIn = false;
            out.writeOut = true;
            out.originallyGlobal = true;
            out.localOffset = wt.localOffset + wt.tile.mappedBytes();
            const unsigned to = b.addTile(out);

            for (unsigned r = 0; r < h; ++r) {
                const unsigned w = r % 8;
                b.accessTile(w, ti, rowElems(r, h), false);
                b.accessTile(w, tw, rowElems(r, h), false);
                b.compute(w, 2);
                        b.compute(w, 3);
                b.compute(w, 1, 1);
            }
            b.accessTile(0, to, laneElems(0, h), true);
            ker.blocks.push_back(b.build());
        }
        wl.phases.push_back(Phase::gpu(std::move(ker)));
    }

    // Weight-adjust kernel: re-stages the weight tile read-write and
    // streams the deltas globally.
    {
        Kernel ker;
        ker.name = "bp_adjust_weights";
        for (unsigned tb = 0; tb < num_tbs; ++tb) {
            TbBuilder b(cfg.org, 8);
            TileUse wt;
            wt.tile = tile2d(matBBase, in_words / h, tb * h, 0, h, h);
            wt.readIn = true;
            wt.writeOut = true;
            const unsigned tw = b.addTile(wt);
            TileUse dl;
            dl.tile = tile1d(matDBase, tb * h, h);
            dl.readIn = true;
            dl.writeOut = false;
            dl.originallyGlobal = true;
            dl.localOffset = wt.tile.mappedBytes();
            const unsigned td = b.addTile(dl);

            for (unsigned r = 0; r < h; ++r) {
                const unsigned w = r % 8;
                b.accessTile(w, td, laneElems(0, h), false);
                b.accessTile(w, tw, rowElems(r, h), false);
                b.compute(w, 2);
                        b.compute(w, 3);
                b.compute(w, 1, 1);
                b.accessTile(w, tw, rowElems(r, h), true);
            }
            ker.blocks.push_back(b.build());
        }
        wl.phases.push_back(Phase::gpu(std::move(ker)));
    }

    wl.phases.push_back(cpuConsume(matBBase, 256, cfg.cpuCores));
    return wl;
}

// ---------------------------------------------------------------------
// NW (Rodinia): Needleman-Wunsch wavefront, 512x512, 16x16 tiles
// ---------------------------------------------------------------------

Workload
makeNw(const AppConfig &cfg)
{
    const unsigned n = cfg.nwN;
    const unsigned t = cfg.nwTile;
    const unsigned nb = n / t;
    sim_assert(n % t == 0);

    Workload wl;
    wl.name = "NW";
    wl.init = [=](FunctionalMem &fm) {
        initWords(fm, matABase, n * n); // itemsets
        initWords(fm, matBBase, n * n); // reference
    };

    auto make_tb = [&](unsigned bi, unsigned bj) {
        TbBuilder b(cfg.org, 4); // 128 threads
        TileUse ref;
        ref.tile = tile2d(matBBase, n, bi * t, bj * t, t, t);
        ref.readIn = true;
        ref.writeOut = false;
        const unsigned tref = b.addTile(ref);
        TileUse body;
        body.tile = tile2d(matABase, n, bi * t, bj * t, t, t);
        body.readIn = true;
        body.writeOut = true;
        body.localOffset = ref.tile.mappedBytes();
        const unsigned tbody = b.addTile(body);
        // North halo row (written by the block above, a previous
        // kernel): staged read-only.
        unsigned thalo = tbody;
        if (bi > 0) {
            TileUse halo;
            halo.tile = tile2d(matABase, n, bi * t - 1, bj * t, 1, t);
            halo.readIn = true;
            halo.writeOut = false;
            halo.localOffset =
                body.localOffset + body.tile.mappedBytes();
            thalo = b.addTile(halo);
        }

        // Wavefront within the tile: process rows with a barrier
        // between them (anti-diagonal dependences).
        for (unsigned r = 0; r < t; ++r) {
            const unsigned w = r % 4;
            if (r == 0 && bi > 0)
                b.accessTile(w, thalo, rowElems(0, t), false);
            else if (r > 0)
                b.accessTile(w, tbody, rowElems(r - 1, t), false);
            b.accessTile(w, tref, rowElems(r, t), false);
            b.compute(w, 2);
                        b.compute(w, 3);
            b.compute(w, 1, 1);
            b.accessTile(w, tbody, rowElems(r, t), true);
            if (r % 4 == 3)
                b.barrier();
        }
        return b.build();
    };

    // Forward sweep of anti-diagonals.
    for (unsigned d = 0; d < 2 * nb - 1; ++d) {
        Kernel ker;
        ker.name = "nw_diagonal";
        for (unsigned bi = 0; bi < nb; ++bi) {
            if (d < bi)
                continue;
            const unsigned bj = d - bi;
            if (bj >= nb)
                continue;
            ker.blocks.push_back(make_tb(bi, bj));
        }
        wl.phases.push_back(Phase::gpu(std::move(ker)));
    }

    wl.phases.push_back(cpuConsume(matABase, 256, cfg.cpuCores));
    return wl;
}

// ---------------------------------------------------------------------
// Pathfinder (Rodinia): 10 x 100K dynamic programming
// ---------------------------------------------------------------------

Workload
makePathfinder(const AppConfig &cfg)
{
    const unsigned cols = cfg.pfCols;
    const unsigned rows = cfg.pfRows;
    const unsigned seg = 256; // columns per thread block
    const unsigned num_tbs = cols / seg;
    sim_assert(cols % seg == 0);

    Workload wl;
    wl.name = "PF";
    wl.init = [=](FunctionalMem &fm) {
        initWords(fm, matABase, rows * cols); // wall
        initWords(fm, matBBase, cols);        // result ping
        initWords(fm, matCBase, cols);        // result pong
    };

    for (unsigned r = 0; r + 1 < rows; ++r) {
        const Addr src = (r % 2 == 0) ? matBBase : matCBase;
        const Addr dst = (r % 2 == 0) ? matCBase : matBBase;
        Kernel ker;
        ker.name = "pf_dynproc";
        for (unsigned tb = 0; tb < num_tbs; ++tb) {
            TbBuilder b(cfg.org, 8);
            // Previous row segment with halo.
            const std::uint32_t first =
                tb == 0 ? 0 : tb * seg - 1;
            const std::uint32_t count =
                (tb == 0 || tb + 1 == num_tbs) ? seg + 1 : seg + 2;
            TileUse prev;
            prev.tile = tile1d(src, first, count);
            prev.readIn = true;
            prev.writeOut = false;
            const unsigned tp = b.addTile(prev);
            TileUse out;
            out.tile = tile1d(dst, tb * seg, seg);
            out.readIn = false;
            out.writeOut = true;
            out.localOffset = 1088; // after the 258-word halo segment
            const unsigned to = b.addTile(out);
            // Wall row: streamed once, globally.
            TileUse wall;
            wall.tile =
                tile1d(matABase, (r + 1) * cols + tb * seg, seg);
            wall.readIn = true;
            wall.writeOut = false;
            wall.originallyGlobal = true;
            wall.localOffset = 2176;
            const unsigned tw = b.addTile(wall);

            for (unsigned w = 0; w < 8; ++w) {
                const auto elems = laneElems(w * 32, 32);
                b.accessTile(w, tp, elems, false);
                b.accessTile(w, tw, elems, false);
                b.compute(w, 2);
                        b.compute(w, 3);
                b.compute(w, 1, 1);
                b.accessTile(w, to, elems, true);
            }
            ker.blocks.push_back(b.build());
        }
        wl.phases.push_back(Phase::gpu(std::move(ker)));
    }

    wl.phases.push_back(cpuConsume(
        (rows % 2 == 0) ? matCBase : matBBase, 256, cfg.cpuCores));
    return wl;
}

// ---------------------------------------------------------------------
// SGEMM (Parboil): C = A x B, A 128x96, B 96x160
// ---------------------------------------------------------------------

Workload
makeSgemm(const AppConfig &cfg)
{
    const unsigned m = cfg.sgemmM, kk = cfg.sgemmK, nn = cfg.sgemmN;
    const unsigned t = cfg.sgemmTile;
    sim_assert(m % t == 0 && kk % t == 0 && nn % t == 0);

    Workload wl;
    wl.name = "SGEMM";
    wl.init = [=](FunctionalMem &fm) {
        initWords(fm, matABase, m * kk);
        initWords(fm, matBBase, kk * nn);
    };

    // The Parboil shared-memory kernel: each block computes one
    // 16x16 C tile; the k-loop re-stages a 16x16 B tile per step
    // (__syncthreads-delimited in the original; restage() lowers it
    // to copy loops, DMA transfers, or ChgMap per configuration).
    // A is streamed from global memory (registers in the original);
    // C accumulates in registers and is written once at the end.
    Kernel ker;
    ker.name = "sgemm_tiled";
    for (unsigned ti = 0; ti < m / t; ++ti) {
        for (unsigned tj = 0; tj < nn / t; ++tj) {
            TbBuilder b(cfg.org, 8);
            TileUse bs;
            bs.tile = tile2d(matBBase, nn, 0, tj * t, t, t);
            bs.readIn = true;
            bs.writeOut = false;
            const unsigned tb_tile = b.addTile(bs);
            TileUse as;
            as.tile = tile2d(matABase, kk, ti * t, 0, t, t);
            as.readIn = true;
            as.writeOut = false;
            as.originallyGlobal = true;
            as.localOffset = bs.tile.mappedBytes();
            const unsigned ta = b.addTile(as);
            TileUse cs;
            cs.tile = tile2d(matCBase, nn, ti * t, tj * t, t, t);
            cs.readIn = false;
            cs.writeOut = true;
            cs.originallyGlobal = true;
            cs.localOffset = as.localOffset + as.tile.mappedBytes();
            const unsigned tc = b.addTile(cs);

            for (unsigned kt = 0; kt < kk / t; ++kt) {
                if (kt > 0) {
                    b.restage(tb_tile, tile2d(matBBase, nn, kt * t,
                                              tj * t, t, t));
                    b.restage(ta, tile2d(matABase, kk, ti * t,
                                         kt * t, t, t));
                }
                for (unsigned r = 0; r < t; ++r) {
                    const unsigned w = r % 8;
                    b.accessTile(w, tb_tile, rowElems(r, t), false);
                    b.accessTile(w, ta, rowElems(r, t), false);
                    b.compute(w, 2);
                        b.compute(w, 3);
                    b.compute(w, 1, 1);
                }
            }
            for (unsigned r = 0; r < t; ++r)
                b.accessTile(r % 8, tc, rowElems(r, t), true);
            ker.blocks.push_back(b.build());
        }
    }
    wl.phases.push_back(Phase::gpu(std::move(ker)));

    wl.phases.push_back(cpuConsume(matCBase, 256, cfg.cpuCores));
    return wl;
}

// ---------------------------------------------------------------------
// Stencil (Parboil): 7-point stencil on 128x128x4, 4 iterations
// ---------------------------------------------------------------------

Workload
makeStencil(const AppConfig &cfg)
{
    const unsigned nx = cfg.stencilX, ny = cfg.stencilY,
                   nz = cfg.stencilZ;
    const unsigned t = 16;

    Workload wl;
    wl.name = "STENCIL";
    wl.init = [=](FunctionalMem &fm) {
        initWords(fm, matABase, nx * ny * nz);
        initWords(fm, matBBase, nx * ny * nz);
    };

    for (unsigned it = 0; it < cfg.stencilIters; ++it) {
        const Addr src = (it % 2 == 0) ? matABase : matBBase;
        const Addr dst = (it % 2 == 0) ? matBBase : matABase;
        Kernel ker;
        ker.name = "stencil_iter";
        for (unsigned z = 0; z < nz; ++z) {
            for (unsigned by = 0; by < ny / t; ++by) {
                for (unsigned bx = 0; bx < nx / t; ++bx) {
                    TbBuilder b(cfg.org, 8);
                    // The block's own 16x16 slab is staged (as the
                    // Parboil shared-memory kernel stages its
                    // blockDim-sized tile); the one-row halos are
                    // read from the global space.  Under StashG the
                    // staged input tile of iteration i+1 is exactly
                    // iteration i's output mapping of the ping-pong
                    // buffer, so the stash's replication optimization
                    // serves it locally.
                    TileUse in;
                    in.tile = tile2d(src, nx, by * t + z * ny, bx * t,
                                     t, t);
                    in.readIn = true;
                    in.writeOut = false;
                    const unsigned tin = b.addTile(in);
                    TileUse out;
                    out.tile = tile2d(dst, nx, by * t + z * ny,
                                      bx * t, t, t);
                    out.readIn = false;
                    out.writeOut = true;
                    out.originallyGlobal = true;
                    out.localOffset = 1024;
                    const unsigned tout = b.addTile(out);
                    unsigned thalo_n = tin, thalo_s = tin;
                    if (by > 0) {
                        TileUse halo;
                        halo.tile = tile2d(src, nx,
                                           by * t - 1 + z * ny,
                                           bx * t, 1, t);
                        halo.readIn = true;
                        halo.writeOut = false;
                        halo.originallyGlobal = true;
                        halo.convertible = false; // one-row, no reuse
                        halo.localOffset = 2048;
                        thalo_n = b.addTile(halo);
                    }
                    if ((by + 1) * t < ny) {
                        TileUse halo;
                        halo.tile = tile2d(src, nx,
                                           (by + 1) * t + z * ny,
                                           bx * t, 1, t);
                        halo.readIn = true;
                        halo.writeOut = false;
                        halo.originallyGlobal = true;
                        halo.convertible = false; // one-row, no reuse
                        halo.localOffset = 2112;
                        thalo_s = b.addTile(halo);
                    }

                    for (unsigned r = 0; r < t; ++r) {
                        const unsigned w = r % 8;
                        b.accessTile(w, tin, rowElems(r, t), false);
                        if (r > 0)
                            b.accessTile(w, tin, rowElems(r - 1, t),
                                         false);
                        else if (thalo_n != tin)
                            b.accessTile(w, thalo_n, rowElems(0, t),
                                         false);
                        if (r + 1 < t)
                            b.accessTile(w, tin, rowElems(r + 1, t),
                                         false);
                        else if (thalo_s != tin)
                            b.accessTile(w, thalo_s, rowElems(0, t),
                                         false);
                        b.compute(w, 2);
                        b.compute(w, 3);
                        b.compute(w, 1, 1);
                        b.accessTile(w, tout, rowElems(r, t), true);
                    }
                    ker.blocks.push_back(b.build());
                }
            }
        }
        wl.phases.push_back(Phase::gpu(std::move(ker)));
    }

    wl.phases.push_back(cpuConsume(
        (cfg.stencilIters % 2 == 0) ? matABase : matBBase, 256,
        cfg.cpuCores));
    return wl;
}

// ---------------------------------------------------------------------
// SURF (OpenSURF): interest-point responses over a 66 KB image
// ---------------------------------------------------------------------

Workload
makeSurf(const AppConfig &cfg)
{
    // Treat the image as 128 rows x (pixels/128) columns.
    const unsigned rows = 128;
    const unsigned cols = cfg.surfPixels / rows;
    const unsigned t = 16;

    Workload wl;
    wl.name = "SURF";
    wl.init = [=](FunctionalMem &fm) {
        initWords(fm, matABase, rows * cols); // integral image
    };

    Kernel ker;
    ker.name = "surf_hessian";
    for (unsigned br = 0; br < rows / t; ++br) {
        for (unsigned bc = 0; bc < cols / t; ++bc) {
            TbBuilder b(cfg.org, 8);
            TileUse img;
            img.tile = tile2d(matABase, cols, br * t, bc * t, t, t);
            img.readIn = true;
            img.writeOut = false;
            const unsigned ti = b.addTile(img);
            TileUse resp;
            resp.tile = tile2d(matCBase, cols, br * t, bc * t, t, t);
            resp.readIn = false;
            resp.writeOut = true;
            resp.originallyGlobal = true;
            resp.localOffset = img.tile.mappedBytes();
            const unsigned tr = b.addTile(resp);

            for (unsigned r = 0; r < t; ++r) {
                const unsigned w = r % 8;
                // Box-filter taps: several staged reads per output.
                b.accessTile(w, ti, rowElems(r, t), false);
                if (r > 0)
                    b.accessTile(w, ti, rowElems(r - 1, t), false);
                if (r + 1 < t)
                    b.accessTile(w, ti, rowElems(r + 1, t), false);
                b.compute(w, 3);
                b.compute(w, 2);
                        b.compute(w, 3);
                b.compute(w, 1, 1);
                b.accessTile(w, tr, rowElems(r, t), true);
            }
            ker.blocks.push_back(b.build());
        }
    }
    wl.phases.push_back(Phase::gpu(std::move(ker)));

    wl.phases.push_back(cpuConsume(matCBase, 256, cfg.cpuCores));
    return wl;
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::vector<std::string>
applicationNames()
{
    return {"LUD", "SURF", "BP", "NW", "PF", "SGEMM", "STENCIL"};
}

Workload
makeApplication(const std::string &name, const AppConfig &cfg)
{
    if (name == "LUD")
        return makeLud(cfg);
    if (name == "SURF")
        return makeSurf(cfg);
    if (name == "BP")
        return makeBackprop(cfg);
    if (name == "NW")
        return makeNw(cfg);
    if (name == "PF")
        return makePathfinder(cfg);
    if (name == "SGEMM")
        return makeSgemm(cfg);
    if (name == "STENCIL")
        return makeStencil(cfg);
    fatal("unknown application: ", name);
}

} // namespace workloads
} // namespace stashsim
