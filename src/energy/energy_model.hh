/**
 * @file
 * Dynamic-energy model.
 *
 * The paper measures dynamic energy with GPUWattch (CUs + memory
 * hierarchy, with the stash modelled as a scratchpad plus state bits,
 * an SRAM stash-map and a CAM VP-map) and McPAT (NoC), and reports it
 * as a five-way breakdown: GPU core+, L1 D$, scratch/stash, L2 $, and
 * network (Figures 5b and 6b).  We reproduce that as an analytic
 * model: every energy term is (event count) x (per-event energy).
 *
 * Per-access energies of the local structures are the paper's own
 * Table 3 numbers.  The remaining three constants (GPU core+ per
 * warp instruction, L2 per access, NoC per flit-hop) are not given
 * numerically in the paper; they are calibrated once, globally — not
 * per benchmark — so that the breakdown proportions of the Scratch
 * baseline resemble Figure 5b/6b, and they are identical across all
 * memory configurations, so every *relative* result is driven purely
 * by counted events.
 */

#ifndef STASHSIM_ENERGY_ENERGY_MODEL_HH
#define STASHSIM_ENERGY_ENERGY_MODEL_HH

#include "sim/stats.hh"

namespace stashsim
{

/** Per-event energies in picojoules. */
struct EnergyParams
{
    // --- Table 3 (paper) -------------------------------------------
    double scratchpadAccess = 55.3;
    double stashHit = 55.4;
    double stashMiss = 86.8;
    double l1Hit = 177.0;
    double l1Miss = 197.0;
    double tlbAccess = 14.1;

    // --- Calibrated (see file comment) ------------------------------
    /** GPU core+ (fetch/decode/RF/ALU/scheduler) per warp instr. */
    double gpuCoreInstr = 700.0;
    /**
     * Activity-independent GPU core+ energy per CU-cycle (clock
     * tree, scheduler, pipeline latches) — the dominant term of
     * GPUWattch's SM energy, which makes longer-running
     * configurations cost proportionally more.
     */
    double gpuCorePerCuCycle = 300.0;
    /** L2 bank data/tag access. */
    double l2Access = 120.0;
    /** Mesh router+link traversal per flit. */
    double nocFlitHop = 10.0;
};

/** The paper's five-way dynamic-energy breakdown, in picojoules. */
struct EnergyBreakdown
{
    double gpuCore = 0; //!< "GPU core+"
    double l1 = 0;      //!< "L1 D$" (GPU L1s; CPU L1s excluded)
    double local = 0;   //!< "Scratch/Stash"
    double l2 = 0;      //!< "L2 $"
    double noc = 0;     //!< "N/W"

    double total() const { return gpuCore + l1 + local + l2 + noc; }
};

/**
 * Computes energy from a statistics snapshot.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &p = EnergyParams{})
        : params(p)
    {
    }

    EnergyBreakdown compute(const SystemStats &s) const;

  private:
    EnergyParams params;
};

} // namespace stashsim

#endif // STASHSIM_ENERGY_ENERGY_MODEL_HH
