/**
 * @file
 * RunSpec: one simulated run, fully described by an options struct.
 *
 * Replaces the old positional bench helpers
 * (runMicrobenchmark/runApplication(name, org, quick, cfg, ep)): a
 * RunSpec names a workload from the WorkloadFactory (or supplies a
 * custom maker), picks the memory organization and input scale, and
 * optionally overrides the system configuration and energy
 * parameters.  runSpec() builds the System, runs the workload, and
 * returns the RunResult; it is pure (no globals touched), so
 * independent specs can run on different threads — that is what the
 * SweepDriver does.
 */

#ifndef STASHSIM_DRIVER_RUN_HH
#define STASHSIM_DRIVER_RUN_HH

#include <atomic>
#include <functional>
#include <optional>
#include <string>

#include "config/system_config.hh"
#include "driver/system.hh"
#include "energy/energy_model.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{

/**
 * Everything that defines one run; see file comment.
 */
struct RunSpec
{
    /** Workload name in the WorkloadFactory (unless @ref make set). */
    std::string workload;

    MemOrg org = MemOrg::Scratch;

    workloads::Scale scale = workloads::Scale::Full;

    /**
     * Memory backend kind (SystemConfig::memBackend.kind); unset
     * keeps the configuration's own setting.  Applied on top of
     * @ref config like @ref org, so sweeps can ablate the backing
     * store per run.  Knobs beyond the kind come from @ref config.
     */
    std::optional<MemBackendKind> backend;

    /**
     * System configuration override; defaults to the workload kind's
     * Table 2 machine.  @ref org is applied on top either way.
     */
    std::optional<SystemConfig> config;

    EnergyParams energy{};

    /**
     * Custom workload builder, for sweeps over generated workloads
     * the factory does not know (e.g. the sparsity ablation).  When
     * set, @ref workload is only a display name.
     */
    std::function<Workload(const workloads::WorkloadParams &)> make;

    /** Display label override; label() composes one when empty. */
    std::string labelOverride;

    /**
     * Checkpoint cadence in ticks (RunControl::checkpointEveryTicks);
     * 0 disables.  Checkpoints land in @ref checkpointDir as
     * CKPT_<artifact-label>-<scale>@<tick>.snap.
     */
    Tick checkpointEveryTicks = 0;
    /** Directory for checkpoint snapshots. */
    std::string checkpointDir;
    /** Snapshot file to resume from (empty = run from tick 0). */
    std::string restoreFrom;

    /**
     * Cooperative interrupt flag (RunControl::interrupt).  When it
     * goes true the run stops at its next phase boundary: a final
     * checkpoint is written (when @ref checkpointDir is set) and
     * RunInterrupted is thrown out of runSpec().
     */
    const std::atomic<bool> *interrupt = nullptr;

    /**
     * Called right after System construction, before the run —
     * attach instrumentation (trace sinks, checkers) here.
     */
    std::function<void(System &)> instrument;

    /**
     * Called after the run completes, while the System still exists —
     * harvest instrumentation here.
     */
    std::function<void(System &, const RunResult &)> finish;

    /** "<workload>/<org>" unless overridden. */
    std::string label() const;
};

/** One finished run: the spec it came from plus its results. */
struct RunRecord
{
    RunSpec spec;
    RunResult result;
};

/** Builds the system for @p spec and runs it to completion. */
RunResult runSpec(const RunSpec &spec);

/**
 * The SystemConfig @p spec resolves to: the explicit config, the
 * workload's default, or the microbenchmark machine — with the org
 * and backend overrides applied.  Exported so the SweepDriver's resume
 * path can hash the exact configuration a spec will run with.
 */
SystemConfig resolveRunConfig(const RunSpec &spec);

/**
 * File-name-safe form of a run label: '/', ' ', and '@' become '_'
 * ('@' is the checkpoint file name's tick separator).
 */
std::string artifactLabel(const std::string &label);

} // namespace stashsim

#endif // STASHSIM_DRIVER_RUN_HH
