/**
 * @file
 * SampleDriver: warm once, fan measured intervals out from one
 * checkpoint across declared config deltas (DESIGN.md §17).
 *
 * Classic sampled simulation pays one warmup per configuration.  This
 * driver exploits two repo invariants to pay it exactly once:
 * determinism (the warmup of a workload is byte-identical across any
 * config delta confined to state the warmup never touches) and the
 * snapshot contract's delta groups (snapshot.hh), which say precisely
 * which SystemConfig fields a restore may legally change.
 *
 * The flow: run the base spec with RunControl::measurePhases = 0 and a
 * boundarySnapshotPath, producing WARM_<label>.snap at the declared
 * measurement boundary; then dispatch one truncated run per delta,
 * each restoring from that single checkpoint with its delta group(s)
 * declared via RunSpec::restoreDeltas.  Both stages go through the
 * SweepDriver's lease-based farm, so any number of processes pointed
 * at the same state dir drain the fan-out together and a SIGKILLed
 * worker's interval is reclaimed and rerun to a byte-identical result.
 *
 * An undeclared delta (the `undeclared:` token prefix strips the
 * declaration) is rejected at restore with the structured
 * configuration-hash diagnostic — the rejection path is part of the
 * contract and is exercised by tests and the CI sampling leg.
 */

#ifndef STASHSIM_DRIVER_SAMPLE_HH
#define STASHSIM_DRIVER_SAMPLE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "driver/sweep.hh"
#include "report/json.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{

/**
 * One measured-interval configuration delta, parsed from a token:
 *
 *   identity        no change (exact-restore control point)
 *   local:<kb>      scratchpad/stash size            [gpu group]
 *   org:<Name>      memory organization (memOrgName) [gpu group]
 *   backend:<name>  backing store (memBackendName)   [membackend]
 *   llcassoc:<n>    LLC associativity                [llc group]
 *   llckb:<kb>      LLC bank size                    [llc group]
 *
 * A token prefixed `undeclared:` applies the same change but declares
 * nothing at restore — the run must fail with the structured
 * undeclared-delta diagnostic (rejection tests and the CI leg).
 */
struct SampleDelta
{
    std::string name; //!< the full token, e.g. "local:32"
    std::string kind; //!< token kind ("identity", "local", ...)
    /** Delta groups the change touches (declared at restore). */
    DeltaMask mask = 0;
    /** False for `undeclared:` tokens: apply the change, declare
     *  nothing, and let the restore reject it. */
    bool declare = true;
    /** Applies the change to a fan-out spec (config/org/backend). */
    std::function<void(RunSpec &)> apply;
};

/**
 * Parses one delta token; false (with a message in @p err) on an
 * unknown kind, unparseable value, or unknown org/backend name.
 */
bool parseSampleDelta(const std::string &token, SampleDelta &out,
                      std::string &err);

/** Parses a comma-separated delta list; empty tokens are an error. */
bool parseSampleDeltas(const std::string &list,
                       std::vector<SampleDelta> &out, std::string &err);

/**
 * One sampled-simulation campaign; runSample() executes it.
 */
struct SampleRequest
{
    /** Base spec the warmup runs under. */
    std::string workload = "Reuse";
    MemOrg org = MemOrg::Stash;
    workloads::Scale scale = workloads::Scale::Full;
    /** Base configuration override (workload default when unset). */
    std::optional<SystemConfig> config;
    /** Custom workload builder (RunSpec::make); when set, @ref
     *  workload is a display name — the synthspace bench samples
     *  re-parameterized generator workloads through this. */
    std::function<Workload(const workloads::WorkloadParams &)> make;
    EnergyParams energy{};

    /** Measured phases per interval past the boundary; 0 = run each
     *  interval to workload completion. */
    std::uint32_t intervalPhases = 0;

    std::vector<SampleDelta> deltas;

    /** Farm state directory (required): WARM_*.snap plus the lease/
     *  RESULT/CKPT state of both stages live here.  The fan-out stage
     *  uses the "measure" (or "measure-unsampled") subdirectory so a
     *  sampled interval's cached result can never be served to its
     *  unsampled twin. */
    std::string stateDir;

    /** Twin mode: identical warm stage (same provenance block), but
     *  every delta runs uninterrupted from tick 0 with the same
     *  measurePhases — the parity reference for sampled runs. */
    bool unsampled = false;

    /** @{ Farm/sweep knobs, passed through to SweepOptions. */
    unsigned threads = 0;
    std::string workerId;
    std::uint64_t leaseTtlMs = 30'000;
    unsigned maxAttempts = 3;
    Tick checkpointEveryTicks = 0;
    std::ostream *progress = nullptr;
    const std::atomic<bool> *stop = nullptr;
    /** @} */

    /** Test hook: decorates each fan-out spec (by delta index) before
     *  dispatch — crash tests install a SIGKILL finish hook here. */
    std::function<void(std::size_t, RunSpec &)> decorate;
};

/** Where the measured intervals came from: the warm checkpoint's
 *  manifest plus the hash identity the delta validation runs against. */
struct SampleProvenance
{
    std::string checkpoint; //!< WARM_*.snap file name (not path)
    std::string workload;   //!< snapshot manifest workload
    std::string config;     //!< base memOrgName
    Tick tick = 0;
    std::uint32_t phaseCursor = 0;
    /** Warmup boundary; equals phaseCursor for a boundary snapshot. */
    std::uint32_t warmupPhases = 0;
    std::uint64_t configHash = 0; //!< full base-config hash
    std::uint64_t baseHash = 0;   //!< outside-every-group sub-hash
};

/** runSample()'s result; sampleToJson() renders the artifact. */
struct SampleOutcome
{
    SampleProvenance sampledFrom;
    /** The warm stage's record; fan-out is skipped when it failed. */
    RunRecord warm;
    /** One record per delta, in request order (empty when the warm
     *  stage failed or the campaign was interrupted before fan-out). */
    std::vector<RunRecord> runs;
    SweepCounters counters;
};

/**
 * Runs the campaign: warm once (farm-dispatched, cached and
 * crash-safe like any sweep spec), read the provenance back from the
 * boundary snapshot, then fan the deltas out through the same farm.
 * Throws (fatal()) on an empty state dir or an empty delta list.
 */
SampleOutcome runSample(const SampleRequest &req);

/**
 * Renders the stashsim-sample-v1 document.  Deterministic and fully
 * derived from the outcome, so a sampled campaign and its unsampled
 * twin produce byte-identical files whenever the per-delta results
 * match — which the parity tests require for gpu-group deltas.
 */
report::JsonValue sampleToJson(const SampleRequest &req,
                               const SampleOutcome &out);

} // namespace stashsim

#endif // STASHSIM_DRIVER_SAMPLE_HH
