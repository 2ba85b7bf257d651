/**
 * @file
 * The bench library behind the stashbench CLI.
 *
 * Each paper table/figure/ablation is one entry in benchList(): a
 * function that sweeps its run grid (through the SweepDriver, so
 * --jobs parallelizes it) and returns a stashsim-bench-v1 JSON
 * document.  The CLI writes each document to BENCH_<name>.json;
 * renderExperimentsMd() turns a directory of those artifacts back
 * into EXPERIMENTS.md.
 *
 * Document schema (stashsim-bench-v1):
 *   schema   "stashsim-bench-v1"
 *   bench    registry name ("fig5")
 *   title    human title
 *   scale    "full" | "quick" | "smoke"
 *   runs     array of run objects:
 *              workload, config (MemOrg name), label, validated,
 *              errors[], gpuCycles, instructions,
 *              energy{gpuCore,l1,local,l2,noc,total},
 *              flitHops{read,write,writeback,total},
 *              optional params{...} (ablation knobs),
 *              optional metrics{...} (bench-specific counters),
 *              optional stats{...} (full flattened map, --components)
 *   plus bench-specific top-level fields (configs, workloads,
 *   baseline, paper, values, ratios).
 */

#ifndef STASHSIM_BENCH_BENCHES_HH
#define STASHSIM_BENCH_BENCHES_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/run.hh"
#include "driver/sweep.hh"
#include "report/json.hh"
#include "workloads/synthetic/trace_replay.hh"

namespace stashbench
{

using namespace stashsim;

/**
 * Host-throughput rollup (SimPerf) across every sweep the CLI ran.
 *
 * Only this collector's artifact (BENCH_simperf.json) carries host
 * wall-clock numbers; the per-bench documents keep nothing but
 * deterministic counters so they stay byte-reproducible.
 */
struct SimperfCollector
{
    struct BenchTotals
    {
        std::string bench;
        std::uint64_t runs = 0;
        std::uint64_t events = 0;
        std::uint64_t simTicks = 0;
        double hostSeconds = 0;
        /** Queue-shape rollup: peak is a max, the rest are sums. */
        QueueShape shape;
    };

    std::vector<BenchTotals> benches; //!< first-use order

    /**
     * Recovery counters accumulated across every sweep (cached,
     * corrupt, stale, quarantined, interrupted).  They ride here —
     * NOT in the per-bench documents — because BENCH_<name>.json must
     * stay byte-identical between fresh and resumed sweeps.
     */
    SweepCounters recovery;

    /** Folds a sweep's per-run SimPerf summaries into @p bench. */
    void add(const char *bench, const std::vector<RunRecord> &records);

    /**
     * The stashsim-simperf-v1 document: one entry per bench plus
     * whole-suite totals; @p wallSeconds spans the CLI's bench loop.
     */
    report::JsonValue toJson(const char *scale,
                             double wallSeconds) const;
};

/** Options every bench receives from the CLI. */
struct BenchContext
{
    workloads::Scale scale = workloads::Scale::Full;
    /** Sweep worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /**
     * Memory backend for every run that does not pick its own
     * (stashbench --backend); the memback ablation overrides it per
     * run to sweep all three.
     */
    MemBackendKind backend = MemBackendKind::Fixed;
    /** Sweep progress stream; nullptr = silent. */
    std::ostream *progress = nullptr;
    /** When nonempty, write per-run Chrome traces into this dir. */
    std::string traceDir;
    /** Include the full flattened stats map in every run object. */
    bool components = false;
    /** When set, sweepSpecs() reports every sweep's throughput here. */
    SimperfCollector *simperf = nullptr;
    /**
     * Result-cache state root (stashbench --restore): sweepSpecs()
     * keeps each bench's state in <stateDir>/<bench> so same-named
     * specs of different benches never collide.  A valid cached result
     * is served; every other run starts from tick 0 and is cached.
     */
    std::string stateDir;
    /** Cooperative stop flag (SIGINT/SIGTERM); may be nullptr. */
    const std::atomic<bool> *stop = nullptr;
};

/** One registered bench. */
struct BenchInfo
{
    const char *name;
    const char *title;
    /** Input scales the bench reacts to ("-" = scale-independent). */
    const char *scales;
    /** One-line description for --list. */
    const char *desc;
    report::JsonValue (*run)(const BenchContext &);
};

/** Every bench, in EXPERIMENTS.md order. */
const std::vector<BenchInfo> &benchList();

/**
 * The `--trace-replay FILE` frontend (not in benchList(): it needs a
 * trace file, not just a name): sweeps @p trace over ScratchGD /
 * Cache / Stash and returns the stashsim-bench-v1 document for
 * BENCH_replay.json.  @p source is recorded in the document's
 * "trace" object.
 */
report::JsonValue runReplayBench(const BenchContext &ctx,
                                 const workloads::TraceData &trace,
                                 const std::string &source);

/**
 * Machine-readable bench inventory (stashbench --list --json):
 *   schema    "stashsim-benchlist-v1"
 *   benches   [{name, title, description, scales[]}]
 *   workloads [{name, kind, description}] (runnable inventory)
 *   backends  [{name, description}]   (--backend choices)
 * where scales is empty for scale-independent benches.
 */
report::JsonValue benchInventoryJson();

/** Lookup by name; nullptr when unknown. */
const BenchInfo *findBench(const std::string &name);

/** True when every run in @p doc passed validation. */
bool allRunsValidated(const report::JsonValue &doc);

/**
 * Renders EXPERIMENTS.md content from the BENCH_*.json artifacts in
 * @p dir.  Missing artifacts fail with a message in @p err.
 */
bool renderExperimentsMd(const std::string &dir, std::ostream &os,
                         std::string &err);

// ---- helpers shared by the bench implementations ----------------

/** New stashsim-bench-v1 document shell. */
report::JsonValue benchDoc(const BenchContext &ctx, const char *name,
                           const char *title);

/** The standard run object for one sweep record. */
report::JsonValue runToJson(const RunRecord &rec, bool components);

/**
 * A bench's state directory (<stateDir>/<bench>) could not be
 * created; what() reads "cannot use state directory <dir>: <reason>".
 */
struct StateDirError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Runs @p specs through the SweepDriver with the context's jobs and
 * progress settings; when the context has a trace dir, each spec is
 * instrumented with a ChromeTraceSink whose output lands in
 * TRACE_<bench>_<label>.json.  Throws StateDirError when the bench's
 * state directory cannot be created.
 */
std::vector<RunRecord> sweepSpecs(const BenchContext &ctx,
                                  const char *bench,
                                  std::vector<RunSpec> specs);

} // namespace stashbench

#endif // STASHSIM_BENCH_BENCHES_HH
