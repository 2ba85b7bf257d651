/**
 * @file
 * Shared command-line parsing for the bench drivers.
 *
 * Replaces the per-bench argv scans (each bench grepping for
 * "--quick") with one parser every bench-facing binary shares.  The
 * stashbench CLI uses every field; smaller tools can ignore what
 * they do not need.
 */

#ifndef STASHSIM_DRIVER_BENCH_ARGS_HH
#define STASHSIM_DRIVER_BENCH_ARGS_HH

#include <string>
#include <vector>

#include "workloads/workload_factory.hh"

namespace stashsim
{

/**
 * Parsed bench options; see parse() for the flag set.
 */
struct BenchArgs
{
    workloads::Scale scale = workloads::Scale::Full;
    /** Sweep worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /**
     * Memory backend name for every run ("fixed", "sttmram",
     * "scmcache"); empty keeps each bench's own choice (the fixed
     * default everywhere except the memback ablation, which sweeps
     * all three itself).  Validated by the binary against
     * memBackendList(), not here — the parser stays string-only.
     */
    std::string backend;
    /** Directory for BENCH_*.json (and TRACE_*.json) artifacts. */
    std::string outDir = ".";
    /** Bench names to run; empty = all. */
    std::vector<std::string> benches;
    bool list = false; //!< --list: enumerate benches and workloads
    bool components = false; //!< include per-component stats in JSON
    /** When nonempty, write per-run Chrome traces into this dir. */
    std::string traceDir;
    /** When nonempty, render EXPERIMENTS-style markdown here
     *  ("-" = stdout) from the JSON artifacts in outDir. */
    std::string renderMd;
    /**
     * Result-cache directory: serve the valid cached results there
     * and cache every other run's result (SweepOptions::stateDir).
     */
    std::string restoreDir;
    /**
     * When nonempty, replay this stashtrace-v1 file as a workload
     * (BENCH_replay.json), or — combined with traceRecord — parse
     * and re-emit it normalized.
     */
    std::string traceReplay;
    /** When nonempty, write a stashtrace-v1 trace to this path. */
    std::string traceRecord;
    /**
     * When nonempty, record the named factory workload (built at
     * `scale`, cache organization) into traceRecord instead of
     * simulating anything.
     */
    std::string traceFrom;
    /** --list emits machine-readable JSON instead of the table. */
    bool json = false;
    bool help = false;

    bool quick() const { return scale == workloads::Scale::Quick; }

    /**
     * Parses argv.  Recognized flags:
     *   --quick | --smoke | --scale full|quick|smoke
     *   --jobs N | -j N
     *   --backend NAME
     *   --out DIR
     *   --trace DIR
     *   --components
     *   --restore DIR
     *   --trace-replay FILE | --trace-record FILE | --trace-from NAME
     *   --list [--json]
     *   --render-md FILE
     *   --help | -h
     * plus positional bench names.
     * @return false with a message in @p err on a bad flag.
     */
    static bool parse(int argc, char **argv, BenchArgs &out,
                      std::string &err);

    /** The usage text matching parse(). */
    static std::string usage(const char *prog);
};

} // namespace stashsim

#endif // STASHSIM_DRIVER_BENCH_ARGS_HH
