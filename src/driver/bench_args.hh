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
    /** Directory for BENCH_*.json artifacts. */
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
    bool help = false;

    /**
     * Parses argv.  Recognized flags:
     *   --quick | --smoke
     *   --jobs N | -j N
     *   --out DIR
     *   --trace DIR
     *   --components
     *   --restore DIR
     *   --list
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
