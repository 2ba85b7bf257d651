/**
 * @file
 * SweepDriver: runs a grid of RunSpecs across a worker pool.
 *
 * Every simulated System is self-contained and deterministic, so a
 * workload x MemOrg x configuration sweep parallelizes embarrassingly:
 * workers pull the next spec off a shared index and store the result
 * back by position.  The returned records are therefore in spec
 * order and bit-identical to a serial run — the determinism test in
 * tests/driver enforces this — while wall-clock scales with the
 * core count.
 *
 * With a state directory the same loop also serves the RESULT cache
 * (DESIGN.md §11): the thread that claims a spec serves its valid
 * cached result, or simulates it and caches the result.  Each spec is
 * visited by exactly one thread.
 */

#ifndef STASHSIM_DRIVER_SWEEP_HH
#define STASHSIM_DRIVER_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "driver/run.hh"

namespace stashsim
{

/**
 * Structured recovery counters for one sweep.  The sweep summary
 * prints them, and the stashbench CLI folds them into
 * BENCH_simperf.json (deliberately NOT into BENCH_<name>.json, which
 * must stay byte-identical between fresh and resumed sweeps).
 */
struct SweepCounters
{
    /** Runs served from a valid RESULT_* cache without simulating. */
    std::uint64_t cachedRuns = 0;
    /** RESULT_* artifacts failing structural validation. */
    std::uint64_t corruptSnapshots = 0;
    /** Cached artifacts whose config hash did not match the spec —
     *  a stale state dir from an edited sweep grid; rerun instead. */
    std::uint64_t staleResults = 0;
    /** Artifacts moved to QUARANTINE/ instead of being overwritten. */
    std::uint64_t quarantinedArtifacts = 0;
    /** The sweep stopped early on the stop flag (SIGINT/SIGTERM). */
    bool interrupted = false;

    /** Folds @p o into this (booleans OR, counters add). */
    void add(const SweepCounters &o);
    /** True when any counter is nonzero (worth printing/reporting). */
    bool any() const;
};

/** SweepDriver knobs. */
struct SweepOptions
{
    /** Worker threads; 0 = one per hardware thread, 1 = serial. */
    unsigned threads = 0;

    /**
     * Progress stream ("[k/n] label ok", or "FAILED validation" and
     * the run's first error); nullptr = silent.
     */
    std::ostream *progress = nullptr;

    /**
     * Result-cache state directory.  When nonempty, a spec with a
     * valid RESULT_<label>.snap there is served from it without
     * simulating; every other spec runs from tick 0 and, unless it
     * throws, caches its result there.  A truncated, corrupt or stale
     * RESULT_* is moved to QUARANTINE/ with a warning on @ref progress
     * and re-simulated — the cache never fails a sweep, it only saves
     * work.
     */
    std::string stateDir;

    /**
     * Cooperative stop flag (SIGINT/SIGTERM handlers set it).  When
     * it goes true, workers stop claiming specs; runs in flight
     * finish (and, with a @ref stateDir, cache their results), and
     * run() returns with SweepCounters::interrupted set.  Every
     * record that never ran is marked invalid with an "interrupted
     * before completion" error.
     */
    const std::atomic<bool> *stop = nullptr;
};

/**
 * The parallel sweep runner; see file comment.
 */
class SweepDriver
{
  public:
    explicit SweepDriver(SweepOptions opts = {});

    /** Worker threads the driver will actually use for @p n specs. */
    unsigned threadsFor(std::size_t n) const;

    /**
     * Runs every spec and returns the records in spec order.
     * Exceptions inside a run (fatal() throws) are captured: the
     * record's result is marked unvalidated with the message in
     * errors, nothing is cached for it, and the remaining specs still
     * run.  When @p counters is non-null the sweep's recovery counters
     * are accumulated into it.
     */
    std::vector<RunRecord> run(std::vector<RunSpec> specs,
                               SweepCounters *counters = nullptr) const;

  private:
    SweepOptions opts;
};

} // namespace stashsim

#endif // STASHSIM_DRIVER_SWEEP_HH
