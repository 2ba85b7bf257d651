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
 * With a state directory the driver additionally becomes one worker
 * of a crash-safe farm (src/driver/farm.hh): every spec is claimed
 * through an atomic lease file before it runs, so N independent
 * processes (or hosts on a shared filesystem) pointed at the same
 * state dir drain one sweep cooperatively, stealing work from workers
 * that die and serving each other's cached results.  A single-process
 * sweep is simply a farm of one.
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
 * Structured recovery counters for one sweep.  Everything the resume
 * and farm machinery used to only whisper onto the progress stream:
 * the sweep summary prints them, and the stashbench CLI folds them
 * into BENCH_simperf.json (deliberately NOT into BENCH_<name>.json,
 * which must stay byte-identical between fresh, resumed, and farmed
 * sweeps).
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
    /** Stale leases of dead workers taken over by this sweep. */
    std::uint64_t reclaimedLeases = 0;
    /** Claims at attempt > 1 (a previous attempt failed or died). */
    std::uint64_t retriedRuns = 0;
    /** Specs that exhausted their attempt budget (FAILED_* marker). */
    std::uint64_t failedSpecs = 0;
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

    /** Progress stream ("[k/n] label ... ok"); nullptr = silent. */
    std::ostream *progress = nullptr;

    /**
     * Result-cache state directory.  When nonempty, every completed
     * run caches its RunResult to RESULT_<label>.snap there, and
     * every spec is claimed through the farm lease protocol
     * (src/driver/farm.hh) before running — so any number of
     * processes pointed at the same directory drain the sweep
     * together.
     */
    std::string stateDir;

    /**
     * Resume an interrupted sweep from @ref stateDir: specs with a
     * valid RESULT_* artifact are not rerun (the cached result is
     * returned), and the rest run from tick 0.  A truncated, corrupt
     * or stale RESULT_* is quarantined with a warning on
     * @ref progress and re-simulated — resume never fails a sweep, it
     * only saves work.  Multi-process farming requires resume
     * (workers serve each other's results through the cache); without
     * it the sweep is a fresh campaign that ignores pre-existing
     * artifacts.
     */
    bool resume = false;

    /**
     * Farm worker identity for lease files; empty = "w<pid>".  Give
     * every farm process a distinct id (the driver appends ".<t>" per
     * worker thread on top).
     */
    std::string workerId;

    /** Lease heartbeat TTL in ms; a staler lease is presumed dead
     *  and stolen.  Keep well above the longest single phase. */
    std::uint64_t leaseTtlMs = 30'000;

    /** Attempts a spec gets before it is quarantined as FAILED_*. */
    unsigned maxAttempts = 3;

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
     * errors, and the remaining specs still run (stateful sweeps
     * retry up to SweepOptions::maxAttempts first).  When @p counters
     * is non-null the sweep's recovery counters are accumulated into
     * it.
     */
    std::vector<RunRecord> run(std::vector<RunSpec> specs,
                               SweepCounters *counters = nullptr) const;

  private:
    SweepOptions opts;
};

} // namespace stashsim

#endif // STASHSIM_DRIVER_SWEEP_HH
