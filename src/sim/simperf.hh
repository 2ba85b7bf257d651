/**
 * @file
 * SimPerf: host-side throughput observability for the event kernel.
 *
 * The simulator's own performance — how fast the host executes
 * simulated events — was previously guessed from wall-clock runs of
 * the bench suite.  SimPerf measures it: attached to the driver's
 * EventQueue as a PhaseListener, it samples host time (steady_clock)
 * and the queue's cumulative event counter at every phase boundary,
 * and aggregates per-phase-name totals plus whole-run events/sec and
 * sim-ticks per host-second.
 *
 * Queue-shape counters (peak live events, pool chunks, wheel vs
 * far-heap insert split) ride along so queue tuning is measured
 * rather than guessed.
 *
 * The System driver owns one SimPerf per run and copies its summary
 * into RunResult::perf; stashbench rolls the per-run summaries into
 * the schema-tagged BENCH_simperf.json artifact so every PR's perf
 * trajectory is measured, not guessed.  Host timings are inherently
 * non-deterministic, so they are kept out of the deterministic bench
 * documents — only the event/tick counts (which are simulation
 * state, identical run to run) appear there.
 */

#ifndef STASHSIM_SIM_SIMPERF_HH
#define STASHSIM_SIM_SIMPERF_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace stashsim
{

/** Per-phase-name rollup (phases repeat; totals aggregate by name). */
struct SimPerfPhase
{
    std::string name;
    std::uint64_t count = 0;  //!< times a phase with this name ran
    std::uint64_t events = 0; //!< events executed inside those phases
    double hostSeconds = 0;   //!< host wall-clock spent inside them
};

/** Event-pool/queue-shape snapshot (lifetime counters). */
struct QueueShape
{
    std::uint64_t peakLiveEvents = 0;
    std::uint64_t poolChunks = 0;
    std::uint64_t wheelInserts = 0;
    std::uint64_t farInserts = 0;
};

/** Whole-run throughput summary (RunResult::perf). */
struct SimPerfSummary
{
    std::uint64_t events = 0; //!< events executed during the run
    Tick simTicks = 0;        //!< simulated ticks covered by the run
    double hostSeconds = 0;   //!< host wall-clock of the whole run
    QueueShape shape;         //!< queue-shape counters at summary time
    std::vector<SimPerfPhase> phases; //!< first-seen name order

    double
    eventsPerHostSec() const
    {
        return hostSeconds > 0 ? double(events) / hostSeconds : 0;
    }

    double
    ticksPerHostSec() const
    {
        return hostSeconds > 0 ? double(simTicks) / hostSeconds : 0;
    }
};

/**
 * Measures one event queue; see file comment.
 */
class SimPerf : public PhaseListener
{
  public:
    explicit SimPerf(const EventQueue &eq);

    /**
     * Restarts the measurement window at "now" (System::run calls
     * this first, so construction-to-run setup time is excluded).
     */
    void runBegin();

    /** Everything measured since runBegin(). */
    SimPerfSummary summary() const;

    /** @{ Live samples, for StatsRegistry derived values. */
    double hostSecondsNow() const;
    double eventsNow() const;
    double eventsPerSecNow() const;
    double ticksPerHostSecNow() const;
    /** @} */

    void phaseBegin(const char *name, Tick at) override;
    void phaseEnd(const char *name, Tick at) override;

  private:
    using HostClock = std::chrono::steady_clock;

    SimPerfPhase &phaseTotals(const char *name);

    const EventQueue &eq;
    HostClock::time_point start;
    std::uint64_t eventsAtStart = 0;
    Tick tickAtStart = 0;

    bool open = false; //!< inside a phaseBegin/phaseEnd bracket
    HostClock::time_point openStart;
    std::uint64_t openEvents = 0;

    std::vector<SimPerfPhase> phases;
};

} // namespace stashsim

#endif // STASHSIM_SIM_SIMPERF_HH
