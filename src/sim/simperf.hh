/**
 * @file
 * SimPerf: host-side throughput observability for the event kernel.
 *
 * SimPerf is a measurement window over one EventQueue: runBegin()
 * opens it, and summary() reads the events executed, the simulated
 * ticks covered and the host (steady_clock) seconds elapsed since,
 * plus the queue-shape counters (peak live events, pool chunks, wheel
 * vs far-heap insert split), so queue tuning is measured rather than
 * guessed.
 *
 * The System driver owns one SimPerf per run and copies its summary
 * into RunResult::perf; stashbench rolls the per-run summaries into
 * the schema-tagged BENCH_simperf.json artifact.  Host timings are
 * inherently non-deterministic, so they are kept out of the
 * deterministic bench documents — only the event/tick counts (which
 * are simulation state, identical run to run) appear there.
 */

#ifndef STASHSIM_SIM_SIMPERF_HH
#define STASHSIM_SIM_SIMPERF_HH

#include <chrono>
#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace stashsim
{

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
class SimPerf
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

  private:
    using HostClock = std::chrono::steady_clock;

    const EventQueue &eq;
    HostClock::time_point start;
    std::uint64_t eventsAtStart = 0;
    Tick tickAtStart = 0;
};

} // namespace stashsim

#endif // STASHSIM_SIM_SIMPERF_HH
