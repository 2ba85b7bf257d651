#include "sim/simperf.hh"

namespace stashsim
{

SimPerf::SimPerf(const EventQueue &eq) : eq(eq)
{
    runBegin();
}

void
SimPerf::runBegin()
{
    start = HostClock::now();
    eventsAtStart = eq.eventsExecuted();
    tickAtStart = eq.curTick();
    open = false;
    phases.clear();
}

SimPerfPhase &
SimPerf::phaseTotals(const char *name)
{
    for (SimPerfPhase &p : phases) {
        if (p.name == name)
            return p;
    }
    phases.push_back(SimPerfPhase{name, 0, 0, 0});
    return phases.back();
}

void
SimPerf::phaseBegin(const char *, Tick)
{
    open = true;
    openStart = HostClock::now();
    openEvents = eq.eventsExecuted();
}

void
SimPerf::phaseEnd(const char *name, Tick)
{
    if (!open)
        return;
    open = false;
    SimPerfPhase &p = phaseTotals(name);
    ++p.count;
    p.events += eq.eventsExecuted() - openEvents;
    p.hostSeconds +=
        std::chrono::duration<double>(HostClock::now() - openStart)
            .count();
}

SimPerfSummary
SimPerf::summary() const
{
    SimPerfSummary s;
    s.events = eq.eventsExecuted() - eventsAtStart;
    s.simTicks = eq.curTick() - tickAtStart;
    s.hostSeconds = hostSecondsNow();
    s.shape = QueueShape{eq.peakLiveEvents(), eq.poolChunksAllocated(),
                         eq.wheelInserts(), eq.farInserts()};
    s.phases = phases;
    return s;
}

double
SimPerf::hostSecondsNow() const
{
    return std::chrono::duration<double>(HostClock::now() - start)
        .count();
}

double
SimPerf::eventsNow() const
{
    return double(eq.eventsExecuted() - eventsAtStart);
}

double
SimPerf::eventsPerSecNow() const
{
    const double secs = hostSecondsNow();
    return secs > 0 ? eventsNow() / secs : 0;
}

double
SimPerf::ticksPerHostSecNow() const
{
    const double secs = hostSecondsNow();
    return secs > 0 ? double(eq.curTick() - tickAtStart) / secs : 0;
}

} // namespace stashsim
