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
}

SimPerfSummary
SimPerf::summary() const
{
    SimPerfSummary s;
    s.events = eq.eventsExecuted() - eventsAtStart;
    s.simTicks = eq.curTick() - tickAtStart;
    s.hostSeconds =
        std::chrono::duration<double>(HostClock::now() - start).count();
    s.shape = QueueShape{eq.peakLiveEvents(), eq.poolChunksAllocated(),
                         eq.wheelInserts(), eq.farInserts()};
    return s;
}

} // namespace stashsim
