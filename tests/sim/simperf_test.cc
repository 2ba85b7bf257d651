/**
 * @file
 * Unit tests for SimPerf, the host-side throughput observability
 * layer: the runBegin() measurement window and the summary a System
 * run carries in RunResult::perf.
 */

#include <gtest/gtest.h>

#include "driver/run.hh"
#include "sim/simperf.hh"

namespace stashsim
{
namespace
{

TEST(SimPerfTest, RollsUpEventsAndTicksByPhaseName)
{
    // Phase brackets, repeated names included, do not split the
    // window: it counts every event and tick inside them.
    EventQueue eq;
    SimPerf perf(eq);
    perf.runBegin();

    eq.beginPhase("compute");
    eq.schedule(10, []() {});
    eq.schedule(20, []() {});
    eq.run();
    eq.endPhase();

    eq.beginPhase("drain");
    eq.schedule(30, []() {});
    eq.run();
    eq.endPhase();

    eq.beginPhase("compute");
    eq.schedule(40, []() {});
    eq.run();
    eq.endPhase();

    const SimPerfSummary s = perf.summary();
    EXPECT_EQ(s.events, 4u);
    EXPECT_EQ(s.simTicks, 40u);
    EXPECT_GE(s.hostSeconds, 0.0);
}

TEST(SimPerfTest, RunBeginRestartsTheMeasurementWindow)
{
    EventQueue eq;
    SimPerf perf(eq);
    eq.schedule(5, []() {});
    eq.run();

    perf.runBegin(); // setup work above is excluded from the window
    eq.scheduleIn(10, []() {});
    eq.run();
    const SimPerfSummary s = perf.summary();
    EXPECT_EQ(s.events, 1u);
    EXPECT_EQ(s.simTicks, 10u);
}

TEST(SimPerfTest, SurvivesAQueueReset)
{
    // reset() keeps the queue's lifetime eventsExecuted() counter, so
    // a SimPerf window spanning a reset still counts every event.
    EventQueue eq;
    SimPerf perf(eq);
    perf.runBegin();
    eq.schedule(5, []() {});
    eq.run();
    eq.reset();
    eq.schedule(5, []() {});
    eq.run();
    EXPECT_EQ(perf.summary().events, 2u);
}

TEST(SimPerfTest, RunResultCarriesThroughputSummary)
{
    RunSpec spec;
    spec.workload = "Implicit";
    spec.org = MemOrg::Stash;
    spec.scale = workloads::Scale::Smoke;
    const RunResult r = runSpec(spec);
    ASSERT_TRUE(r.validated);
    EXPECT_GT(r.perf.events, 0u);
    EXPECT_GT(r.perf.simTicks, 0u);
    EXPECT_GE(r.perf.hostSeconds, 0.0);
    EXPECT_GE(r.perf.eventsPerHostSec(), 0.0);
    EXPECT_GE(r.perf.ticksPerHostSec(), 0.0);
}

} // namespace
} // namespace stashsim
