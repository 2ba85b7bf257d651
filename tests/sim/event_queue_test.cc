/**
 * @file
 * Unit tests for the discrete-event kernel and the clock periods.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace stashsim
{
namespace
{

TEST(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueueTest, EqualTickPreservesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PriorityBreaksTickTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(2); },
                EventQueue::PriDefault);
    eq.schedule(5, [&]() { order.push_back(1); },
                EventQueue::PriDelivery);
    eq.schedule(5, [&]() { order.push_back(3); },
                EventQueue::PriStats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EventsMayScheduleNewEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.scheduleIn(4, [&]() { ++fired; });
    });
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 5u);
}

TEST(EventQueueTest, RunHonorsMaxTick)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    EXPECT_EQ(eq.run(15), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunOneExecutesSingleEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(3, [&]() { ++fired; });
    eq.schedule(4, [&]() { ++fired; });
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.runOne());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueueTest, ResetClearsStateAndTime)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.run();
    eq.schedule(20, []() {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(ClockTest, CpuAndGpuPeriodsMatchTable2Frequencies)
{
    // 2 GHz CPU and 700 MHz GPU on a 14 GHz tick base.
    EXPECT_EQ(ticksPerSecond / cpuClockPeriod, 2'000'000'000u);
    EXPECT_EQ(ticksPerSecond / gpuClockPeriod, 700'000'000u);
}

TEST(EventQueueTest, EqualTickAndPriorityPreservesInsertionOrder)
{
    // The determinism guarantee the whole simulator rests on: at one
    // (tick, priority) pair, execution order is insertion order, even
    // with other priorities interleaved between the insertions.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
        eq.schedule(7, [&order, i]() { order.push_back(i); },
                    i % 2 ? EventQueue::PriStats
                          : EventQueue::PriDelivery);
    }
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    // All PriDelivery insertions first (in insertion order), then all
    // PriStats insertions (in insertion order).
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i], 2 * i);
        EXPECT_EQ(order[8 + i], 2 * i + 1);
    }
}

TEST(EventQueueTest, EventsInsertedDuringRunKeepFifoOrder)
{
    // An event scheduling same-tick work must see it run after work
    // already queued at that (tick, priority).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() {
        order.push_back(1);
        eq.schedule(5, [&]() { order.push_back(3); });
    });
    eq.schedule(5, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, NextTickReportsEarliestPendingEvent)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTick(), eq.curTick());
    eq.schedule(40, []() {});
    eq.schedule(15, []() {});
    EXPECT_EQ(eq.nextTick(), 15u);
    eq.run(15);
    EXPECT_EQ(eq.nextTick(), 40u);
    eq.run();
    EXPECT_EQ(eq.nextTick(), eq.curTick());
}

TEST(EventQueueTest, ResetRestartsSequenceDeterminism)
{
    // After reset(), a rebuilt schedule must replay identically.
    auto record = [](EventQueue &eq) {
        std::vector<int> order;
        for (int i = 0; i < 6; ++i)
            eq.schedule(3, [&order, i]() { order.push_back(i); });
        eq.run();
        return order;
    };
    EventQueue eq;
    const auto first = record(eq);
    eq.reset();
    const auto second = record(eq);
    EXPECT_EQ(first, second);
}

TEST(EventQueueTest, BoundedRunAdvancesTimeToTheBound)
{
    // A finite bound is a statement about elapsed time: when it
    // exhausts the eligible events, curTick must land on the bound so
    // a subsequent scheduleIn() is relative to it, not to stale time.
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    EXPECT_EQ(eq.run(100), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 100u);
    eq.scheduleIn(5, [&]() { ++fired; });
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(eq.curTick(), 105u);
}

TEST(EventQueueTest, BoundedRunOnEmptyQueueAdvancesTime)
{
    EventQueue eq;
    EXPECT_EQ(eq.run(50), 0u);
    EXPECT_EQ(eq.curTick(), 50u);
    // An unbounded run of an empty queue does NOT move time.
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(eq.curTick(), 50u);
}

TEST(EventQueueTest, BoundedRunDoesNotMoveTimeBackwards)
{
    EventQueue eq;
    eq.schedule(80, []() {});
    eq.run();
    EXPECT_EQ(eq.curTick(), 80u);
    EXPECT_EQ(eq.run(40), 0u);
    EXPECT_EQ(eq.curTick(), 80u);
}

TEST(EventQueueTest, EventsExecutedAccumulatesAcrossReset)
{
    EventQueue eq;
    eq.schedule(1, []() {});
    eq.schedule(2, []() {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 2u);
    eq.schedule(3, []() {});
    eq.reset(); // drops the pending event, keeps the lifetime total
    EXPECT_EQ(eq.eventsExecuted(), 2u);
    eq.schedule(1, []() {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

namespace
{

/** Records every boundary it sees. */
class RecordingListener : public PhaseListener
{
  public:
    std::vector<std::pair<std::string, Tick>> begins, ends;

    void
    phaseBegin(const char *name, Tick at) override
    {
        begins.emplace_back(name, at);
    }

    void
    phaseEnd(const char *name, Tick at) override
    {
        ends.emplace_back(name, at);
    }
};

} // namespace

TEST(EventQueueTest, ResetClosesAnOpenPhase)
{
    // A phase left open across reset() must emit a synthetic phaseEnd
    // at the pre-reset tick, so trace sinks do not leak an open slice
    // and the watchdog disarms.
    EventQueue eq;
    RecordingListener l;
    eq.addPhaseListener(&l);
    eq.schedule(25, []() {});
    eq.beginPhase("interrupted");
    eq.run();
    eq.reset();
    ASSERT_EQ(l.ends.size(), 1u);
    EXPECT_EQ(l.ends[0].first, "interrupted");
    EXPECT_EQ(l.ends[0].second, 25u);
    EXPECT_TRUE(eq.currentPhase().empty());
    EXPECT_EQ(eq.curTick(), 0u);
    // A reset with no phase open emits nothing extra.
    eq.reset();
    EXPECT_EQ(l.ends.size(), 1u);
}

namespace
{

/** Unregisters itself (and optionally a peer) from inside a callback. */
class SelfRemovingListener : public PhaseListener
{
  public:
    SelfRemovingListener(EventQueue &eq, PhaseListener *also = nullptr)
        : eq(eq), also(also)
    {}

    int begun = 0, ended = 0;

    void
    phaseBegin(const char *, Tick) override
    {
        ++begun;
        eq.removePhaseListener(this);
        if (also)
            eq.removePhaseListener(also);
    }

    void phaseEnd(const char *, Tick) override { ++ended; }

  private:
    EventQueue &eq;
    PhaseListener *also;
};

} // namespace

TEST(EventQueueTest, ListenersMayRemoveThemselvesDuringNotification)
{
    EventQueue eq;
    RecordingListener tail;
    SelfRemovingListener head(eq, &tail);
    eq.addPhaseListener(&head);
    eq.addPhaseListener(&tail);
    // head removes itself AND tail while being notified; neither may
    // be invoked after removal, and nothing may crash.
    eq.beginPhase("a");
    EXPECT_EQ(head.begun, 1);
    EXPECT_TRUE(tail.begins.empty());
    eq.endPhase();
    EXPECT_EQ(head.ended, 0);
    EXPECT_TRUE(tail.ends.empty());
    // Subsequent phases see no listeners at all.
    eq.beginPhase("b");
    eq.endPhase();
    EXPECT_EQ(head.begun, 1);
}

TEST(EventQueueTest, FarHorizonDelaysExecuteInOrder)
{
    // Delays far beyond the 4096-tick wheel span (watchdog-scale) mix
    // with near events; order must still be global time order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(200000, [&]() { order.push_back(4); });
    eq.schedule(3, [&]() { order.push_back(1); });
    eq.schedule(5000, [&]() {
        order.push_back(2);
        // Rescheduling from a migrated event crosses the horizon
        // again.
        eq.scheduleIn(100000, [&]() { order.push_back(3); });
    });
    EXPECT_EQ(eq.run(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.curTick(), 200000u);
}

/**
 * The determinism contract, exhaustively: a randomized 10k-event
 * schedule (with mid-run re-scheduling chains, priorities, and
 * horizon-crossing delays) is checked pop-for-pop against a reference
 * ordered set keyed (tick, priority, seq) — the queue must always
 * execute the minimal pending tuple.
 */
TEST(EventQueueTest, RandomizedScheduleMatchesReferenceOrder)
{
    struct Ref
    {
        Tick when;
        int pri;
        std::uint64_t seq;
        int id;

        bool
        operator<(const Ref &o) const
        {
            return std::tie(when, pri, seq, id) <
                   std::tie(o.when, o.pri, o.seq, o.id);
        }
    };

    EventQueue eq;
    std::set<Ref> ref;
    std::uint64_t seq = 0;
    std::size_t executed = 0;

    std::uint64_t rng = 0x2545f4914f6cdd1dull;
    auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    const int pris[3] = {EventQueue::PriDelivery,
                         EventQueue::PriDefault,
                         EventQueue::PriStats};

    // sched() mirrors every insertion into the reference set; each
    // event verifies at execution time that it IS the minimal pending
    // tuple, then chains children (ids < 5000 spawn one each).
    std::function<void(Tick, int, int)> sched = [&](Tick when, int pri,
                                                    int id) {
        ref.insert(Ref{when, pri, seq, id});
        ++seq;
        eq.schedule(
            when,
            [&, id]() {
                ASSERT_FALSE(ref.empty());
                const Ref front = *ref.begin();
                ASSERT_EQ(front.id, id);
                ASSERT_EQ(front.when, eq.curTick());
                ref.erase(ref.begin());
                ++executed;
                if (id < 5000) {
                    // Delays span same-tick, in-wheel, and beyond the
                    // 4096-tick horizon.
                    const Tick delay = next() % 12000;
                    sched(eq.curTick() + delay,
                          pris[next() % 3], id + 5000);
                }
            },
            pri);
    };

    for (int id = 0; id < 5000; ++id)
        sched(next() % 20000, pris[next() % 3], id);

    EXPECT_EQ(eq.run(), 10000u);
    EXPECT_EQ(executed, 10000u);
    EXPECT_TRUE(ref.empty());
}

/** Property: randomly-ordered events execute in nondecreasing time. */
TEST(EventQueueTest, PropertyMonotonicExecution)
{
    EventQueue eq;
    std::uint64_t seed = 12345;
    auto next = [&seed]() {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        return (seed >> 33) % 1000;
    };
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 500; ++i) {
        eq.schedule(next(), [&]() {
            if (eq.curTick() < last)
                monotonic = false;
            last = eq.curTick();
        });
    }
    EXPECT_EQ(eq.run(), 500u);
    EXPECT_TRUE(monotonic);
}


TEST(EventQueueTest, InternalEventsAreExcludedFromEventsExecuted)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() { order.push_back(1); });
    // PriInternal runs after every model event of the tick...
    eq.schedule(10, [&]() { order.push_back(2); },
                EventQueue::PriInternal);
    eq.schedule(10, [&]() { order.push_back(0); },
                EventQueue::PriDelivery);
    // run() reports all executions; eventsExecuted() only the model's.
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(eq.eventsExecuted(), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, LastEventTickTracksExecutionNotTheBound)
{
    EventQueue eq;
    EXPECT_EQ(eq.lastEventTick(), 0u);
    eq.schedule(50, []() {});
    eq.schedule(60, []() {}, EventQueue::PriInternal);
    EXPECT_EQ(eq.run(200), 2u);
    // The bound advances curTick; lastEventTick stays at the last
    // *model* event.  Internal bookkeeping (fabric flushes, watchdog
    // polls) executes but does not advance the model clock.
    EXPECT_EQ(eq.curTick(), 200u);
    EXPECT_EQ(eq.lastEventTick(), 50u);
}

TEST(EventQueueTest, SetTimeRealignsAnEmptyQueue)
{
    EventQueue eq;
    eq.schedule(50, []() {});
    eq.run(200);
    EXPECT_EQ(eq.curTick(), 200u);

    // Rewind to the last-event tick (the drain-end realignment),
    // then forward; both directions keep scheduling functional.
    eq.setTime(50);
    EXPECT_EQ(eq.curTick(), 50u);
    eq.setTime(75);
    EXPECT_EQ(eq.curTick(), 75u);
    bool ran = false;
    eq.scheduleIn(10, [&]() { ran = true; });
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.curTick(), 85u);
}

/**
 * Regression: a rewind must re-anchor the calendar wheel, not just
 * curTick.  Executing a far-future event (a watchdog poll) carries
 * wheelBase with it; if setTime() leaves that base in place, events
 * scheduled after the rewind alias into wrong wheel positions and
 * execute out of order.
 */
TEST(EventQueueTest, SetTimeReanchorsTheWheelAfterAFarPop)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.schedule(250000, []() {}, EventQueue::PriInternal); // the poll
    eq.run();
    EXPECT_EQ(eq.curTick(), 250000u);

    eq.setTime(100); // the drain-end realignment
    std::vector<Tick> order;
    eq.schedule(150, [&]() { order.push_back(150); });
    eq.schedule(200100, [&]() { order.push_back(200100); });
    eq.schedule(130, [&]() { order.push_back(130); });
    eq.run();
    EXPECT_EQ(order, (std::vector<Tick>{130, 150, 200100}));
    EXPECT_EQ(eq.curTick(), 200100u);
}

/**
 * Same bug family, different entry point: a bounded run() that
 * exhausts its events advances curTick to the bound, and with the
 * queue empty the wheel must re-anchor there too.
 */
TEST(EventQueueRealignTest, BoundedRunExhaustionReanchorsWheel)
{
    EventQueue eq;
    bool early = false;
    eq.schedule(5, [&] { early = true; });
    eq.run(1'000'000'000);
    EXPECT_TRUE(early);
    EXPECT_EQ(eq.curTick(), 1'000'000'000u);

    const std::uint64_t wheelBefore = eq.wheelInserts();
    const std::uint64_t farBefore = eq.farInserts();
    bool late = false;
    eq.scheduleIn(10, [&] { late = true; });
    EXPECT_EQ(eq.wheelInserts(), wheelBefore + 1);
    EXPECT_EQ(eq.farInserts(), farBefore);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(late);
    EXPECT_EQ(eq.curTick(), 1'000'000'010u);
}

/**
 * Realigning the clock to the last event tick after a bounded drain
 * overshot it (System::run's drain-end realignment) must move the
 * wheel's classification cutoff too: otherwise every near event
 * scheduled afterwards would misroute into the far-horizon heap,
 * functionally correct but quadratically slow, and a silent change
 * to the queue-shape counters the artifacts report.
 */
TEST(EventQueueRealignTest, RealignedClockReanchorsWheelCutoff)
{
    EventQueue eq;
    eq.schedule(1'000'000'000, [] {});
    eq.run(3'000'000'000);
    EXPECT_EQ(eq.curTick(), 3'000'000'000u);
    eq.setTime(eq.lastEventTick());
    EXPECT_EQ(eq.curTick(), 1'000'000'000u);

    const std::uint64_t wheelBefore = eq.wheelInserts();
    const std::uint64_t farBefore = eq.farInserts();
    bool ran = false;
    eq.scheduleIn(100, [&] { ran = true; });
    EXPECT_EQ(eq.wheelInserts(), wheelBefore + 1);
    EXPECT_EQ(eq.farInserts(), farBefore);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.curTick(), 1'000'000'100u);
}

/**
 * A queue whose clock was realigned to the last event tick executes
 * an identical schedule identically to one that never overshot: the
 * sequence counter keeps the tie-break order across the realignment.
 */
TEST(EventQueueRealignTest, RealignedQueueOrderIsDeterministic)
{
    auto script = [](EventQueue &eq, std::vector<int> &order) {
        for (int i = 0; i < 8; ++i)
            eq.scheduleIn(50, [&order, i] { order.push_back(i); });
        eq.scheduleIn(25, [&order] { order.push_back(100); });
        eq.scheduleIn(75, [&order] { order.push_back(200); });
        eq.run();
    };

    EventQueue a;
    a.schedule(40, [] {});
    a.run();

    EventQueue b;
    b.schedule(40, [] {});
    b.run(500'000);
    b.setTime(b.lastEventTick());
    ASSERT_EQ(b.curTick(), a.curTick());

    std::vector<int> orderA, orderB;
    script(a, orderA);
    script(b, orderB);
    EXPECT_EQ(orderA, orderB);
    EXPECT_EQ(orderA,
              (std::vector<int>{100, 0, 1, 2, 3, 4, 5, 6, 7, 200}));
}

TEST(EventQueueTest, QueueShapeCountersTrackInsertsAndPeak)
{
    EventQueue eq;
    EXPECT_EQ(eq.peakLiveEvents(), 0u);
    EXPECT_EQ(eq.poolChunksAllocated(), 0u);

    eq.schedule(1, []() {});
    eq.schedule(2, []() {});
    eq.schedule(10000, []() {}); // beyond the 4096-tick wheel horizon
    EXPECT_EQ(eq.wheelInserts(), 2u);
    EXPECT_EQ(eq.farInserts(), 1u);
    EXPECT_EQ(eq.peakLiveEvents(), 3u);
    EXPECT_EQ(eq.poolChunksAllocated(), 1u);

    eq.run();
    // High-water mark and insert counts are lifetime totals.
    EXPECT_EQ(eq.peakLiveEvents(), 3u);
    EXPECT_EQ(eq.wheelInserts(), 2u);
    EXPECT_EQ(eq.farInserts(), 1u);
}

} // namespace
} // namespace stashsim
