/**
 * @file
 * Discrete-event simulation kernel.
 *
 * All timing in the simulator is driven by a single EventQueue.  A
 * component schedules a callback at an absolute tick (or a delay from
 * now); the queue executes callbacks in (tick, priority, insertion
 * order) order.  Insertion order is preserved for equal (tick,
 * priority) pairs so the simulation is deterministic.
 *
 * Internally the queue is a two-level calendar: a timing wheel of
 * one-tick buckets covering the near future (sized to hold the
 * longest common latency, a DRAM fill), backed by a pointer min-heap
 * for events beyond the horizon.  Events live in a recycled pool, so
 * the hot path performs no per-event container churn and never copies
 * a std::function — see DESIGN.md section 9 for the full contract.
 */

#ifndef STASHSIM_SIM_EVENT_QUEUE_HH
#define STASHSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace stashsim
{

/**
 * A move-only type-erased void() callable with a large inline buffer.
 *
 * The hot scheduling paths capture a line snapshot (64 B) plus a
 * completion functor per event; std::function's small-buffer
 * optimisation (16 B in libstdc++) heap-allocates every one of those
 * captures, which dominates the simulator's steady-state allocation
 * rate.  InlineCallback stores captures up to inlineBytes directly in
 * the pooled event instead, so scheduling performs no allocation at
 * all; rare larger captures fall back to one heap cell.
 */
class InlineCallback
{
  public:
    /**
     * Sized for the largest hot capture: a completion std::function
     * (32 B) plus a LineData snapshot (64 B), with headroom for the
     * NoC delivery lambdas that carry a whole Msg.
     */
    static constexpr std::size_t inlineBytes = 120;

    InlineCallback() = default;
    InlineCallback(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::remove_cv_t<std::remove_reference_t<F>>,
                  InlineCallback>>>
    InlineCallback(F &&f)
    {
        using Fn = std::remove_cv_t<std::remove_reference_t<F>>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            vt = &InlineOps<Fn>::vtable;
        } else {
            ::new (static_cast<void *>(buf))
                Fn *(new Fn(std::forward<F>(f)));
            vt = &HeapOps<Fn>::vtable;
        }
    }

    InlineCallback(InlineCallback &&o) noexcept { moveFrom(o); }

    InlineCallback &
    operator=(InlineCallback &&o) noexcept
    {
        if (this != &o) {
            clear();
            moveFrom(o);
        }
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t)
    {
        clear();
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { clear(); }

    explicit operator bool() const { return vt != nullptr; }

    void operator()() { vt->invoke(buf); }

  private:
    struct VTable
    {
        void (*invoke)(void *);
        /** Move-constructs dst from src and destroys src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    struct InlineOps
    {
        static void invoke(void *p) { (*static_cast<Fn *>(p))(); }

        static void
        relocate(void *dst, void *src)
        {
            Fn *s = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        }

        static void destroy(void *p) { static_cast<Fn *>(p)->~Fn(); }

        static constexpr VTable vtable{&invoke, &relocate, &destroy};
    };

    template <typename Fn>
    struct HeapOps
    {
        static Fn *&at(void *p) { return *static_cast<Fn **>(p); }
        static void invoke(void *p) { (*at(p))(); }

        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) Fn *(at(src));
        }

        static void destroy(void *p) { delete at(p); }

        static constexpr VTable vtable{&invoke, &relocate, &destroy};
    };

    void
    clear()
    {
        if (vt) {
            vt->destroy(buf);
            vt = nullptr;
        }
    }

    void
    moveFrom(InlineCallback &o)
    {
        vt = o.vt;
        if (vt) {
            vt->relocate(buf, o.buf);
            o.vt = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[inlineBytes];
    const VTable *vt = nullptr;
};

/**
 * Observer of the driver's phase/drain boundaries.
 *
 * The System driver brackets every drain (GPU kernel phase, CPU
 * phase, final flush) with beginPhase()/endPhase() on its event
 * queue; registered listeners see each boundary with the simulated
 * time it happened at.  The watchdog arms itself this way, and the
 * report subsystem's ChromeTraceSink turns the boundaries into a
 * timeline trace.
 */
class PhaseListener
{
  public:
    virtual ~PhaseListener() = default;

    virtual void phaseBegin(const char *name, Tick at) = 0;
    virtual void phaseEnd(const char *name, Tick at) = 0;
};

/**
 * A deterministic priority queue of timed callbacks.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Default priorities; lower values run first at equal ticks. */
    enum Priority : int
    {
        PriDelivery = -10, //!< message deliveries before component ticks
        PriDefault = 0,
        PriStats = 10, //!< end-of-phase bookkeeping after everything
        /**
         * Bookkeeping outside the model (the Fabric's per-tick NoC
         * flush, the watchdog's polls).  Runs after every model event
         * of the tick and is excluded from eventsExecuted() and
         * lastEventTick(), so the deterministic event counts and the
         * drain-end time describe the model alone.
         */
        PriInternal = std::numeric_limits<int>::max(),
    };

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Tick of the most recently executed model event (0 before any).
     * Unlike curTick(), neither a bounded run() nor a PriInternal
     * event advances this, so after a drain it is the tick the model
     * actually finished at.
     */
    Tick lastEventTick() const { return _lastEventTick; }

    /**
     * Force-sets the current time on an EMPTY queue (forward or
     * backward, but never before lastEventTick()).  Restore uses it
     * to move a fresh queue to the checkpoint tick, and the driver
     * uses it at drain completion to move the clock back to
     * lastEventTick() when a trailing watchdog poll ran past it, so
     * controller-context code (phase boundaries, next-phase
     * scheduling) observes the tick the model finished at.
     */
    void setTime(Tick t);

    /**
     * Everything a checkpoint must carry to resume this queue's clock
     * and observability counters exactly (src/snapshot).  Live events
     * are never part of it: the driver only checkpoints at drain
     * points, where every queue is empty by construction.
     */
    struct ClockState
    {
        Tick curTick = 0;
        Tick lastEventTick = 0;
        std::uint64_t nextSeq = 0;
        std::uint64_t executed = 0;
        std::uint64_t peakLive = 0;
        std::uint64_t wheelInserts = 0;
        std::uint64_t farInserts = 0;
    };

    /** Captures the clock/counter state for a checkpoint. */
    ClockState clockState() const;

    /**
     * Restores a checkpointed clock into this (EMPTY, fresh) queue.
     * Routes through setTime(), so the calendar wheelBase — and with
     * it the wheel-vs-far classification cutoff at wheelBase +
     * wheelSize — re-anchors at the restored time (same bug family as
     * SetTimeReanchorsTheWheelAfterAFarPop: restoring only the tick
     * would leave the cutoff at 0 and misroute every near event into
     * the far heap).
     */
    void restoreClock(const ClockState &s);

    /** Schedules @p cb to run at absolute time @p when (>= curTick). */
    void schedule(Tick when, Callback cb, int priority = PriDefault);

    /** Schedules @p cb to run @p delay ticks from now. */
    void
    scheduleIn(Tick delay, Callback cb, int priority = PriDefault)
    {
        schedule(_curTick + delay, std::move(cb), priority);
    }

    /** True when no events are pending. */
    bool empty() const { return _size == 0; }

    /** Number of pending events. */
    std::size_t size() const { return _size; }

    /** Tick of the earliest pending event (curTick when empty). */
    Tick
    nextTick() const
    {
        return _size == 0 ? _curTick : peekNextWhen();
    }

    /**
     * Runs events until the queue drains or curTick would exceed
     * @p max_tick.
     *
     * A finite bound is a statement about elapsed time, so when it
     * exhausts the eligible events curTick advances to @p max_tick
     * (not the last executed event): a subsequent scheduleIn() is
     * relative to the bound, never to stale time.
     *
     * @return the number of events executed.
     */
    std::size_t run(Tick max_tick = std::numeric_limits<Tick>::max());

    /** Executes exactly one event; returns false if queue is empty. */
    bool runOne();

    /**
     * Drops all pending events and resets time to zero.
     *
     * A phase open at reset time is closed first (listeners get a
     * synthetic phaseEnd at the pre-reset tick), so trace sinks do
     * not leak an open slice and the watchdog disarms.  The
     * cumulative eventsExecuted() counter is NOT reset: it is an
     * observability total, not simulation state.
     */
    void reset();

    /**
     * Total events executed over the queue's lifetime (monotone;
     * survives reset()).  SimPerf derives events/sec from this.
     * PriInternal bookkeeping events are not counted.
     */
    std::uint64_t eventsExecuted() const { return _executed; }

    /** @{
     * Queue-shape observability (monotone; survive reset()).  SimPerf
     * exports these so queue tuning is measured rather than guessed.
     */
    /** High-water mark of simultaneously pending events. */
    std::size_t peakLiveEvents() const { return _peakLive; }
    /** Pool chunks allocated (capacity = chunks * poolChunkEvents). */
    std::size_t poolChunksAllocated() const { return poolChunks.size(); }
    /** schedule() calls landing in a calendar-wheel bucket. */
    std::uint64_t wheelInserts() const { return _wheelInserts; }
    /** schedule() calls landing in the far-horizon heap. */
    std::uint64_t farInserts() const { return _farInserts; }
    /** @} */

    /** @{ Phase/drain boundary notification (see PhaseListener). */
    void addPhaseListener(PhaseListener *l);
    void removePhaseListener(PhaseListener *l);

    /** Marks the start of a named phase and notifies listeners. */
    void beginPhase(const char *name);

    /** Marks the end of the current phase and notifies listeners. */
    void endPhase();

    /** Name of the phase in progress; empty outside one. */
    const std::string &currentPhase() const { return _phaseName; }
    /** @} */

  private:
    /**
     * One pooled event.  Lives either in a wheel bucket's intrusive
     * list, in the far heap, or on the free list — never copied.
     */
    struct Event
    {
        Tick when = 0;
        int priority = 0;
        std::uint64_t seq = 0;
        Callback cb;
        Event *next = nullptr;
    };

    /** Heap comparator for far events: min by (when, priority, seq). */
    struct FarLater
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->priority != b->priority)
                return a->priority > b->priority;
            return a->seq > b->seq;
        }
    };

    /**
     * Wheel geometry: 4096 one-tick buckets cover the longest common
     * latency (a DRAM fill, dramCycles * gpuClockPeriod = 3360
     * ticks); anything further out waits in the far heap and
     * migrates as the window advances.
     */
    static constexpr std::size_t wheelBits = 12;
    static constexpr std::size_t wheelSize = std::size_t{1} << wheelBits;
    static constexpr std::size_t wheelMask = wheelSize - 1;
    static constexpr std::size_t bitmapWords = wheelSize / 64;
    static_assert(bitmapWords <= 64,
                  "occupancy summary must fit one 64-bit word");

    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    static constexpr std::size_t poolChunkEvents = 256;

    Event *allocEvent();
    void recycleEvent(Event *ev);
    void recycleList(Event *head);

    void bucketInsert(Event *ev);
    void markOccupied(std::size_t idx);
    void markEmpty(std::size_t idx);
    /** First occupied bucket at/after @p idx, circular; needs one. */
    std::size_t firstOccupiedFrom(std::size_t idx) const;

    /** Moves the window to @p new_base, migrating covered far events. */
    void advanceWindow(Tick new_base);
    /**
     * Detaches and returns the earliest pending event if its tick is
     * <= @p max_tick, else nullptr (_size > 0).  One bitmap search
     * serves as both the bound check and the pop.
     */
    Event *popNextIfAtMost(Tick max_tick);
    /** Detaches and returns the earliest pending event (_size > 0). */
    Event *popNext();
    /** Tick of the earliest pending event (_size > 0). */
    Tick peekNextWhen() const;
    /** Moves the callback out, recycles, runs — the execute path. */
    void executeEvent(Event *ev);

    std::vector<Bucket> wheel = std::vector<Bucket>(wheelSize);
    std::array<std::uint64_t, bitmapWords> occupied{};
    std::uint64_t occupiedSummary = 0;
    Tick wheelBase = 0;       //!< earliest tick the wheel can hold
    std::size_t wheelCount = 0;

    std::vector<Event *> far; //!< min-heap (FarLater) beyond horizon

    std::vector<std::unique_ptr<Event[]>> poolChunks;
    Event *freeList = nullptr;

    std::size_t _size = 0;
    Tick _curTick = 0;
    Tick _lastEventTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t _executed = 0;
    std::size_t _peakLive = 0;
    std::uint64_t _wheelInserts = 0;
    std::uint64_t _farInserts = 0;
    std::vector<PhaseListener *> phaseListeners;
    std::string _phaseName;
};

/**
 * A clock domain: converts between cycles and ticks and aligns events
 * to clock edges.
 */
class Clock
{
  public:
    explicit Clock(Tick period) : _period(period) {}

    Tick period() const { return _period; }

    /** Ticks spanned by @p cycles cycles. */
    Tick cyclesToTicks(Cycles cycles) const { return cycles * _period; }

    /** Whole cycles elapsed at @p t (floor). */
    Cycles ticksToCycles(Tick t) const { return t / _period; }

    /** The first clock edge at or after @p t. */
    Tick
    nextEdge(Tick t) const
    {
        return ((t + _period - 1) / _period) * _period;
    }

  private:
    Tick _period;
};

} // namespace stashsim

#endif // STASHSIM_SIM_EVENT_QUEUE_HH
