#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace stashsim
{

EventQueue::~EventQueue() = default;

// ---- event pool -------------------------------------------------

EventQueue::Event *
EventQueue::allocEvent()
{
    if (!freeList) {
        poolChunks.push_back(std::make_unique<Event[]>(poolChunkEvents));
        Event *chunk = poolChunks.back().get();
        for (std::size_t i = poolChunkEvents; i > 0; --i) {
            chunk[i - 1].next = freeList;
            freeList = &chunk[i - 1];
        }
    }
    Event *ev = freeList;
    freeList = ev->next;
    ev->next = nullptr;
    return ev;
}

void
EventQueue::recycleEvent(Event *ev)
{
    ev->cb = nullptr; // release captures promptly
    ev->next = freeList;
    freeList = ev;
}

void
EventQueue::recycleList(Event *head)
{
    while (head) {
        Event *next = head->next;
        recycleEvent(head);
        head = next;
    }
}

// ---- occupancy bitmap -------------------------------------------

void
EventQueue::markOccupied(std::size_t idx)
{
    occupied[idx / 64] |= std::uint64_t{1} << (idx % 64);
    occupiedSummary |= std::uint64_t{1} << (idx / 64);
}

void
EventQueue::markEmpty(std::size_t idx)
{
    const std::size_t word = idx / 64;
    occupied[word] &= ~(std::uint64_t{1} << (idx % 64));
    if (occupied[word] == 0)
        occupiedSummary &= ~(std::uint64_t{1} << word);
}

std::size_t
EventQueue::firstOccupiedFrom(std::size_t idx) const
{
    const std::size_t word = idx / 64;
    const unsigned bit = idx % 64;

    // The rest of idx's own word.
    const std::uint64_t here = occupied[word] & (~std::uint64_t{0} << bit);
    if (here)
        return word * 64 + unsigned(std::countr_zero(here));

    // Whole words after it, then wrap to whole words before it.
    const std::uint64_t after =
        word + 1 < bitmapWords
            ? occupiedSummary & (~std::uint64_t{0} << (word + 1))
            : 0;
    if (after) {
        const std::size_t w = std::size_t(std::countr_zero(after));
        return w * 64 + unsigned(std::countr_zero(occupied[w]));
    }
    const std::uint64_t before =
        word > 0 ? occupiedSummary & ((std::uint64_t{1} << word) - 1) : 0;
    if (before) {
        const std::size_t w = std::size_t(std::countr_zero(before));
        return w * 64 + unsigned(std::countr_zero(occupied[w]));
    }

    // Wrapped all the way into the low bits of idx's own word.
    const std::uint64_t low =
        occupied[word] & (bit ? (std::uint64_t{1} << bit) - 1 : 0);
    sim_assert(low != 0);
    return word * 64 + unsigned(std::countr_zero(low));
}

// ---- wheel ------------------------------------------------------

void
EventQueue::bucketInsert(Event *ev)
{
    const std::size_t idx = std::size_t(ev->when) & wheelMask;
    Bucket &b = wheel[idx];
    if (!b.head) {
        b.head = b.tail = ev;
        ev->next = nullptr;
        markOccupied(idx);
        return;
    }
    // Every event in a bucket shares one tick, so order is (priority,
    // seq).  A freshly scheduled event carries the largest seq so
    // far, so among equal priorities it always goes last; migrated
    // far events arrive in (priority, seq) order too (heap pop
    // order), so the tail append is the overwhelmingly common case.
    if (b.tail->priority <= ev->priority) {
        b.tail->next = ev;
        ev->next = nullptr;
        b.tail = ev;
        return;
    }
    if (ev->priority < b.head->priority) {
        ev->next = b.head;
        b.head = ev;
        return;
    }
    Event *p = b.head;
    while (p->next && p->next->priority <= ev->priority)
        p = p->next;
    ev->next = p->next;
    p->next = ev;
    if (!ev->next)
        b.tail = ev;
}

void
EventQueue::advanceWindow(Tick new_base)
{
    wheelBase = new_base;
    // Far events never precede the old window, so migration only adds
    // events at or beyond the old horizon — never before new_base.
    while (!far.empty() && far.front()->when < wheelBase + wheelSize) {
        std::pop_heap(far.begin(), far.end(), FarLater{});
        Event *ev = far.back();
        far.pop_back();
        bucketInsert(ev);
        ++wheelCount;
    }
}

EventQueue::Event *
EventQueue::popNextIfAtMost(Tick max_tick)
{
    if (wheelCount == 0) {
        // Everything pending is beyond the horizon: jump the window.
        sim_assert(!far.empty());
        if (far.front()->when > max_tick)
            return nullptr;
        advanceWindow(far.front()->when);
    }
    const std::size_t base_idx = std::size_t(wheelBase) & wheelMask;
    const std::size_t idx = firstOccupiedFrom(base_idx);
    const Tick when = wheelBase + Tick((idx - base_idx) & wheelMask);
    if (when > max_tick)
        return nullptr;
    if (when != wheelBase)
        advanceWindow(when);
    Bucket &b = wheel[idx];
    Event *ev = b.head;
    b.head = ev->next;
    if (!b.head) {
        b.tail = nullptr;
        markEmpty(idx);
    }
    --wheelCount;
    --_size;
    return ev;
}

EventQueue::Event *
EventQueue::popNext()
{
    Event *ev = popNextIfAtMost(std::numeric_limits<Tick>::max());
    sim_assert(ev != nullptr);
    return ev;
}

Tick
EventQueue::peekNextWhen() const
{
    if (wheelCount > 0) {
        const std::size_t base_idx = std::size_t(wheelBase) & wheelMask;
        const std::size_t idx = firstOccupiedFrom(base_idx);
        return wheelBase + Tick((idx - base_idx) & wheelMask);
    }
    sim_assert(!far.empty());
    return far.front()->when;
}

// ---- public interface -------------------------------------------

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    sim_assert(when >= _curTick);
    sim_assert(cb);
    Event *ev = allocEvent();
    ev->when = when;
    ev->priority = priority;
    ev->seq = nextSeq++;
    ev->cb = std::move(cb);
    if (when - wheelBase < wheelSize) {
        bucketInsert(ev);
        ++wheelCount;
        ++_wheelInserts;
    } else {
        far.push_back(ev);
        std::push_heap(far.begin(), far.end(), FarLater{});
        ++_farInserts;
    }
    ++_size;
    if (_size > _peakLive)
        _peakLive = _size;
}

void
EventQueue::setTime(Tick t)
{
    sim_assert(_size == 0);
    sim_assert(t >= _lastEventTick);
    _curTick = t;
    // The queue is empty, so the wheel can be re-anchored at the new
    // time.  This matters on a rewind: wheelBase advances with every
    // pop (a far-future internal event can carry it well past the
    // model's clock), and a stale base ahead of curTick would alias
    // newly scheduled near events into wrong window positions.
    wheelBase = t;
}

void
EventQueue::executeEvent(Event *ev)
{
    _curTick = ev->when;
    // Internal bookkeeping events (fabric flushes, watchdog polls) do
    // not advance the simulated clock: lastEventTick is "when the
    // model last did work", the tick drains realign to.  A watchdog
    // poll landing long after the last model event must not inflate
    // the run's reported time.
    const bool internal = ev->priority == PriInternal;
    if (!internal)
        _lastEventTick = ev->when;
    // Move the callback out and recycle before invoking: the
    // callback may schedule new events, and the freed slot is
    // immediately reusable.
    Callback cb = std::move(ev->cb);
    recycleEvent(ev);
    if (!internal)
        ++_executed;
    cb();
}

std::size_t
EventQueue::run(Tick max_tick)
{
    std::size_t executed = 0;
    while (_size > 0) {
        // One bitmap search decides both "is the next event eligible"
        // and "detach it" — run() never pays a separate peek.
        Event *ev = popNextIfAtMost(max_tick);
        if (!ev)
            break;
        executeEvent(ev);
        ++executed;
    }
    // A finite bound exhausted: time has passed up to the bound even
    // if no event landed exactly on it (see header).
    if (max_tick != std::numeric_limits<Tick>::max() &&
        _curTick < max_tick) {
        _curTick = max_tick;
        // Same family as setTime(): once the queue is empty the wheel
        // can re-anchor at the bound, so the next schedule() near the
        // new time lands in a wheel bucket instead of being misfiled
        // into the far heap by a stale wheelBase.  (With events still
        // pending the base must stay put — bucket indices are
        // absolute-tick residues, valid only within the live window.)
        if (_size == 0)
            wheelBase = max_tick;
    }
    return executed;
}

bool
EventQueue::runOne()
{
    if (_size == 0)
        return false;
    executeEvent(popNext());
    return true;
}

void
EventQueue::reset()
{
    // Close a phase left open across the reset so listeners (trace
    // sinks, the watchdog) see a balanced end at the pre-reset tick
    // instead of a slice that never closes.
    if (!_phaseName.empty())
        endPhase();
    for (std::size_t w = 0; w < bitmapWords; ++w) {
        std::uint64_t bits = occupied[w];
        while (bits) {
            const std::size_t idx =
                w * 64 + unsigned(std::countr_zero(bits));
            bits &= bits - 1;
            recycleList(wheel[idx].head);
            wheel[idx].head = wheel[idx].tail = nullptr;
        }
        occupied[w] = 0;
    }
    occupiedSummary = 0;
    for (Event *ev : far)
        recycleEvent(ev);
    far.clear();
    wheelBase = 0;
    wheelCount = 0;
    _size = 0;
    _curTick = 0;
    _lastEventTick = 0;
    nextSeq = 0;
    // Listeners survive a reset: they observe the queue, not its
    // contents.  _executed survives too (lifetime observability).
}

void
EventQueue::addPhaseListener(PhaseListener *l)
{
    sim_assert(l != nullptr);
    phaseListeners.push_back(l);
}

void
EventQueue::removePhaseListener(PhaseListener *l)
{
    for (auto it = phaseListeners.begin(); it != phaseListeners.end();
         ++it) {
        if (*it == l) {
            phaseListeners.erase(it);
            return;
        }
    }
}

void
EventQueue::beginPhase(const char *name)
{
    _phaseName = name;
    // Notify over a snapshot: a listener may remove itself (or
    // another listener) from inside the callback.  Skip any listener
    // that was removed by an earlier callback in this notification.
    const std::vector<PhaseListener *> snapshot = phaseListeners;
    for (PhaseListener *l : snapshot) {
        if (std::find(phaseListeners.begin(), phaseListeners.end(),
                      l) != phaseListeners.end()) {
            l->phaseBegin(name, _curTick);
        }
    }
}

void
EventQueue::endPhase()
{
    const std::string name = _phaseName;
    const std::vector<PhaseListener *> snapshot = phaseListeners;
    for (PhaseListener *l : snapshot) {
        if (std::find(phaseListeners.begin(), phaseListeners.end(),
                      l) != phaseListeners.end()) {
            l->phaseEnd(name.c_str(), _curTick);
        }
    }
    _phaseName.clear();
}

} // namespace stashsim
