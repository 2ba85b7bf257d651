/**
 * @file
 * Deadlock/livelock watchdog.
 *
 * The simulator's components communicate exclusively through event-
 * queue callbacks, so both failure modes of a broken protocol show up
 * the same way: the retiring units (CU warps, CPU cores, DMA lines)
 * stop making forward progress while the event queue either empties
 * with work still pending (deadlock — a message was lost) or keeps
 * churning without retiring anything (livelock — e.g. a FwdRetry
 * storm).  The watchdog counts retirement events reported by those
 * units and checks the counter periodically from inside the event
 * queue; a configurable number of consecutive no-progress windows
 * trips a structured diagnostic dump followed by fatal() (which
 * throws, so tests can assert on it).
 *
 * The periodic check event re-arms itself only while other events are
 * pending, so a healthy phase still drains the queue; the deadlock
 * case (queue empty, phase incomplete) is reported by the driver via
 * reportHang().
 */

#ifndef STASHSIM_VERIFY_WATCHDOG_HH
#define STASHSIM_VERIFY_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "config/system_config.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace stashsim
{

/**
 * Forward-progress watchdog over one event queue.
 *
 * Arms and disarms either through the explicit beginPhase()/
 * endPhase() calls below or automatically, as a PhaseListener on the
 * event queue (the System driver registers it that way).
 */
class Watchdog : public PhaseListener
{
  public:
    /** System-level diagnostic dump (routers, fabric, stashes...). */
    using DumpFn = std::function<void(std::ostream &)>;

    Watchdog(EventQueue &eq, const VerifyConfig &cfg);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Registers the dump run on any panic/fatal and on a trip. */
    void setDumpFn(DumpFn fn) { dumpFn = std::move(fn); }

    /** Progress tick: a unit retired work (instruction, op, line). */
    void progress() { ++_progress; }

    /** Arms the watchdog for one phase/drain named @p what. */
    void beginPhase(const char *what);

    /** Disarms the watchdog (the phase drained normally). */
    void endPhase();

    /** @{ PhaseListener: arm/disarm at the driver's drain points. */
    void phaseBegin(const char *name, Tick) override
    {
        beginPhase(name);
    }
    void phaseEnd(const char *, Tick) override { endPhase(); }
    /** @} */

    /**
     * Driver-detected deadlock: the queue drained but the phase did
     * not complete (a message or completion was lost).  Dumps and
     * throws via fatal().
     */
    [[noreturn]] void reportHang(const std::string &why);

    std::uint64_t progressCount() const { return _progress; }

  private:
    void armCheck();
    void check(std::uint64_t gen);
    [[noreturn]] void trip(const std::string &why);

    EventQueue &eq;
    VerifyConfig cfg;
    DumpFn dumpFn;
    std::size_t hookId = 0;

    std::uint64_t _progress = 0;
    std::uint64_t lastProgress = 0;
    unsigned stalls = 0;
    /** Invalidates check events armed for earlier phases. */
    std::uint64_t generation = 0;
    std::string phaseName;
};

} // namespace stashsim

#endif // STASHSIM_VERIFY_WATCHDOG_HH
