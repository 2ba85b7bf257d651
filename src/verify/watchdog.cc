#include "verify/watchdog.hh"

#include <iostream>
#include <sstream>

#include "sim/log.hh"

namespace stashsim
{

Watchdog::Watchdog(EventQueue &eq, const VerifyConfig &cfg)
    : eq(eq), cfg(cfg)
{
    // Any panic/fatal — not just the watchdog's own trips — should
    // come with the system-state dump attached.
    hookId = registerDiagnosticHook([this]() {
        std::cerr << "--- watchdog diagnostics (tick " << this->eq.curTick()
                  << ", phase '" << phaseName << "', progress "
                  << progressCount() << ") ---\n";
        if (dumpFn)
            dumpFn(std::cerr);
        std::cerr.flush();
    });
}

Watchdog::~Watchdog()
{
    unregisterDiagnosticHook(hookId);
}

void
Watchdog::beginPhase(const char *what)
{
    ++generation;
    phaseName = what;
    lastProgress = progressCount();
    stalls = 0;
    armCheck();
}

void
Watchdog::endPhase()
{
    ++generation;
}

void
Watchdog::armCheck()
{
    const std::uint64_t gen = generation;
    // PriInternal: check after the tick's real work (so progress made
    // at this very tick is seen), and keep the poll out of the
    // model's clock and event accounting — a poll firing after the
    // last model event must not change the run's reported time.
    eq.scheduleIn(cfg.watchdogCheckTicks,
                  [this, gen]() { check(gen); },
                  EventQueue::PriInternal);
}

void
Watchdog::check(std::uint64_t gen)
{
    if (gen != generation)
        return; // stale: armed for an earlier phase
    if (_progress != lastProgress) {
        lastProgress = _progress;
        stalls = 0;
    } else if (++stalls >= cfg.watchdogStallChecks) {
        std::ostringstream os;
        os << "no forward progress in phase '" << phaseName << "' for "
           << stalls << " consecutive checks ("
           << stalls * cfg.watchdogCheckTicks << " ticks); "
           << eq.size() << " events still pending (livelock?)";
        trip(os.str());
    }
    // Re-arm only while the simulation is still doing something; an
    // empty queue means the drain is complete (or the driver will
    // report a hang).
    if (eq.size() > 0)
        armCheck();
}

void
Watchdog::reportHang(const std::string &why)
{
    trip("event queue drained but phase '" + phaseName +
         "' did not complete: " + why + " (lost message?)");
}

void
Watchdog::trip(const std::string &why)
{
    // fatal() flushes the diagnostic hooks (including ours) before
    // throwing, so the dump precedes the failure.
    fatal("watchdog: ", why);
}

} // namespace stashsim
