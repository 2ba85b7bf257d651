/**
 * @file
 * Error and diagnostic reporting, gem5-style.
 *
 * panic()  - an internal simulator invariant was violated (a bug in the
 *            simulator itself); aborts.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, unsupported workload parameters);
 *            exits with an error code.
 * warn()   - something is suspicious but simulation continues.
 * inform() - purely informational.
 *
 * Components can register diagnostic hooks (dump callbacks); both
 * panic() and fatal() flush every hook their thread registered once
 * before aborting/throwing, so a watchdog or protocol-checker state
 * dump fires even when the failure originates elsewhere in the same
 * System.
 */

#ifndef STASHSIM_SIM_LOG_HH
#define STASHSIM_SIM_LOG_HH

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace stashsim
{

/** @{ Implementation helpers; use the macros below. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
/** @} */

/** Builds a message string from stream-insertable parts. */
template <typename... Args>
std::string
logFormat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/**
 * Debug tracing for one physical line address, enabled by setting the
 * STASHSIM_TRACE_PA environment variable to a hex line address.
 * Returns true when @p pa falls in the traced line.
 */
bool tracePA(std::uint64_t pa);

/** A diagnostic dump callback flushed on panic()/fatal(). */
using DiagnosticHook = std::function<void()>;

/**
 * Registers @p hook to run (once) before any panic/fatal failure on
 * the calling thread; other threads' failures never run it.
 * @return an id for unregisterDiagnosticHook.
 */
std::size_t registerDiagnosticHook(DiagnosticHook hook);

/**
 * Removes a hook the calling thread registered (owners call from
 * dtors, on the thread that built them).
 */
void unregisterDiagnosticHook(std::size_t id);

/**
 * Runs every hook the calling thread registered, in registration
 * order.  Reentrancy-guarded: a hook that itself panics does not
 * recurse.  A hook that throws is reported on stderr and the later
 * hooks still run.  Called automatically by panic()/fatal(); exposed
 * for tests.
 */
void flushDiagnosticHooks();

} // namespace stashsim

#define panic(...) \
    ::stashsim::panicImpl(__FILE__, __LINE__, \
                          ::stashsim::logFormat(__VA_ARGS__))

#define fatal(...) \
    ::stashsim::fatalImpl(__FILE__, __LINE__, \
                          ::stashsim::logFormat(__VA_ARGS__))

#define warn(...) ::stashsim::warnImpl(::stashsim::logFormat(__VA_ARGS__))

#define inform(...) \
    ::stashsim::informImpl(::stashsim::logFormat(__VA_ARGS__))

/** Panics when @p cond is false; for simulator-internal invariants. */
#define sim_assert(cond) \
    do { \
        if (!(cond)) \
            panic("assertion failed: " #cond); \
    } while (0)

#endif // STASHSIM_SIM_LOG_HH
