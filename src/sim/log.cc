#include "sim/log.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace stashsim
{

namespace
{

// Each thread keeps its own hooks.  A System is built, run and torn
// down on one sweep thread, so a failure on that thread dumps only
// the state it owns, never a System that another thread is still
// changing.  Ids grow with registration, so the list stays sorted.
thread_local std::vector<std::pair<std::size_t, DiagnosticHook>>
    diagnosticHooks;
thread_local std::size_t nextHookId = 1;

} // namespace

std::size_t
registerDiagnosticHook(DiagnosticHook hook)
{
    const std::size_t id = nextHookId++;
    diagnosticHooks.emplace_back(id, std::move(hook));
    return id;
}

void
unregisterDiagnosticHook(std::size_t id)
{
    const auto it = std::find_if(
        diagnosticHooks.begin(), diagnosticHooks.end(),
        [id](const auto &entry) { return entry.first == id; });
    // A hook left on another thread's list would dangle there.
    sim_assert(it != diagnosticHooks.end());
    diagnosticHooks.erase(it);
}

void
flushDiagnosticHooks()
{
    // Reentrancy guard: a hook that panics (or a panic inside a
    // panic) must not flush again.
    thread_local bool flushing = false;
    if (flushing)
        return;
    flushing = true;
    // Look up the next hook after the last one run, afresh each time:
    // a hook may (un)register other hooks, and ones appended
    // mid-flush must also run (each at most once).  The hook runs
    // from a copy, since it may unregister itself.
    std::size_t last = 0;
    while (true) {
        const auto it = std::find_if(
            diagnosticHooks.begin(), diagnosticHooks.end(),
            [last](const auto &entry) { return entry.first > last; });
        if (it == diagnosticHooks.end())
            break;
        last = it->first;
        // A hook that fails (say, by calling fatal()) is reported and
        // the rest still run; nothing escapes, so the guard is always
        // cleared below and the failure reported is the caller's.
        try {
            const DiagnosticHook hook = it->second;
            if (hook)
                hook();
        } catch (const std::exception &e) {
            std::cerr << "diagnostic hook failed: " << e.what()
                      << std::endl;
        } catch (...) {
            std::cerr << "diagnostic hook failed" << std::endl;
        }
    }
    flushing = false;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    flushDiagnosticHooks();
    std::cerr << "panic: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    flushDiagnosticHooks();
    std::cerr << "fatal: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    // Throw rather than exit so tests can assert on fatal conditions.
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cout << "info: " << msg << std::endl;
}

bool
tracePA(std::uint64_t pa)
{
    static const std::uint64_t traced = []() -> std::uint64_t {
        const char *env = std::getenv("STASHSIM_TRACE_PA");
        return env ? std::strtoull(env, nullptr, 16) : 0;
    }();
    return traced != 0 && (pa & ~std::uint64_t{63}) == traced;
}

} // namespace stashsim
