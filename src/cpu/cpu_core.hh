/**
 * @file
 * Simple in-order CPU core model.
 *
 * The paper's evaluation uses CPU cores to produce/consume the data
 * the GPU kernels work on (15 cores in the microbenchmarks so the CPU
 * side does not dominate execution time; 1 for the applications).
 * Our core issues one word access per 2 GHz cycle through its
 * coherent L1, with a small number of overlapping misses, and can
 * optionally check loaded values — which is how the integration tests
 * verify that data written by a GPU stash reaches the CPU through the
 * coherence protocol (remote stash hits), not through any functional
 * back door.
 */

#ifndef STASHSIM_CPU_CPU_CORE_HH
#define STASHSIM_CPU_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace stashsim
{

class Watchdog;

/** One CPU memory operation. */
struct CpuOp
{
    Addr addr = 0;
    bool isStore = false;
    std::uint32_t value = 0; //!< store value / expected load value
    bool checkValue = false; //!< verify loads against `value`
};

/**
 * One CPU core.
 */
class CpuCore
{
  public:
    CpuCore(EventQueue &eq, L1Cache &l1, CoreId core,
            unsigned max_outstanding);

    /**
     * Runs @p ops to completion; @p done fires after the last access
     * finishes.  Mismatched checked loads are appended to @p errors
     * (if non-null).
     */
    void run(std::vector<CpuOp> ops, std::function<void()> done,
             std::vector<std::string> *errors = nullptr);

    const CpuStats &stats() const { return _stats; }

    /** Reports access completions as forward progress to @p w. */
    void setWatchdog(Watchdog *w) { watchdog = w; }

    /** Panics while an access is outstanding. */
    void assertDrained() const;

  private:
    void issueNext();
    void onComplete(std::size_t idx, const LineData &d);

    EventQueue &eq;
    L1Cache &l1;
    CoreId core;
    unsigned maxOutstanding;

    std::vector<CpuOp> ops;
    std::size_t nextOp = 0;
    unsigned outstanding = 0;
    bool issueScheduled = false;
    std::function<void()> done;
    std::vector<std::string> *errors = nullptr;

    CpuStats _stats;
    Watchdog *watchdog = nullptr;
};

} // namespace stashsim

#endif // STASHSIM_CPU_CPU_CORE_HH
