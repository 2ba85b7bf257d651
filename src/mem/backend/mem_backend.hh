/**
 * @file
 * MemBackend: the pluggable backing store behind the LLC banks.
 *
 * The LLC's miss and dirty-eviction paths talk to an abstract
 * backend instead of a hard-coded DRAM constant.  The contract:
 *
 *  - readLine() is asynchronous: the completion callback fires on
 *    the backend's event queue after the model's latency, carrying
 *    the line sampled from MainMemory *at completion time* (so a
 *    write landing between request and completion is visible,
 *    exactly as the classic inline model behaved).
 *  - writeLine() is fire-and-forget: the functional image is updated
 *    immediately (LLC evictions never wait for the write), while the
 *    timing cost is folded into internal channel state that delays
 *    *later reads*.  This is what makes every backend trivially
 *    deterministic and snapshotable: write cost is arithmetic on
 *    plain counters, never a live event.
 *  - One backend instance serves one LLC bank, and its timing state
 *    is that bank's alone (DESIGN.md section 13).
 *  - snapshot()/restore() run at drain points only.  The LLC
 *    guarantees no fill is outstanding there (no pending read
 *    completions to capture); pending-write bookkeeping is plain
 *    data and serializes directly.
 */

#ifndef STASHSIM_MEM_BACKEND_MEM_BACKEND_HH
#define STASHSIM_MEM_BACKEND_MEM_BACKEND_HH

#include <functional>
#include <memory>
#include <vector>

#include "config/system_config.hh"
#include "mem/line.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace stashsim
{

class MainMemory;
class SnapshotReader;
class SnapshotWriter;

/**
 * Abstract backing store serving one LLC bank; see file comment for
 * the latency/determinism contract.
 */
class MemBackend
{
  public:
    /** Read completion: the line image at completion time. */
    using ReadCallback = std::function<void(const LineData &)>;

    virtual ~MemBackend() = default;

    /** Requests a line fill; @p done fires after the model latency. */
    virtual void readLine(PhysAddr line_pa, ReadCallback done) = 0;

    /**
     * Absorbs a dirty-line writeback: functional commit now, timing
     * charged to the backend's internal channel state.
     */
    virtual void writeLine(PhysAddr line_pa, WordMask mask,
                           const LineData &d) = 0;

    /**
     * Functional-only write (no simulated cost); the post-run flush
     * that completes the memory image for validation uses this.
     */
    void writeLineFunctional(PhysAddr line_pa, WordMask mask,
                             const LineData &d);

    const MemBackendStats &stats() const { return _stats; }

    /** Registry name ("fixed", "sttmram", "scmcache"). */
    const char *name() const { return memBackendName(_kind); }
    MemBackendKind kind() const { return _kind; }

    /**
     * Serializes the timing model's state.  Only valid at a drain
     * point: the owning LLC bank has no fill outstanding, so no read
     * completion is in flight.
     */
    virtual void snapshot(SnapshotWriter &w) const = 0;

    /** Restores a drain-point checkpoint (same backend config). */
    virtual void restore(SnapshotReader &r) = 0;

  protected:
    MemBackend(MemBackendKind kind, EventQueue &eq, MainMemory &mem,
               Tick clock_period)
        : _kind(kind), eq(eq), mem(mem), clockPeriod(clock_period)
    {
    }

    const MemBackendKind _kind;
    EventQueue &eq;
    MainMemory &mem;
    const Tick clockPeriod; //!< uncore clock the cycle knobs scale by
    MemBackendStats _stats;
};

/** One registered backend kind, for CLI inventories/diagnostics. */
struct MemBackendInfo
{
    MemBackendKind kind;
    const char *name;
    const char *desc;
};

/** Every backend kind, registry order. */
const std::vector<MemBackendInfo> &memBackendList();

/**
 * Builds the backend @p cfg selects, serving the bank whose queue is
 * @p eq.  @p clock_period is the uncore clock (the LLC's).
 */
std::unique_ptr<MemBackend> makeMemBackend(const MemBackendConfig &cfg,
                                           EventQueue &eq,
                                           MainMemory &mem,
                                           Tick clock_period);

} // namespace stashsim

#endif // STASHSIM_MEM_BACKEND_MEM_BACKEND_HH
