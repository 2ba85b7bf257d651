/**
 * @file
 * System: builds the Table 2 machine and runs workloads on it.
 *
 * Topology (Figure 4): a meshWidth x meshHeight mesh with an L2 bank
 * at every node; GPU CUs occupy the first `numGpuCus` nodes and CPU
 * cores the next `numCpuCores`.  Each GPU CU gets an L1 plus — per
 * the memory configuration — a scratchpad, a stash, and/or a DMA
 * engine.  Each CPU core gets an L1.  All L1s and stashes are kept
 * coherent with the stash-extended DeNovo protocol through the shared
 * LLC.
 *
 * Execution: every component schedules on the System's one event
 * queue, and a System runs on one thread (sweeps get their
 * parallelism from running many Systems at once; DESIGN.md §10).
 *
 * A run executes the workload's phases in order, draining all memory
 * activity between phases (the data-race-free synchronization points
 * the protocol relies on), then snapshots statistics, flushes every
 * private memory, and validates the final memory image.
 */

#ifndef STASHSIM_DRIVER_SYSTEM_HH
#define STASHSIM_DRIVER_SYSTEM_HH

#include <atomic>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/system_config.hh"
#include "core/stash.hh"
#include "cpu/cpu_core.hh"
#include "energy/energy_model.hh"
#include "gpu/compute_unit.hh"
#include "mem/backend/mem_backend.hh"
#include "mem/cache.hh"
#include "mem/dma_engine.hh"
#include "mem/fabric.hh"
#include "mem/functional_mem.hh"
#include "mem/llc.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "mem/scratchpad.hh"
#include "mem/tlb.hh"
#include "noc/mesh.hh"
#include "report/stats_registry.hh"
#include "sim/event_queue.hh"
#include "sim/simperf.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workload.hh"

namespace stashsim
{

class FaultInjector;
class ProtocolChecker;
class Watchdog;

/**
 * Checkpoint/restore policy for one run (src/snapshot).  Checkpoints
 * are taken only at phase-end drain points, where every event queue
 * is empty and all in-flight memory activity has resolved — the only
 * moments the component state is serializable without also capturing
 * live event callbacks.
 */
struct RunControl
{
    /**
     * Write a checkpoint at the first phase boundary at least this
     * many ticks after the previous one (0 disables checkpointing).
     * The final phase never checkpoints: the run is about to finish.
     */
    Tick checkpointEveryTicks = 0;
    /** Directory for CKPT_<label>@<tick>.snap files. */
    std::string checkpointDir;
    /** File-name label identifying the run (defaults to workload). */
    std::string checkpointLabel;
    /** Path of a snapshot to resume from (empty: run from tick 0). */
    std::string restoreFrom;

    /**
     * Cooperative interrupt flag (signal handlers set it).  Checked
     * at phase boundaries only — the same drain points checkpoints
     * use.  When observed true the run writes a final checkpoint
     * (when @ref checkpointDir is set) and throws RunInterrupted.
     */
    const std::atomic<bool> *interrupt = nullptr;
};

/**
 * Thrown out of System::run when RunControl::interrupt goes true: the
 * run stopped cleanly at a phase boundary after dropping a final
 * checkpoint, so it is resumable — callers must treat this as
 * "interrupted", not "failed".
 */
class RunInterrupted : public std::runtime_error
{
  public:
    explicit RunInterrupted(const std::string &workload)
        : std::runtime_error("run interrupted: " + workload) {}
};

/** Everything a bench or test needs from one simulated run. */
struct RunResult
{
    SystemStats stats;
    EnergyBreakdown energy;
    Cycles gpuCycles = 0;
    bool validated = true;
    std::vector<std::string> errors;
    /**
     * Host-side throughput of the run (SimPerf).  Event/tick counts
     * are deterministic simulation state; the host timings are not
     * and stay out of the deterministic artifacts.
     */
    SimPerfSummary perf;
};

/**
 * The simulated heterogeneous system.
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg,
                    const EnergyParams &energy = EnergyParams{});
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Runs @p wl and reports the results.  @p ctl may ask for
     * periodic checkpoints and/or for the run to resume from a
     * snapshot (taken from the same configuration and workload; the
     * restored run then produces byte-identical artifacts to an
     * uninterrupted one).
     */
    RunResult run(Workload wl, const RunControl &ctl = {});

    /**
     * Serializes every stateful component into @p w, one section per
     * component.  Only valid at a drain point (between phases): the
     * event queue empty, no in-flight coherence activity.
     */
    void saveSnapshot(SnapshotWriter &w) const;

    /**
     * Restores every component section into this freshly-constructed
     * System.  fatal()s when the snapshot's configuration hash does
     * not match this system's configuration: a checkpoint restores
     * only into the machine that wrote it.
     */
    void restoreSnapshot(SnapshotReader &r);

    /** Aggregated statistics so far (tests may call mid-run). */
    SystemStats statsSnapshot() const;

    /**
     * Per-component live counter registry: every component instance
     * registered once, under "cu<i>.*", "cpu<i>.*", "llc<i>.*", and
     * "noc.*" prefixes.  Sampling it mid-run reads current values.
     */
    const report::StatsRegistry &statsRegistry() const
    {
        return registry;
    }

    /** @{ Component access for tests. */
    EventQueue &eventQueue() { return eq; }
    const SimPerf &simPerf() const { return perf; }
    FunctionalMem functionalMem() { return {mem, pageTable}; }
    const SystemConfig &config() const { return cfg; }
    Stash *stashOf(unsigned cu);
    L1Cache *gpuL1Of(unsigned cu);
    L1Cache *cpuL1Of(unsigned cpu);
    LlcBank *llcBankOf(PhysAddr line_pa);
    MemBackend *memBackendOf(NodeId node);
    PageTable &pageTableRef() { return pageTable; }
    Fabric &fabricRef() { return fabric; }
    ProtocolChecker *checker() { return _checker.get(); }
    Watchdog *watchdog() { return _watchdog.get(); }
    FaultInjector *faultInjector() { return _injector.get(); }
    /** @} */

    /**
     * Structured system-state dump: event queue, fabric in-flight
     * counts, router channel reservations, stash maps.  Runs on any
     * panic/fatal while the watchdog is enabled.
     */
    void dumpDiagnostics(std::ostream &os) const;

  private:
    struct GpuNode
    {
        std::unique_ptr<Tlb> tlb;
        std::unique_ptr<L1Cache> l1;
        std::unique_ptr<Scratchpad> spad;
        std::unique_ptr<Stash> stash;
        std::unique_ptr<DmaEngine> dma;
        std::unique_ptr<ComputeUnit> cu;
    };

    struct CpuNode
    {
        std::unique_ptr<Tlb> tlb;
        std::unique_ptr<L1Cache> l1;
        std::unique_ptr<CpuCore> core;
    };

    void runGpuPhase(Phase &phase);
    void runCpuPhase(Phase &phase, std::vector<std::string> *errors);
    void drain(const char *what = "drain");

    /** Writes one CKPT_<label>@<tick>.snap at the current drain point. */
    void writeCheckpoint(const RunControl &ctl,
                         const Workload &wl,
                         std::uint32_t next_phase,
                         bool baseline_captured,
                         const SystemStats &baseline) const;

    void registerComponentStats();

    SystemConfig cfg;
    EnergyModel energyModel;
    report::StatsRegistry registry;

    /** Declared before every component: they hold queue references. */
    EventQueue eq;
    SimPerf perf;
    Mesh mesh;
    Fabric fabric;
    MainMemory mem;
    PageTable pageTable;

    std::unique_ptr<FaultInjector> _injector;
    std::unique_ptr<ProtocolChecker> _checker;
    std::unique_ptr<Watchdog> _watchdog;

    /** One backend per LLC bank; declared before the banks, which
     *  hold references into it. */
    std::vector<std::unique_ptr<MemBackend>> memBackends;
    std::vector<std::unique_ptr<LlcBank>> llcBanks;
    std::vector<GpuNode> gpus;
    std::vector<CpuNode> cpus;
};

} // namespace stashsim

#endif // STASHSIM_DRIVER_SYSTEM_HH
