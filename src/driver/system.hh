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

#include <iosfwd>
#include <memory>
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
#include "sim/event_queue.hh"
#include "sim/simperf.hh"
#include "workloads/workload.hh"

namespace stashsim
{

class FaultInjector;
class ProtocolChecker;
class Watchdog;

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

    /** Runs @p wl from tick 0 to completion and reports the results. */
    RunResult run(Workload wl);

    /** Aggregated statistics so far (tests may call mid-run). */
    SystemStats statsSnapshot() const;

    /** @{ Component access for tests. */
    EventQueue &eventQueue() { return eq; }
    FunctionalMem functionalMem() { return {mem, pageTable}; }
    const SystemConfig &config() const { return cfg; }
    Stash *stashOf(unsigned cu);
    L1Cache *gpuL1Of(unsigned cu);
    L1Cache *cpuL1Of(unsigned cpu);
    LlcBank *llcBankOf(PhysAddr line_pa);
    MemBackend *memBackendOf(NodeId node);
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

    /**
     * Panics unless every component is quiescent: no MSHR, miss slot,
     * parked access, DMA burst, staged message or thread block left.
     * The driver calls it at each phase end and after the final flush.
     */
    void assertDrained() const;

    SystemConfig cfg;
    EnergyModel energyModel;

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
