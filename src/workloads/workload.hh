/**
 * @file
 * Workload abstraction: what the System runs.
 *
 * A workload is a sequence of phases — GPU kernel launches and CPU
 * access loops — plus functional-memory init and validation hooks.
 * Phases are separated by synchronization (the paper's system is
 * data-race-free: CPUs and GPUs never access the same data
 * concurrently in conflicting ways), which the System enforces by
 * draining all memory activity and self-invalidating the consumers'
 * L1s between phases.
 */

#ifndef STASHSIM_WORKLOADS_WORKLOAD_HH
#define STASHSIM_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "cpu/cpu_core.hh"
#include "gpu/kernel.hh"
#include "mem/functional_mem.hh"

namespace stashsim
{

/**
 * One synchronization-delimited phase.
 */
struct Phase
{
    enum class Kind
    {
        Gpu, //!< one kernel launch, blocks split across the CUs
        Cpu, //!< per-core CPU access loops
    };

    Kind kind = Kind::Gpu;
    Kernel kernel;                        //!< Kind::Gpu
    std::vector<std::vector<CpuOp>> cpuWork; //!< Kind::Cpu, per core

    static Phase
    gpu(Kernel k)
    {
        Phase p;
        p.kind = Kind::Gpu;
        p.kernel = std::move(k);
        return p;
    }

    static Phase
    cpu(std::vector<std::vector<CpuOp>> work)
    {
        Phase p;
        p.kind = Kind::Cpu;
        p.cpuWork = std::move(work);
        return p;
    }
};

/**
 * A complete benchmark.
 */
struct Workload
{
    std::string name;
    std::function<void(FunctionalMem &)> init;
    std::vector<Phase> phases;
    /**
     * Leading phases excluded from the measured statistics (e.g., a
     * CPU phase that produces the input data).  The paper's
     * measurement window starts at the first GPU kernel.
     */
    unsigned warmupPhases = 0;
    /** Returns true when the final memory image is correct. */
    std::function<bool(FunctionalMem &, std::vector<std::string> &)>
        validate;
};

} // namespace stashsim

#endif // STASHSIM_WORKLOADS_WORKLOAD_HH
