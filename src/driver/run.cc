#include "driver/run.hh"

namespace stashsim
{

std::string
RunSpec::label() const
{
    if (!labelOverride.empty())
        return labelOverride;
    return workload + "/" + memOrgName(org);
}

SystemConfig
resolveRunConfig(const RunSpec &spec)
{
    using workloads::WorkloadFactory;

    SystemConfig cfg;
    if (spec.config) {
        cfg = *spec.config;
    } else if (spec.make) {
        // Custom workloads without an explicit configuration get the
        // microbenchmark machine: single-CU, like every generated
        // sweep workload so far.
        cfg = SystemConfig::microbenchmarkDefault();
    } else {
        cfg = WorkloadFactory::instance().defaultConfig(spec.workload);
    }
    cfg.memOrg = spec.org;
    if (spec.backend)
        cfg.memBackend.kind = *spec.backend;
    return cfg;
}

std::string
artifactLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        if (c == '/' || c == ' ' || c == '@')
            c = '_';
    }
    return out;
}

RunResult
runSpec(const RunSpec &spec)
{
    using workloads::WorkloadFactory;

    const SystemConfig cfg = resolveRunConfig(spec);

    workloads::WorkloadParams params;
    params.org = spec.org;
    params.cpuCores = cfg.numCpuCores;
    params.scale = spec.scale;

    Workload wl = spec.make
                      ? spec.make(params)
                      : WorkloadFactory::instance().make(spec.workload,
                                                         params);

    System sys(cfg, spec.energy);
    if (spec.instrument)
        spec.instrument(sys);
    RunResult r = sys.run(std::move(wl));
    if (spec.finish)
        spec.finish(sys, r);
    return r;
}

} // namespace stashsim
