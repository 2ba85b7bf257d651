#include "config/system_config.hh"

namespace stashsim
{

const char *
memOrgName(MemOrg org)
{
    switch (org) {
      case MemOrg::Scratch:
        return "Scratch";
      case MemOrg::ScratchG:
        return "ScratchG";
      case MemOrg::ScratchGD:
        return "ScratchGD";
      case MemOrg::Cache:
        return "Cache";
      case MemOrg::Stash:
        return "Stash";
      case MemOrg::StashG:
        return "StashG";
      default:
        return "?";
    }
}

const char *
memBackendName(MemBackendKind kind)
{
    switch (kind) {
      case MemBackendKind::Fixed:
        return "fixed";
      case MemBackendKind::SttMram:
        return "sttmram";
      case MemBackendKind::ScmCache:
        return "scmcache";
      default:
        return "?";
    }
}

SystemConfig
SystemConfig::microbenchmarkDefault()
{
    SystemConfig cfg;
    cfg.numGpuCus = 1;
    cfg.numCpuCores = 15;
    return cfg;
}

SystemConfig
SystemConfig::applicationDefault()
{
    SystemConfig cfg;
    cfg.numGpuCus = 15;
    cfg.numCpuCores = 1;
    return cfg;
}

} // namespace stashsim
