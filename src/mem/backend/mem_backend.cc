#include "mem/backend/mem_backend.hh"

#include "mem/backend/fixed_backend.hh"
#include "mem/backend/scmcache_backend.hh"
#include "mem/backend/sttmram_backend.hh"
#include "mem/main_memory.hh"
#include "sim/log.hh"

namespace stashsim
{

void
MemBackend::writeLineFunctional(PhysAddr line_pa, WordMask mask,
                                const LineData &d)
{
    mem.writeLine(line_pa, mask, d);
}

const std::vector<MemBackendInfo> &
memBackendList()
{
    static const std::vector<MemBackendInfo> backends = {
        {MemBackendKind::Fixed, memBackendName(MemBackendKind::Fixed),
         "flat fixed-latency DRAM (the paper's machine; default)"},
        {MemBackendKind::SttMram,
         memBackendName(MemBackendKind::SttMram),
         "STT-MRAM: asymmetric read/write latency with write-pausing "
         "(FUSE)"},
        {MemBackendKind::ScmCache,
         memBackendName(MemBackendKind::ScmCache),
         "set-associative DRAM cache over slow SCM with "
         "bandwidth-aware queuing (POSTECH)"},
    };
    return backends;
}

std::unique_ptr<MemBackend>
makeMemBackend(const MemBackendConfig &cfg, EventQueue &eq,
               MainMemory &mem, Tick clock_period)
{
    switch (cfg.kind) {
      case MemBackendKind::Fixed:
        return std::make_unique<FixedBackend>(cfg, eq, mem,
                                              clock_period);
      case MemBackendKind::SttMram:
        return std::make_unique<SttMramBackend>(cfg, eq, mem,
                                                clock_period);
      case MemBackendKind::ScmCache:
        return std::make_unique<ScmCacheBackend>(cfg, eq, mem,
                                                 clock_period);
      default:
        panic("unknown memory backend kind ", unsigned(cfg.kind));
    }
}

} // namespace stashsim
