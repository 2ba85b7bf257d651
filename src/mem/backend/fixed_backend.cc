#include "mem/backend/fixed_backend.hh"

#include "mem/main_memory.hh"

namespace stashsim
{

FixedBackend::FixedBackend(const MemBackendConfig &cfg, EventQueue &eq,
                           MainMemory &mem, Tick clock_period)
    : MemBackend(MemBackendKind::Fixed, eq, mem, clock_period),
      readTicks(cfg.dramCycles * clock_period)
{
}

void
FixedBackend::readLine(PhysAddr line_pa, ReadCallback done)
{
    ++_stats.reads;
    // Sample the functional image at completion time, like the old
    // inline model: a writeback landing mid-flight must be visible.
    eq.scheduleIn(readTicks, [this, line_pa, done = std::move(done)] {
        done(mem.readLine(line_pa));
    });
}

void
FixedBackend::writeLine(PhysAddr line_pa, WordMask mask,
                        const LineData &d)
{
    ++_stats.writes;
    mem.writeLine(line_pa, mask, d);
}

} // namespace stashsim
