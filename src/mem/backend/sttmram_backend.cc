#include "mem/backend/sttmram_backend.hh"

#include <algorithm>

#include "mem/main_memory.hh"

namespace stashsim
{

SttMramBackend::SttMramBackend(const MemBackendConfig &cfg,
                               EventQueue &eq, MainMemory &mem,
                               Tick clock_period)
    : MemBackend(MemBackendKind::SttMram, eq, mem, clock_period),
      readTicks(cfg.sttReadCycles * clock_period),
      writeTicks(cfg.sttWriteCycles * clock_period),
      writeQueueDepth(std::max(cfg.sttWriteQueue, 1u))
{
}

void
SttMramBackend::prune(Tick now)
{
    while (!writeDone.empty() && writeDone.front() <= now)
        writeDone.pop_front();
}

std::size_t
SttMramBackend::pendingWrites() const
{
    std::size_t n = 0;
    for (Tick t : writeDone)
        n += t > eq.curTick() ? 1 : 0;
    return n;
}

void
SttMramBackend::readLine(PhysAddr line_pa, ReadCallback done)
{
    ++_stats.reads;
    const Tick now = eq.curTick();
    prune(now);

    // A full write queue blocks the read port: wait out the head
    // write before the read can preempt the rest.
    Tick start = now;
    if (writeDone.size() >= writeQueueDepth) {
        start = writeDone.front();
        writeDone.pop_front();
    }
    _stats.readStallTicks += start - now;

    // Write-pausing: every still-pending write is suspended for the
    // read's service time and resumes afterwards.
    if (!writeDone.empty()) {
        ++_stats.writePauses;
        for (Tick &t : writeDone)
            t += readTicks;
    }

    const Tick completion = start + readTicks;
    eq.scheduleIn(completion - now,
                  [this, line_pa, done = std::move(done)] {
                      done(mem.readLine(line_pa));
                  });
}

void
SttMramBackend::writeLine(PhysAddr line_pa, WordMask mask,
                          const LineData &d)
{
    ++_stats.writes;
    // Functional commit now; the LLC's evictions are fire-and-forget.
    mem.writeLine(line_pa, mask, d);

    const Tick now = eq.curTick();
    prune(now);
    const Tick start =
        writeDone.empty() ? now : std::max(now, writeDone.back());
    writeDone.push_back(start + writeTicks);
}

} // namespace stashsim
