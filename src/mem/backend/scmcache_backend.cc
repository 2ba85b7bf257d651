#include "mem/backend/scmcache_backend.hh"

#include <algorithm>

#include "mem/main_memory.hh"
#include "sim/log.hh"

namespace stashsim
{

ScmCacheBackend::ScmCacheBackend(const MemBackendConfig &cfg,
                                 EventQueue &eq, MainMemory &mem,
                                 Tick clock_period)
    : MemBackend(MemBackendKind::ScmCache, eq, mem, clock_period),
      hitTicks(cfg.scmHitCycles * clock_period),
      hitOccupancy(cfg.scmHitOccupancy * clock_period),
      scmReadTicks(cfg.scmReadCycles * clock_period),
      scmWriteTicks(cfg.scmWriteCycles * clock_period),
      scmOccupancy(cfg.scmOccupancy * clock_period),
      assoc(std::max(cfg.scmCacheAssoc, 1u)),
      sets(std::max(cfg.scmCacheLines, assoc) / assoc),
      tags(std::size_t(sets) * assoc)
{
    sim_assert(sets > 0 && (sets & (sets - 1)) == 0);
}

unsigned
ScmCacheBackend::setIndex(PhysAddr line_pa) const
{
    // Like the LLC's own sets: banks interleave at line granularity
    // across 16 nodes, so the bits above the bank selector index the
    // set within this bank's DRAM cache.
    return unsigned((line_pa / lineBytes / 16) & (sets - 1));
}

ScmCacheBackend::TagEntry *
ScmCacheBackend::probe(PhysAddr line_pa)
{
    TagEntry *base = &tags[std::size_t(setIndex(line_pa)) * assoc];
    for (unsigned w = 0; w < assoc; ++w) {
        if (base[w].valid && base[w].pa == line_pa)
            return &base[w];
    }
    return nullptr;
}

ScmCacheBackend::TagEntry &
ScmCacheBackend::fill(PhysAddr line_pa, bool dirty)
{
    TagEntry *base = &tags[std::size_t(setIndex(line_pa)) * assoc];
    TagEntry *victim = &base[0];
    for (unsigned w = 0; w < assoc; ++w) {
        TagEntry &e = base[w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    if (victim->valid && victim->dirty) {
        // Spill to SCM: the data is already functionally in
        // MainMemory; only the channel time is modelled.  SCM write
        // bandwidth is the scarce resource, so a spill holds the
        // channel for the full write time.
        ++_stats.scmWrites;
        claim(scmBusyUntil, eq.curTick(), scmWriteTicks);
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->pa = line_pa;
    victim->lastUse = ++useClock;
    return *victim;
}

Tick
ScmCacheBackend::claim(Tick &busy_until, Tick now, Tick occupancy)
{
    const Tick start = std::max(now, busy_until);
    busy_until = start + occupancy;
    return start;
}

void
ScmCacheBackend::readLine(PhysAddr line_pa, ReadCallback done)
{
    ++_stats.reads;
    const Tick now = eq.curTick();
    Tick completion;
    if (TagEntry *e = probe(line_pa)) {
        ++_stats.dcacheHits;
        e->lastUse = ++useClock;
        const Tick start = claim(dramBusyUntil, now, hitOccupancy);
        _stats.readStallTicks += start - now;
        completion = start + hitTicks;
    } else {
        ++_stats.dcacheMisses;
        ++_stats.scmReads;
        const Tick start = claim(scmBusyUntil, now, scmOccupancy);
        _stats.readStallTicks += start - now;
        completion = start + scmReadTicks;
        // The arriving line fills the DRAM cache (channel time on the
        // DRAM side, plus a dirty victim's spill on the SCM side).
        fill(line_pa, /*dirty=*/false);
        claim(dramBusyUntil, now, hitOccupancy);
    }
    eq.scheduleIn(completion - now,
                  [this, line_pa, done = std::move(done)] {
                      done(mem.readLine(line_pa));
                  });
}

void
ScmCacheBackend::writeLine(PhysAddr line_pa, WordMask mask,
                           const LineData &d)
{
    ++_stats.writes;
    // Functional commit now; timing is DRAM-cache write-allocate, so
    // an LLC writeback reaches SCM only when its line is evicted.
    mem.writeLine(line_pa, mask, d);
    if (TagEntry *e = probe(line_pa)) {
        e->dirty = true;
        e->lastUse = ++useClock;
    } else {
        fill(line_pa, /*dirty=*/true);
    }
    claim(dramBusyUntil, eq.curTick(), hitOccupancy);
}

std::size_t
ScmCacheBackend::residentLines() const
{
    std::size_t n = 0;
    for (const TagEntry &e : tags)
        n += e.valid ? 1 : 0;
    return n;
}

std::size_t
ScmCacheBackend::dirtyLines() const
{
    std::size_t n = 0;
    for (const TagEntry &e : tags)
        n += e.valid && e.dirty ? 1 : 0;
    return n;
}

} // namespace stashsim
