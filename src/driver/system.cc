#include "driver/system.hh"

#include <atomic>
#include <ios>
#include <ostream>
#include <string>

#include "sim/log.hh"
#include "snapshot/snapshot.hh"
#include "verify/fault_injector.hh"
#include "verify/protocol_checker.hh"
#include "verify/watchdog.hh"

namespace stashsim
{

namespace
{

MeshParams
meshParamsOf(const SystemConfig &cfg)
{
    MeshParams mp;
    mp.width = cfg.meshWidth;
    mp.height = cfg.meshHeight;
    mp.routerCycles = cfg.routerCycles;
    mp.linkCycles = cfg.linkCycles;
    mp.flitsPerCycle = cfg.nocFlitsPerCycle;
    return mp;
}

} // namespace

System::System(const SystemConfig &cfg, const EnergyParams &energy)
    : cfg(cfg), energyModel(energy), perf(eq),
      mesh(eq, meshParamsOf(this->cfg)), fabric(mesh)
{
    if (cfg.numGpuCus + cfg.numCpuCores > cfg.numNodes())
        fatal("more cores than mesh nodes");
    if (cfg.llcBanks != cfg.numNodes())
        fatal("this system places one LLC bank per mesh node");
    const std::uint64_t llcSets =
        cfg.llcAssoc == 0
            ? 0
            : cfg.llcBankBytes / (std::uint64_t(lineBytes) * cfg.llcAssoc);
    if (llcSets == 0 || (llcSets & (llcSets - 1)) != 0) {
        fatal("LLC geometry: llcBankBytes ", cfg.llcBankBytes,
              " and llcAssoc ", cfg.llcAssoc, " give ", llcSets,
              " sets of ", lineBytes, " B lines; the set count must be "
              "a nonzero power of two");
    }

    // LLC banks: one per node, each with its own memory-backend
    // instance (the backend's timing knobs — dramCycles included —
    // live in cfg.memBackend, nowhere else).
    LlcBank::Params lp;
    lp.bankBytes = cfg.llcBankBytes;
    lp.assoc = cfg.llcAssoc;
    lp.accessCycles = cfg.llcBankCycles;
    lp.stashMapEntries = cfg.stashMapEntries;
    for (NodeId n = 0; n < cfg.numNodes(); ++n) {
        memBackends.push_back(
            makeMemBackend(cfg.memBackend, eq, mem, gpuClockPeriod));
        llcBanks.push_back(std::make_unique<LlcBank>(
            eq, fabric, *memBackends.back(), n, lp));
        fabric.registerObject(n, Unit::Llc, llcBanks.back().get());
    }

    // GPU CUs at nodes [0, numGpuCus).
    L1Cache::Params gl1;
    gl1.bytes = cfg.l1Bytes;
    gl1.assoc = cfg.l1Assoc;
    gl1.mshrs = cfg.l1Mshrs;
    gl1.hitCycles = cfg.l1HitCycles;
    gl1.clockPeriod = gpuClockPeriod;

    for (unsigned i = 0; i < cfg.numGpuCus; ++i) {
        const NodeId node = NodeId(i);
        const CoreId core = CoreId(i);
        GpuNode g;
        g.tlb = std::make_unique<Tlb>(pageTable, cfg.vpMapEntries);
        g.l1 = std::make_unique<L1Cache>(eq, fabric, *g.tlb, core,
                                         node, gl1);
        fabric.registerObject(node, Unit::L1, g.l1.get());
        fabric.registerCore(core, node);

        if (usesScratchpad(cfg.memOrg)) {
            g.spad = std::make_unique<Scratchpad>(cfg.localBytes);
            if (cfg.memOrg == MemOrg::ScratchGD) {
                g.dma = std::make_unique<DmaEngine>(
                    eq, fabric, *g.tlb, *g.spad, core, node);
                fabric.registerObject(node, Unit::Dma, g.dma.get());
            }
        } else if (usesStash(cfg.memOrg)) {
            Stash::Params sp;
            sp.bytes = cfg.localBytes;
            sp.chunkBytes = cfg.stashChunkBytes;
            sp.mapEntries = cfg.stashMapEntries;
            sp.vpEntries = cfg.vpMapEntries;
            sp.translationCycles = cfg.stashTranslationCycles;
            sp.hitCycles = cfg.localHitCycles;
            sp.replicationOpt = cfg.stashReplicationOpt;
            g.stash = std::make_unique<Stash>(eq, fabric, pageTable,
                                              core, node, sp);
            fabric.registerObject(node, Unit::Stash, g.stash.get());
        }

        g.cu = std::make_unique<ComputeUnit>(eq, this->cfg, core,
                                             g.l1.get(), g.spad.get(),
                                             g.stash.get(),
                                             g.dma.get());
        gpus.push_back(std::move(g));
    }

    // CPU cores at nodes [numGpuCus, numGpuCus + numCpuCores).
    L1Cache::Params cl1 = gl1;
    cl1.clockPeriod = cpuClockPeriod;
    for (unsigned i = 0; i < cfg.numCpuCores; ++i) {
        const NodeId node = NodeId(cfg.numGpuCus + i);
        const CoreId core = CoreId(cfg.numGpuCus + i);
        CpuNode c;
        c.tlb = std::make_unique<Tlb>(pageTable, cfg.vpMapEntries);
        c.l1 = std::make_unique<L1Cache>(eq, fabric, *c.tlb, core,
                                         node, cl1);
        fabric.registerObject(node, Unit::L1, c.l1.get());
        fabric.registerCore(core, node);
        c.core = std::make_unique<CpuCore>(eq, *c.l1, core,
                                           cfg.cpuOutstanding);
        cpus.push_back(std::move(c));
    }

    // Verification subsystem (all pieces independently toggleable).
    if (cfg.verify.faultInjection) {
        _injector = std::make_unique<FaultInjector>(eq, this->cfg.verify);
        fabric.setFaultInjector(_injector.get());
    }
    if (cfg.verify.protocolChecker) {
        _checker = std::make_unique<ProtocolChecker>();
        for (auto &b : llcBanks)
            _checker->addLlc(b.get());
        for (unsigned i = 0; i < gpus.size(); ++i) {
            GpuNode &g = gpus[i];
            const CoreId core = CoreId(i);
            g.l1->attachChecker(_checker.get());
            _checker->addL1(core, g.l1.get());
            if (g.stash) {
                g.stash->attachChecker(_checker.get());
                _checker->addStash(core, g.stash.get());
            }
            if (g.dma)
                g.dma->attachChecker(_checker.get());
        }
        for (unsigned i = 0; i < cpus.size(); ++i) {
            const CoreId core = CoreId(cfg.numGpuCus + i);
            cpus[i].l1->attachChecker(_checker.get());
            _checker->addL1(core, cpus[i].l1.get());
        }
    }
    if (cfg.verify.watchdog) {
        _watchdog = std::make_unique<Watchdog>(eq, this->cfg.verify);
        _watchdog->setDumpFn(
            [this](std::ostream &os) { dumpDiagnostics(os); });
        for (auto &g : gpus) {
            g.cu->setWatchdog(_watchdog.get());
            if (g.dma)
                g.dma->setWatchdog(_watchdog.get());
        }
        for (auto &c : cpus)
            c.core->setWatchdog(_watchdog.get());
        // The watchdog arms itself at the driver's drain points.
        eq.addPhaseListener(_watchdog.get());
    }

    // SimPerf samples host time at every drain boundary.
    eq.addPhaseListener(&perf);

    registerComponentStats();
}

void
System::registerComponentStats()
{
    for (unsigned i = 0; i < gpus.size(); ++i) {
        const std::string p = "cu" + std::to_string(i);
        const GpuNode &g = gpus[i];
        registry.addGroup(p + ".core", &g.cu->stats());
        registry.addGroup(p + ".l1", &g.l1->stats());
        if (g.spad)
            registry.addGroup(p + ".scratch", &g.spad->stats());
        if (g.stash)
            registry.addGroup(p + ".stash", &g.stash->stats());
        if (g.dma)
            registry.addGroup(p + ".dma", &g.dma->stats());
    }
    for (unsigned i = 0; i < cpus.size(); ++i) {
        const std::string p = "cpu" + std::to_string(i);
        registry.addGroup(p + ".core", &cpus[i].core->stats());
        registry.addGroup(p + ".l1", &cpus[i].l1->stats());
    }
    for (unsigned i = 0; i < llcBanks.size(); ++i) {
        registry.addGroup("llc" + std::to_string(i),
                          &llcBanks[i]->stats());
    }
    for (unsigned i = 0; i < memBackends.size(); ++i) {
        registry.addGroup("memback" + std::to_string(i),
                          &memBackends[i]->stats());
    }
    registry.addGroup("noc", &mesh.stats());
    registry.addValue("sim.tick",
                      [this] { return double(eq.curTick()); });
    registry.addValue("sim.gpuCycles", [this] {
        return double(eq.curTick() / gpuClockPeriod);
    });
    registry.addValue("simperf.events",
                      [this] { return perf.eventsNow(); });
    registry.addValue("simperf.hostSeconds",
                      [this] { return perf.hostSecondsNow(); });
    registry.addValue("simperf.eventsPerSec",
                      [this] { return perf.eventsPerSecNow(); });
    registry.addValue("simperf.ticksPerHostSec",
                      [this] { return perf.ticksPerHostSecNow(); });
    registry.addValue("simperf.peakLiveEvents", [this] {
        return double(eq.peakLiveEvents());
    });
    registry.addValue("simperf.poolChunks", [this] {
        return double(eq.poolChunksAllocated());
    });
    registry.addValue("simperf.wheelInserts", [this] {
        return double(eq.wheelInserts());
    });
    registry.addValue("simperf.farInserts", [this] {
        return double(eq.farInserts());
    });
}

System::~System() = default;

void
System::drain(const char *what)
{
    // Phases only complete when no component generates further work,
    // so running the queue dry is a full drain.  The phase boundary
    // is broadcast to every listener (watchdog, SimPerf).
    eq.beginPhase(what);
    eq.run();
    // A trailing PriInternal event (a watchdog poll) may have carried
    // curTick past the last model event; the drain ends when the
    // model did.
    eq.setTime(eq.lastEventTick());
    eq.endPhase();
    // Drain points are the protocol's synchronization points: the
    // only moments the DeNovo invariants must hold globally.
    if (_checker)
        _checker->audit(what);
}

void
System::runGpuPhase(Phase &phase)
{
    // Split the grid round-robin across the CUs.
    std::vector<Kernel> per_cu(gpus.size());
    for (auto &k : per_cu)
        k.name = phase.kernel.name;
    for (std::size_t b = 0; b < phase.kernel.blocks.size(); ++b) {
        per_cu[b % gpus.size()].blocks.push_back(
            std::move(phase.kernel.blocks[b]));
    }

    unsigned pending = 0;
    for (std::size_t i = 0; i < gpus.size(); ++i) {
        if (per_cu[i].blocks.empty())
            continue;
        ++pending;
        gpus[i].cu->runKernel(std::move(per_cu[i]),
                              [&pending] { --pending; });
    }
    drain("gpu kernel phase");
    if (pending != 0 && _watchdog)
        _watchdog->reportHang("gpu kernel phase");
    sim_assert(pending == 0);
}

void
System::runCpuPhase(Phase &phase, std::vector<std::string> *errors)
{
    // Synchronization point: the CPUs may now read what the GPU
    // produced, so their L1s self-invalidate stale Valid words.
    for (auto &c : cpus)
        c.l1->selfInvalidate();

    // Per-core error logs, merged in core order after the drain:
    // core-major order is part of the deterministic result (the
    // artifacts' errors lists), independent of when each core failed.
    std::vector<std::vector<std::string>> coreErrors(
        phase.cpuWork.size());
    unsigned pending = 0;
    for (std::size_t i = 0; i < phase.cpuWork.size(); ++i) {
        if (phase.cpuWork[i].empty())
            continue;
        if (i >= cpus.size())
            fatal("workload uses more CPU cores than configured");
        ++pending;
        cpus[i].core->run(std::move(phase.cpuWork[i]),
                          [&pending] { --pending; }, &coreErrors[i]);
    }
    drain("cpu phase");
    if (errors) {
        for (auto &ce : coreErrors) {
            for (auto &e : ce)
                errors->push_back(std::move(e));
        }
    }
    if (pending != 0 && _watchdog)
        _watchdog->reportHang("cpu phase");
    sim_assert(pending == 0);
}

RunResult
System::run(Workload wl, const RunControl &ctl)
{
    const bool checkpointing = ctl.checkpointEveryTicks > 0;
    const bool restoring = !ctl.restoreFrom.empty();

    // A workload whose warmup covers every phase would never hit the
    // `p + 1 == warmupPhases` baseline capture below and silently
    // report raw (unreset) statistics as its measured delta.
    if (wl.warmupPhases > 0 && wl.warmupPhases >= wl.phases.size()) {
        fatal("workload '", wl.name, "': warmupPhases (",
              wl.warmupPhases, ") must be smaller than the phase "
              "count (", wl.phases.size(), "); an all-warmup run "
              "never captures its stats baseline");
    }

    RunResult r;
    perf.runBegin();

    FunctionalMem fm = functionalMem();
    SystemStats baseline;
    bool baselineCaptured = false;
    std::size_t firstPhase = 0;
    Tick lastCkpt = 0;

    if (restoring) {
        SnapshotReader sr = SnapshotReader::fromFile(ctl.restoreFrom);
        if (sr.workload() != wl.name) {
            fatal("snapshot '", ctl.restoreFrom, "' was taken from "
                  "workload '", sr.workload(), "', not '", wl.name,
                  "'");
        }
        restoreSnapshot(sr);
        sr.openSection("run");
        firstPhase = sr.u32();
        sr.require(firstPhase == sr.phaseCursor(),
                   "phase cursor disagrees with manifest");
        baselineCaptured = sr.b();
        readSystemStats(sr, baseline);
        sr.closeSection();
        if (wl.restoreState && sr.hasSection("workload")) {
            sr.openSection("workload");
            wl.restoreState(sr);
            sr.closeSection();
        }
        lastCkpt = sr.tick();
        // The restored event/tick counters cover the pre-checkpoint
        // execution too; re-anchor SimPerf so perf.{events,simTicks}
        // describe the whole logical run, exactly as an uninterrupted
        // run would report them.
        perf.rebase(0, 0);
    } else if (wl.init) {
        // wl.init built the memory image the checkpoint already
        // carries, so a restored run must not repeat it.
        wl.init(fm);
    }

    for (std::size_t p = firstPhase; p < wl.phases.size(); ++p) {
        Phase &phase = wl.phases[p];
        switch (phase.kind) {
          case Phase::Kind::Gpu:
            runGpuPhase(phase);
            break;
          case Phase::Kind::Cpu:
            runCpuPhase(phase, &r.errors);
            break;
        }
        if (p + 1 == wl.warmupPhases) {
            baseline = statsSnapshot();
            baselineCaptured = true;
        }
        if (checkpointing && p + 1 < wl.phases.size() &&
            eq.curTick() >= lastCkpt + ctl.checkpointEveryTicks) {
            writeCheckpoint(ctl, wl, std::uint32_t(p + 1),
                            baselineCaptured, baseline);
            lastCkpt = eq.curTick();
        }
        if (ctl.interrupt && p + 1 < wl.phases.size() &&
            ctl.interrupt->load(std::memory_order_relaxed)) {
            // Graceful degradation: this drain point is a valid
            // snapshot moment, so drop a final checkpoint (whatever
            // the cadence says) and surface the interrupt — the next
            // attempt resumes here instead of at tick 0.
            if (!ctl.checkpointDir.empty() &&
                eq.curTick() > lastCkpt) {
                writeCheckpoint(ctl, wl, std::uint32_t(p + 1),
                                baselineCaptured, baseline);
            }
            throw RunInterrupted(wl.name);
        }
    }

    // Snapshot the statistics before the validation flush: the flush
    // is not part of the measured execution (lazily-written stash
    // data would otherwise be charged writebacks the paper's lazy
    // policy precisely avoids).
    // A warmup workload whose baseline never materialized (possible
    // only via a snapshot restored past the warmup boundary with a
    // mismatched phase structure) must not subtract a zero baseline
    // and present warmup traffic as measured traffic.
    if (wl.warmupPhases > 0 && !baselineCaptured) {
        fatal("workload '", wl.name, "': warmup baseline was never "
              "captured (resumed at phase ", firstPhase, ", warmup "
              "boundary ", wl.warmupPhases, ", but the snapshot "
              "carries no baseline)");
    }
    r.stats = statsSnapshot();
    r.stats.sub(baseline);
    r.energy = energyModel.compute(r.stats);
    r.gpuCycles = r.stats.gpuCycles;

    // Flush every private memory so the functional image is complete,
    // then validate.
    for (auto &g : gpus) {
        g.l1->flushAll();
        if (g.stash)
            g.stash->flushAll();
    }
    for (auto &c : cpus)
        c.l1->flushAll();
    drain("final flush");
    for (auto &b : llcBanks)
        b->flushDirtyToMemory();
    if (_checker)
        _checker->checkFinalMemory(mem);

    if (wl.validate) {
        if (!wl.validate(fm, r.errors))
            r.validated = false;
    }
    if (!r.errors.empty())
        r.validated = false;
    r.perf = perf.summary();
    return r;
}

SystemStats
System::statsSnapshot() const
{
    SystemStats s;
    for (const auto &g : gpus) {
        s.gpu.add(g.cu->stats());
        s.gpuL1.add(g.l1->stats());
        if (g.spad)
            s.scratch.add(g.spad->stats());
        if (g.stash)
            s.stash.add(g.stash->stats());
        if (g.dma)
            s.dma.add(g.dma->stats());
    }
    for (const auto &c : cpus) {
        s.cpu.add(c.core->stats());
        s.cpuL1.add(c.l1->stats());
    }
    for (const auto &b : llcBanks)
        s.llc.add(b->stats());
    for (const auto &b : memBackends)
        s.memback.add(b->stats());
    s.noc.add(mesh.stats());
    s.gpuCycles = eq.curTick() / gpuClockPeriod;
    s.numGpuCus = gpus.size();
    return s;
}

Stash *
System::stashOf(unsigned cu)
{
    return cu < gpus.size() ? gpus[cu].stash.get() : nullptr;
}

L1Cache *
System::gpuL1Of(unsigned cu)
{
    return cu < gpus.size() ? gpus[cu].l1.get() : nullptr;
}

L1Cache *
System::cpuL1Of(unsigned cpu)
{
    return cpu < cpus.size() ? cpus[cpu].l1.get() : nullptr;
}

LlcBank *
System::llcBankOf(PhysAddr line_pa)
{
    return llcBanks[fabric.nodeOfLlc(line_pa)].get();
}

MemBackend *
System::memBackendOf(NodeId node)
{
    return node < memBackends.size() ? memBackends[node].get()
                                     : nullptr;
}

void
System::dumpDiagnostics(std::ostream &os) const
{
    os << "--- system state (tick " << eq.curTick() << ") ---\n";
    os << "  event queue: " << eq.size() << " pending event(s)";
    if (eq.size() > 0)
        os << ", next at tick " << eq.nextTick();
    os << "\n";
    fabric.dumpState(os);
    os << "  router channel reservations (busy-until tick):\n";
    static const char *dirName[] = {"N", "S", "E", "W", "L"};
    for (NodeId n = 0; n < cfg.numNodes(); ++n) {
        const Router &r = mesh.router(n);
        bool any = false;
        for (unsigned d = 0; d < unsigned(Direction::NumDirections);
             ++d) {
            any = any || r.busyUntil(Direction(d)) > 0;
        }
        if (!any)
            continue;
        os << "    node " << unsigned(n) << ":";
        for (unsigned d = 0; d < unsigned(Direction::NumDirections);
             ++d) {
            if (r.busyUntil(Direction(d)) > 0) {
                os << " " << dirName[d] << "="
                   << r.busyUntil(Direction(d));
            }
        }
        os << "\n";
    }
    for (const auto &g : gpus) {
        if (g.stash)
            g.stash->dumpState(os);
    }
}

void
System::saveSnapshot(SnapshotWriter &w) const
{
    // Event-queue clock and observability counters.
    {
        w.beginSection("engine");
        const EventQueue::ClockState s = eq.clockState();
        w.u64(s.curTick);
        w.u64(s.lastEventTick);
        w.u64(s.nextSeq);
        w.u64(s.executed);
        w.u64(s.peakLive);
        w.u64(s.wheelInserts);
        w.u64(s.farInserts);
        w.endSection();
    }

    w.beginSection("mem");
    mem.snapshot(w);
    w.endSection();
    w.beginSection("pagetable");
    pageTable.snapshot(w);
    w.endSection();
    w.beginSection("noc");
    mesh.snapshot(w);
    w.endSection();
    w.beginSection("fabric");
    fabric.snapshot(w);
    w.endSection();

    for (std::size_t i = 0; i < llcBanks.size(); ++i) {
        w.beginSection("llc" + std::to_string(i));
        llcBanks[i]->snapshot(w);
        w.endSection();
    }

    for (std::size_t i = 0; i < memBackends.size(); ++i) {
        w.beginSection("memback" + std::to_string(i));
        memBackends[i]->snapshot(w);
        w.endSection();
    }

    for (std::size_t i = 0; i < gpus.size(); ++i) {
        const std::string p = "cu" + std::to_string(i);
        const GpuNode &g = gpus[i];
        w.beginSection(p + ".tlb");
        g.tlb->snapshot(w);
        w.endSection();
        w.beginSection(p + ".l1");
        g.l1->snapshot(w);
        w.endSection();
        if (g.spad) {
            w.beginSection(p + ".scratch");
            g.spad->snapshot(w);
            w.endSection();
        }
        if (g.stash) {
            w.beginSection(p + ".stash");
            g.stash->snapshot(w);
            w.endSection();
        }
        if (g.dma) {
            w.beginSection(p + ".dma");
            g.dma->snapshot(w);
            w.endSection();
        }
        w.beginSection(p + ".core");
        g.cu->snapshot(w);
        w.endSection();
    }

    for (std::size_t i = 0; i < cpus.size(); ++i) {
        const std::string p = "cpu" + std::to_string(i);
        const CpuNode &c = cpus[i];
        w.beginSection(p + ".tlb");
        c.tlb->snapshot(w);
        w.endSection();
        w.beginSection(p + ".l1");
        c.l1->snapshot(w);
        w.endSection();
        w.beginSection(p + ".core");
        c.core->snapshot(w);
        w.endSection();
    }

    if (_checker) {
        w.beginSection("checker");
        _checker->snapshot(w);
        w.endSection();
    }

    if (_injector) {
        w.beginSection("injector");
        _injector->snapshot(w);
        w.endSection();
    }
}

void
System::restoreSnapshot(SnapshotReader &r)
{
    const std::uint64_t want = snapshotConfigHash(cfg);
    if (r.configHash() != want) {
        fatal("snapshot configuration hash mismatch: snapshot was "
              "taken with config hash 0x", std::hex, r.configHash(),
              " but this system's is 0x", want, std::dec,
              " (always-excepted fields: verify)");
    }

    {
        r.openSection("engine");
        EventQueue::ClockState s;
        s.curTick = r.u64();
        s.lastEventTick = r.u64();
        s.nextSeq = r.u64();
        s.executed = r.u64();
        s.peakLive = r.u64();
        s.wheelInserts = r.u64();
        s.farInserts = r.u64();
        r.closeSection();
        eq.restoreClock(s);
    }

    r.openSection("mem");
    mem.restore(r);
    r.closeSection();
    r.openSection("pagetable");
    pageTable.restore(r);
    r.closeSection();
    r.openSection("noc");
    mesh.restore(r);
    r.closeSection();
    r.openSection("fabric");
    fabric.restore(r);
    r.closeSection();

    for (std::size_t i = 0; i < llcBanks.size(); ++i) {
        r.openSection("llc" + std::to_string(i));
        llcBanks[i]->restore(r);
        r.closeSection();
    }

    for (std::size_t i = 0; i < memBackends.size(); ++i) {
        r.openSection("memback" + std::to_string(i));
        memBackends[i]->restore(r);
        r.closeSection();
    }

    for (std::size_t i = 0; i < gpus.size(); ++i) {
        const std::string p = "cu" + std::to_string(i);
        GpuNode &g = gpus[i];
        r.openSection(p + ".tlb");
        g.tlb->restore(r);
        r.closeSection();
        r.openSection(p + ".l1");
        g.l1->restore(r);
        r.closeSection();
        if (g.spad) {
            r.openSection(p + ".scratch");
            g.spad->restore(r);
            r.closeSection();
        }
        if (g.stash) {
            r.openSection(p + ".stash");
            g.stash->restore(r);
            r.closeSection();
        }
        if (g.dma) {
            r.openSection(p + ".dma");
            g.dma->restore(r);
            r.closeSection();
        }
        r.openSection(p + ".core");
        g.cu->restore(r);
        r.closeSection();
    }

    for (std::size_t i = 0; i < cpus.size(); ++i) {
        const std::string p = "cpu" + std::to_string(i);
        CpuNode &c = cpus[i];
        r.openSection(p + ".tlb");
        c.tlb->restore(r);
        r.closeSection();
        r.openSection(p + ".l1");
        c.l1->restore(r);
        r.closeSection();
        r.openSection(p + ".core");
        c.core->restore(r);
        r.closeSection();
    }

    // The checker section is optional by design (cfg.verify is not
    // part of the config hash): a checkpoint taken without the
    // checker restores into a checked system with an empty golden
    // image, which merely means pre-checkpoint stores go unaudited.
    if (_checker && r.hasSection("checker")) {
        r.openSection("checker");
        _checker->restore(r);
        r.closeSection();
    }

    // Likewise optional; when present it restores the RNG stream
    // position, FIFO clamps, and fault counters, so the resumed run
    // replays exactly the perturbations the uninterrupted run would
    // have drawn.
    if (_injector && r.hasSection("injector")) {
        r.openSection("injector");
        _injector->restore(r);
        r.closeSection();
    }
}

void
System::writeCheckpoint(const RunControl &ctl,
                        const Workload &wl,
                        std::uint32_t next_phase,
                        bool baseline_captured,
                        const SystemStats &baseline) const
{
    SnapshotWriter w;
    w.configHash = snapshotConfigHash(cfg);
    w.tick = eq.curTick();
    w.phaseCursor = next_phase;
    w.workload = wl.name;
    saveSnapshot(w);
    w.beginSection("run");
    w.u32(next_phase);
    w.b(baseline_captured);
    writeSystemStats(w, baseline);
    w.endSection();
    // Optional, like the checker/injector sections: present only for
    // workloads that carry generator state worth pinning.
    if (wl.snapshotState) {
        w.beginSection("workload");
        wl.snapshotState(w);
        w.endSection();
    }

    const std::string label =
        ctl.checkpointLabel.empty() ? wl.name : ctl.checkpointLabel;
    std::string path = ctl.checkpointDir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += "CKPT_" + label + "@" + std::to_string(eq.curTick()) +
            ".snap";
    w.writeFile(path);
}

} // namespace stashsim
