#include "driver/system.hh"

#include <ostream>
#include <string>

#include "sim/log.hh"
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
        g.tlb = std::make_unique<Tlb>(pageTable);
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
        c.tlb = std::make_unique<Tlb>(pageTable);
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
}

System::~System() = default;

void
System::drain(const char *what)
{
    // Phases only complete when no component generates further work,
    // so running the queue dry is a full drain.  The phase boundary
    // is broadcast to every listener (the watchdog, a trace sink).
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
    // Split the grid round-robin across the CUs: CU i runs blocks i,
    // i + n, i + 2n, ... in place.
    const Kernel &k = phase.kernel;
    unsigned pending = 0;
    for (std::size_t i = 0; i < gpus.size() && i < k.blocks.size(); ++i) {
        ++pending;
        gpus[i].cu->runKernel(k, i, gpus.size(),
                              [&pending] { --pending; });
    }
    drain("gpu kernel phase");
    if (pending != 0 && _watchdog)
        _watchdog->reportHang("gpu kernel phase");
    sim_assert(pending == 0);
    // The phase's op streams are done with.
    phase.kernel.blocks.clear();
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
System::run(Workload wl)
{
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
    if (wl.init)
        wl.init(fm);

    SystemStats baseline;
    for (std::size_t p = 0; p < wl.phases.size(); ++p) {
        Phase &phase = wl.phases[p];
        switch (phase.kind) {
          case Phase::Kind::Gpu:
            runGpuPhase(phase);
            break;
          case Phase::Kind::Cpu:
            runCpuPhase(phase, &r.errors);
            break;
        }
        if (p + 1 == wl.warmupPhases)
            baseline = statsSnapshot();
        assertDrained();
    }

    // Snapshot the statistics before the validation flush: the flush
    // is not part of the measured execution (lazily-written stash
    // data would otherwise be charged writebacks the paper's lazy
    // policy precisely avoids).
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
    assertDrained();
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

void
System::assertDrained() const
{
    fabric.assertDrained();
    for (const auto &b : llcBanks)
        b->assertDrained();
    for (const auto &g : gpus) {
        g.l1->assertDrained();
        if (g.stash)
            g.stash->assertDrained();
        if (g.dma)
            g.dma->assertDrained();
        g.cu->assertDrained();
    }
    for (const auto &c : cpus) {
        c.l1->assertDrained();
        c.core->assertDrained();
    }
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

} // namespace stashsim
