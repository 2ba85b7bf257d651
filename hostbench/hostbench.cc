/**
 * @file
 * hostbench: host cost of regenerating the paper's results.
 *
 * One single-threaded process, one closed-loop client: it runs a
 * fixed grid of simulations (a "pass") back to back, each run
 * starting when the previous one has finished, and repeats the pass
 * for the requested number of seconds.  It drives the simulator only
 * through its public calls — WorkloadFactory::make and the synthetic
 * makers, System::System, System::run, ~System,
 * System::statsSnapshot(), RunResult::perf, Fabric::flushCount() and a
 * PhaseListener on System::eventQueue() — so the simulator's internals
 * stay free to change without touching this file.
 *
 * Usage:
 *   hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out FILE]
 *
 * With --trace 0 the last stdout line carries the end-to-end metrics
 * (medians over the timed passes); with --trace 1 it carries the
 * per-layer metrics, and FILE receives every recorded span.  Every
 * time is process CPU time, not wall clock (the simulator is
 * single-threaded, so CPU time is its wall time minus what a busy
 * host's scheduler adds), scaled to an idle host's speed by a
 * calibration kernel timed between runs.  See RATIONALE.md for why
 * each workload and metric is here.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "driver/system.hh"
#include "workloads/synthetic/synth_workloads.hh"
#include "workloads/workload_factory.hh"

namespace
{

using namespace stashsim;
using workloads::Scale;
using workloads::SynthConfig;
using workloads::WorkloadFactory;
using workloads::WorkloadParams;

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double cpuNow() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double wallNow() { return clockSeconds(CLOCK_MONOTONIC); }

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ------------------------------------------------------------------
// Host-speed calibration
// ------------------------------------------------------------------

/**
 * CPU seconds one calibration slice takes on an idle host (4-vCPU
 * Intel Xeon, 2 MiB L2 per core, 105 MiB shared L3).  Every time metric
 * is scaled to this host speed.
 */
constexpr double idleSliceSeconds = 0.0035;

/** Calibration CPU time per CPU second of simulation runs. */
constexpr double calibShare = 0.1;

/**
 * A fixed stand-in for the simulator's event loop, timed after every
 * run so that each pass carries a measure of the host's speed while it
 * ran.  On a shared host, neighbours contending for the last-level
 * cache and memory slow memory-bound code by up to 60% for minutes at a
 * time, and CPU time does not hide that.  This kernel pops and pushes a
 * heap of timed events and reads one random word of a 4 MiB table per
 * event, so it slows by the same factor as the simulator (RATIONALE.md
 * has the measurement).  It is the benchmark's own code: no change to
 * the simulator can move it.
 */
class Calibration
{
  public:
    Calibration() : table(std::size_t(1) << 20)
    {
        for (std::uint32_t &w : table)
            w = std::uint32_t(next());
    }

    /** Runs one slice and returns its CPU seconds. */
    double
    slice()
    {
        using Event = std::pair<std::uint64_t, std::uint32_t>;
        const double t0 = cpuNow();
        std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
        for (int i = 0; i < 2048; ++i)
            q.push({next() % 1024, std::uint32_t(next())});
        for (int i = 0; i < 30000; ++i) {
            const Event e = q.top();
            q.pop();
            const std::uint32_t v = table[e.second & (table.size() - 1)];
            q.push({e.first + 1 + next() % 512, v ^ std::uint32_t(next())});
            sink = sink + v;
        }
        return cpuNow() - t0;
    }

  private:
    /** xorshift64: the same stream in every process. */
    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }

    std::vector<std::uint32_t> table;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    volatile std::uint64_t sink = 0; //!< keeps the reads observable
};

// ------------------------------------------------------------------
// The run grids
// ------------------------------------------------------------------

/** One simulation of a pass: its machine and its input maker. */
struct GridRun
{
    std::string label;
    SystemConfig cfg;
    std::function<Workload()> make;
};

/** A paper workload at the benches' quick inputs on its own machine. */
GridRun
paperRun(const std::string &name, MemOrg org)
{
    GridRun g;
    g.label = name + "/" + memOrgName(org);
    g.cfg = WorkloadFactory::instance().defaultConfig(name);
    g.cfg.memOrg = org;
    g.cfg.memBackend.kind = MemBackendKind::Fixed;
    WorkloadParams p;
    p.org = org;
    p.cpuCores = g.cfg.numCpuCores;
    p.scale = Scale::Quick;
    g.make = [name, p] {
        return WorkloadFactory::instance().make(name, p);
    };
    return g;
}

/**
 * A seeded synthetic workload on the 15-CU machine: the factory's full
 * inputs with more SynthMix kernels, GraphGather iterations and
 * AttnScatter queries and chunks, so that a pass costs about a CPU
 * second and AttnScatter's re-staging is not lost in the noise.
 */
GridRun
synthRun(const std::string &name, MemOrg org, std::uint64_t seed)
{
    GridRun g;
    g.label = name + "/" + memOrgName(org);
    g.cfg = SystemConfig::applicationDefault();
    g.cfg.memOrg = org;
    g.cfg.memBackend.kind = MemBackendKind::Fixed;
    WorkloadParams p;
    p.org = org;
    p.cpuCores = g.cfg.numCpuCores;
    p.scale = Scale::Full;
    SynthConfig c = workloads::scaledSynthConfig(p);
    c.seed = seed;
    c.mixKernels = 8;
    c.graphIters = 6;
    c.attnQueries = 1920;
    c.attnChunks = 8;
    if (name == "SynthMix") {
        // The read-write-heavy mix: most accesses migrate between
        // CUs through produce/consume phases.
        c.mixRoPct = 15;
        c.mixRwPct = 70;
        g.make = [c] { return workloads::makeSynthMix(c); };
    } else if (name == "GraphGather") {
        g.make = [c] { return workloads::makeGraphGather(c); };
    } else {
        g.make = [c] { return workloads::makeAttnScatter(c); };
    }
    return g;
}

/** The benchmark workloads; see RATIONALE.md for the choice. */
const std::vector<std::string> workloadNames = {
    "micro-1cu", "apps-15cu", "synth-irregular"};

/** Whether @p workload derives its inputs from --seed. */
bool
usesSeed(const std::string &workload)
{
    return workload == "synth-irregular";
}

std::vector<GridRun>
buildGrid(const std::string &workload, std::uint64_t seed)
{
    std::vector<GridRun> grid;
    if (workload == "micro-1cu") {
        // Figure 5.
        for (const char *name :
             {"Implicit", "Pollution", "On-demand", "Reuse"}) {
            for (MemOrg org : {MemOrg::Scratch, MemOrg::ScratchGD,
                               MemOrg::Cache, MemOrg::Stash})
                grid.push_back(paperRun(name, org));
        }
    } else if (workload == "apps-15cu") {
        // Figure 6.
        for (const char *name :
             {"LUD", "SURF", "BP", "NW", "PF", "SGEMM", "STENCIL"}) {
            for (MemOrg org : {MemOrg::Scratch, MemOrg::ScratchG,
                               MemOrg::Cache, MemOrg::Stash,
                               MemOrg::StashG})
                grid.push_back(paperRun(name, org));
        }
    } else if (workload == "synth-irregular") {
        for (const char *name :
             {"SynthMix", "GraphGather", "AttnScatter"}) {
            for (MemOrg org :
                 {MemOrg::ScratchGD, MemOrg::Cache, MemOrg::Stash})
                grid.push_back(synthRun(name, org, seed));
        }
    }
    return grid;
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

/** One timed interval: a public call or a reported phase. */
struct Span
{
    const char *name;
    int parent;       //!< index of the enclosing span, -1 for a root
    unsigned run;     //!< run id shared by every span of one run
    double cpu0, cpu1;   //!< process CPU seconds
    double wall0, wall1; //!< monotonic wall seconds
};

/**
 * Records spans in memory while on; every call is a no-op while off,
 * so the untraced run pays only the branch.  As a PhaseListener it
 * turns the drains System::run reports into child spans of the run:
 * time before the first phase is memory-image init, time after the
 * final flush is the LLC flush plus the final-memory validator.
 */
class Tracer : public PhaseListener
{
  public:
    explicit Tracer(bool on) : on(on) {}

    bool enabled() const { return on; }

    int
    open(const char *name)
    {
        if (!on)
            return -1;
        const int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, parent, run, cpuNow(), 0, wallNow(), 0});
        stack.push_back(int(spans.size()) - 1);
        return stack.back();
    }

    /** Closes @p id and every span still open inside it. */
    void
    close(int id)
    {
        if (!on || id < 0)
            return;
        const double c = cpuNow(), w = wallNow();
        while (!stack.empty()) {
            const int top = stack.back();
            stack.pop_back();
            spans[top].cpu1 = c;
            spans[top].wall1 = w;
            if (top == id)
                break;
        }
    }

    bool
    topIs(const char *name) const
    {
        return !stack.empty() && spans[stack.back()].name == name;
    }

    void
    phaseBegin(const char *name, Tick) override
    {
        if (topIs(initSpan))
            close(stack.back());
        open(phaseSpanName(name));
    }

    void
    phaseEnd(const char *name, Tick) override
    {
        if (!on || stack.empty())
            return;
        close(stack.back());
        if (std::strcmp(name, "final flush") == 0)
            open(checkSpan);
    }

    static const char *
    phaseSpanName(const char *phase)
    {
        if (std::strcmp(phase, "gpu kernel phase") == 0)
            return "gpu.kernel_phase";
        if (std::strcmp(phase, "cpu phase") == 0)
            return "cpu.phase";
        if (std::strcmp(phase, "final flush") == 0)
            return "mem.final_flush";
        return "sim.drain";
    }

    static constexpr const char *initSpan = "driver.init";
    static constexpr const char *checkSpan = "verify.check";

    unsigned run = 0;
    std::vector<Span> spans;

  private:
    bool on;
    std::vector<int> stack;
};

/** Span names whose self time is a per-layer metric, in table order. */
const std::vector<std::pair<const char *, const char *>> timedLayers = {
    {"workloads.build", "workloads.build_s"},
    {"driver.construct", "driver.construct_s"},
    {"driver.init", "driver.init_s"},
    {"mem.final_flush", "mem.final_flush_s"},
    {"verify.check", "verify.check_s"},
    {"driver.teardown", "driver.teardown_s"},
    {"gpu.kernel_phase", "gpu.kernel_phase_s"},
    {"cpu.phase", "cpu.phase_s"},
};

// ------------------------------------------------------------------
// Deterministic counts
// ------------------------------------------------------------------

/**
 * Everything one run simulated, read after the run.  All of it is
 * simulation state, so it must repeat exactly on every pass.
 */
struct RunCounts
{
    // The digest inputs, as BENCH_*.json reports them: the measured
    // region's cycles, instructions and flit-hops (warm-up phases
    // excluded) and the whole run's event count.
    std::uint64_t resultCycles = 0, resultInstr = 0, resultEvents = 0,
                  resultFlitHops = 0;
    // Whole-run counts (statsSnapshot() after the final flush).
    std::uint64_t cycles = 0, instructions = 0, cpuOps = 0;
    std::uint64_t l1Accesses = 0, l1Hits = 0;
    std::uint64_t stashAccesses = 0, stashHits = 0, vpMapLookups = 0,
                  stashRemoteHits = 0;
    std::uint64_t scratchAccesses = 0, dmaTransfers = 0;
    std::uint64_t llcAccesses = 0, llcFills = 0, llcForwards = 0;
    std::uint64_t packets = 0, flitHops = 0, fabricFlushes = 0;
    std::uint64_t peakLive = 0, wheelInserts = 0, farInserts = 0;

    bool operator==(const RunCounts &) const = default;
};

RunCounts
countsOf(const RunResult &r, const SystemStats &s,
         std::uint64_t flushes)
{
    RunCounts c;
    c.resultCycles = r.gpuCycles;
    c.resultInstr = r.stats.gpu.instructions;
    c.resultEvents = r.perf.events;
    c.resultFlitHops = r.stats.noc.totalFlitHops();
    c.cycles = s.gpuCycles;
    c.instructions = s.gpu.instructions;
    c.cpuOps = s.cpu.loads + s.cpu.stores;
    c.l1Accesses = s.gpuL1.accesses();
    c.l1Hits = s.gpuL1.hits();
    c.stashAccesses = s.stash.accesses();
    c.stashHits = s.stash.hits();
    c.vpMapLookups = s.stash.vpMapAccesses;
    c.stashRemoteHits = s.stash.remoteHits;
    c.scratchAccesses = s.scratch.accesses();
    c.dmaTransfers = s.dma.transfers;
    c.llcAccesses = s.llc.accesses;
    c.llcFills = s.llc.fills;
    c.llcForwards = s.llc.remoteForwards;
    c.packets = s.noc.packets;
    c.flitHops = s.noc.totalFlitHops();
    c.fabricFlushes = flushes;
    c.peakLive = r.perf.shape.peakLiveEvents;
    c.wheelInserts = r.perf.shape.wheelInserts;
    c.farInserts = r.perf.shape.farInserts;
    return c;
}

/** FNV-1a over each run's (cycles, instructions, events, flit-hops). */
std::string
digestOf(const std::vector<RunCounts> &runs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const RunCounts &c : runs) {
        for (std::uint64_t v : {c.resultCycles, c.resultInstr,
                                c.resultEvents, c.resultFlitHops}) {
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xff;
                h *= 0x100000001b3ull;
            }
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

// ------------------------------------------------------------------
// Passes
// ------------------------------------------------------------------

/** One pass over the grid. */
struct Pass
{
    /** @{ Raw CPU seconds. */
    double cpu = 0;     //!< whole pass, build to teardown
    double setup = 0;   //!< workload build + System construction
    double runCpu = 0;  //!< inside System::run
    /** @} */
    /** Idle-host seconds per raw CPU second, from the calibration. */
    double scale = 1;
    std::vector<RunCounts> counts; //!< per grid run
    std::vector<std::string> failures;
};

/** Runs one grid entry, adding its costs and counts to @p pass. */
void
runOne(const GridRun &g, Tracer &tr, Pass &pass)
{
    const int root = tr.open("run");
    try {
        const double t0 = cpuNow();
        int sp = tr.open("workloads.build");
        Workload wl = g.make();
        tr.close(sp);
        sp = tr.open("driver.construct");
        auto sys = std::make_unique<System>(g.cfg);
        tr.close(sp);
        pass.setup += cpuNow() - t0;

        if (tr.enabled())
            sys->eventQueue().addPhaseListener(&tr);
        sp = tr.open("driver.run");
        tr.open(Tracer::initSpan);
        const double t1 = cpuNow();
        RunResult r = sys->run(std::move(wl));
        pass.runCpu += cpuNow() - t1;
        tr.close(sp);

        sp = tr.open("driver.stats");
        const SystemStats s = sys->statsSnapshot();
        const std::uint64_t flushes = sys->fabricRef().flushCount();
        tr.close(sp);
        pass.counts.push_back(countsOf(r, s, flushes));
        if (!r.validated) {
            std::string why = g.label + ": final memory invalid";
            if (!r.errors.empty())
                why += " (" + r.errors.front() + ")";
            pass.failures.push_back(why);
        }

        sp = tr.open("driver.teardown");
        sys.reset();
        tr.close(sp);
    } catch (const std::exception &e) {
        pass.counts.push_back({});
        pass.failures.push_back(g.label + ": " + e.what());
    }
    tr.close(root);
    ++tr.run;
}

Pass
runPass(const std::vector<GridRun> &grid, Tracer &tr, Calibration &cal)
{
    Pass pass;
    double calib = 0;
    unsigned slices = 0;
    const double c0 = cpuNow();
    for (const GridRun &g : grid) {
        const double r0 = cpuNow();
        runOne(g, tr, pass);
        // Sample the host's speed for a tenth of the run's time, so
        // each run weighs in proportion to its length.
        const double budget = calibShare * (cpuNow() - r0);
        double spent = 0;
        do {
            spent += cal.slice();
            ++slices;
        } while (spent < budget);
        calib += spent;
    }
    pass.cpu = cpuNow() - c0 - calib;
    pass.scale = idleSliceSeconds * slices / calib;
    return pass;
}

/** Summed counts of one pass, for the per-layer metrics. */
RunCounts
passTotals(const Pass &p)
{
    RunCounts t;
    for (const RunCounts &c : p.counts) {
        t.cycles += c.cycles;
        t.instructions += c.instructions;
        t.cpuOps += c.cpuOps;
        t.l1Accesses += c.l1Accesses;
        t.l1Hits += c.l1Hits;
        t.stashAccesses += c.stashAccesses;
        t.stashHits += c.stashHits;
        t.vpMapLookups += c.vpMapLookups;
        t.stashRemoteHits += c.stashRemoteHits;
        t.scratchAccesses += c.scratchAccesses;
        t.dmaTransfers += c.dmaTransfers;
        t.llcAccesses += c.llcAccesses;
        t.llcFills += c.llcFills;
        t.llcForwards += c.llcForwards;
        t.packets += c.packets;
        t.flitHops += c.flitHops;
        t.fabricFlushes += c.fabricFlushes;
        t.peakLive = std::max(t.peakLive, c.peakLive);
        t.wheelInserts += c.wheelInserts;
        t.farInserts += c.farInserts;
        t.resultEvents += c.resultEvents;
    }
    return t;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

// ------------------------------------------------------------------
// Output
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
               jsonNumber(ms[i].value) + ", \"unit\": \"" + ms[i].unit +
               "\"}";
    }
    return out + "}";
}

/** Per-pass self CPU seconds of one span name. */
using SelfTimes = std::vector<std::pair<std::string, std::vector<double>>>;

/**
 * Each span name's self time (span time minus the time of its direct
 * children), summed per timed pass and scaled to idle-host speed, in
 * first-seen order.  Spans of runs before @p first_run (the untimed
 * pass) are left out.
 */
SelfTimes
selfTimes(const Tracer &tr, unsigned first_run, std::size_t grid_size,
          const std::vector<Pass> &passes)
{
    std::vector<double> self(tr.spans.size());
    for (std::size_t i = 0; i < tr.spans.size(); ++i)
        self[i] = tr.spans[i].cpu1 - tr.spans[i].cpu0;
    for (const Span &s : tr.spans) {
        if (s.parent >= 0)
            self[s.parent] -= s.cpu1 - s.cpu0;
    }
    SelfTimes out;
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
        const Span &s = tr.spans[i];
        if (s.run < first_run)
            continue;
        auto it = std::find_if(out.begin(), out.end(), [&](auto &e) {
            return e.first == s.name;
        });
        if (it == out.end()) {
            out.push_back(
                {s.name, std::vector<double>(passes.size(), 0.0)});
            it = out.end() - 1;
        }
        const std::size_t pass = (s.run - first_run) / grid_size;
        it->second[pass] += self[i] * passes[pass].scale;
    }
    return out;
}

/**
 * Per-layer metrics: medians over the timed passes of the span self
 * times, plus the deterministic counts of one pass.
 */
std::vector<Metric>
layerMetrics(const SelfTimes &self, const std::vector<Pass> &passes)
{
    std::vector<Metric> ms;
    for (const auto &[span, metric] : timedLayers) {
        double v = 0;
        for (const auto &e : self) {
            if (e.first == span)
                v = median(e.second);
        }
        ms.push_back({metric, v, "s"});
    }

    std::vector<double> ns_per_event;
    for (const Pass &p : passes) {
        ns_per_event.push_back(
            ratio(p.runCpu * p.scale * 1e9,
                  double(passTotals(p).resultEvents)));
    }
    const RunCounts t = passTotals(passes.front());
    const double events = double(t.resultEvents);
    ms.push_back({"sim.ns_per_event", median(ns_per_event), "ns"});
    ms.push_back({"sim.events", events, "count"});
    ms.push_back({"sim.events_per_instr",
                  ratio(events, double(t.instructions)), "ratio"});
    ms.push_back(
        {"sim.far_insert_frac",
         ratio(double(t.farInserts),
               double(t.farInserts + t.wheelInserts)),
         "fraction"});
    ms.push_back({"sim.peak_live_events", double(t.peakLive), "count"});
    ms.push_back({"mem.l1.accesses", double(t.l1Accesses), "count"});
    ms.push_back({"mem.l1.hit_ratio",
                  ratio(double(t.l1Hits), double(t.l1Accesses)),
                  "fraction"});
    ms.push_back(
        {"core.stash.accesses", double(t.stashAccesses), "count"});
    ms.push_back({"core.stash.hit_ratio",
                  ratio(double(t.stashHits), double(t.stashAccesses)),
                  "fraction"});
    ms.push_back(
        {"core.vpmap.lookups_per_access",
         ratio(double(t.vpMapLookups), double(t.stashAccesses)),
         "ratio"});
    ms.push_back(
        {"core.stash.remote_hits", double(t.stashRemoteHits), "count"});
    ms.push_back(
        {"mem.scratch.accesses", double(t.scratchAccesses), "count"});
    ms.push_back({"mem.dma.transfers", double(t.dmaTransfers), "count"});
    ms.push_back({"mem.llc.accesses", double(t.llcAccesses), "count"});
    ms.push_back({"mem.llc.fills", double(t.llcFills), "count"});
    ms.push_back({"mem.llc.remote_forward_frac",
                  ratio(double(t.llcForwards), double(t.llcAccesses)),
                  "fraction"});
    ms.push_back({"noc.packets", double(t.packets), "count"});
    ms.push_back({"noc.flit_hops", double(t.flitHops), "count"});
    ms.push_back({"mem.fabric.flushes_per_packet",
                  ratio(double(t.fabricFlushes), double(t.packets)),
                  "ratio"});
    ms.push_back({"gpu.instructions", double(t.instructions), "count"});
    ms.push_back({"gpu.sim_cycles", double(t.cycles), "count"});
    ms.push_back({"cpu.ops", double(t.cpuOps), "count"});
    return ms;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Writes the traced run: layers, counts, digest inputs and spans. */
bool
writeTrace(const std::string &path, const std::string &workload,
           std::uint64_t seed, double cpu_s,
           const std::vector<GridRun> &grid, const Pass &first,
           const std::vector<Pass> &passes, const std::string &digest,
           const std::vector<Metric> &layers, const SelfTimes &self,
           const Tracer &tr)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"schema\": \"hostbench-trace-v1\",\n"
      << " \"workload\": " << jsonString(workload) << ",\n"
      << " \"seed\": " << seed << ", \"seed_used\": "
      << (usesSeed(workload) ? "true" : "false") << ",\n"
      << " \"passes\": " << passes.size() << ",\n"
      << " \"host_slowdown\": [";
    for (std::size_t i = 0; i < passes.size(); ++i)
        f << (i ? ", " : "") << jsonNumber(1 / passes[i].scale);
    f << "],\n"
      << " \"cpu_s\": " << jsonNumber(cpu_s) << ",\n"
      << " \"digest\": \"" << digest << "\",\n"
      << " \"metrics\": " << metricsJson(layers) << ",\n"
      << " \"self_cpu_s\": {";
    for (std::size_t i = 0; i < self.size(); ++i) {
        f << (i ? ", " : "") << jsonString(self[i].first) << ": "
          << jsonNumber(median(self[i].second));
    }
    f << "},\n \"runs\": [";
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const RunCounts &c = first.counts[i];
        f << (i ? ",\n  " : "\n  ") << "{\"label\": "
          << jsonString(grid[i].label)
          << ", \"gpuCycles\": " << c.resultCycles
          << ", \"instructions\": " << c.resultInstr
          << ", \"events\": " << c.resultEvents
          << ", \"flitHops\": " << c.resultFlitHops << "}";
    }
    f << "],\n \"spans\": [";
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
        const Span &s = tr.spans[i];
        f << (i ? ",\n  " : "\n  ") << "[" << s.run << ", " << s.parent
          << ", \"" << s.name << "\", " << jsonNumber(s.cpu0) << ", "
          << jsonNumber(s.cpu1) << ", " << jsonNumber(s.wall0) << ", "
          << jsonNumber(s.wall1) << "]";
    }
    f << "]}\n";
    return bool(f);
}

int
usage(const char *msg)
{
    std::cerr << "hostbench: " << msg << "\n"
              << "usage: hostbench --workload NAME [--seed N (1)] "
                 "[--seconds S (20)] [--trace 0|1 (0)] [--trace-out FILE]\n"
              << "workloads: micro-1cu apps-15cu synth-irregular\n";
    return 2;
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    if (!s || !*s)
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || *end || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    // The defaults are BENCHMARK.json's seed and run_seconds.
    std::uint64_t seed = 1, seconds = 20, trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--workload" && v) {
            workload = v;
        } else if (a == "--seed" && parseUnsigned(v, seed)) {
        } else if (a == "--seconds" && parseUnsigned(v, seconds)) {
        } else if (a == "--trace" && parseUnsigned(v, trace)) {
        } else if (a == "--trace-out" && v) {
            trace_out = v;
        } else {
            return usage(("bad argument: " + a).c_str());
        }
        ++i;
    }
    if (std::find(workloadNames.begin(), workloadNames.end(),
                  workload) == workloadNames.end())
        return usage("unknown or missing --workload");
    if (seconds == 0 || trace > 1)
        return usage("--seconds must be > 0 and --trace 0 or 1");

    const std::vector<GridRun> grid = buildGrid(workload, seed);
    std::cout << "hostbench " << workload << ": " << grid.size()
              << " runs per pass, serial engine, fixed memory backend\n";
    if (usesSeed(workload)) {
        std::cout << "seed " << seed << ": generates the SynthMix, "
                     "GraphGather and AttnScatter inputs\n";
    } else {
        std::cout << "seed " << seed << ": ignored; " << workload
                  << " runs the paper's fixed quick inputs\n";
    }

    Tracer tr(trace == 1);
    Calibration cal;
    // An untimed pass first pays the process's one-time start-up
    // (factory registration, page faults, allocator growth).
    const Pass warm = runPass(grid, tr, cal);
    const unsigned runs_before = tr.run;

    std::vector<Pass> passes;
    const double start = wallNow();
    double last = 0;
    do {
        const double w0 = wallNow();
        passes.push_back(runPass(grid, tr, cal));
        last = wallNow() - w0;
    } while (wallNow() - start + last <= double(seconds));

    // Output check: every failed validation or caught fatal(), and
    // any pass whose simulated counts differ from the untimed pass's —
    // the simulator is deterministic, so a difference is a bug.
    std::uint64_t attempted = grid.size(), failed = warm.failures.size();
    for (const std::string &f : warm.failures)
        std::cerr << "FAILED (untimed pass) " << f << "\n";
    bool deterministic = true;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        attempted += grid.size();
        failed += passes[i].failures.size();
        for (const std::string &f : passes[i].failures)
            std::cerr << "FAILED (pass " << i << ") " << f << "\n";
        for (std::size_t r = 0; r < grid.size(); ++r) {
            if (passes[i].counts[r] != warm.counts[r]) {
                deterministic = false;
                std::cerr << "NONDETERMINISTIC " << grid[r].label
                          << ": pass " << i << " simulated different "
                          << "counts than the untimed pass\n";
            }
        }
    }

    std::vector<double> cpu, setup, kips;
    for (const Pass &p : passes) {
        cpu.push_back(p.cpu * p.scale);
        setup.push_back(p.setup * p.scale);
        kips.push_back(ratio(double(passTotals(p).instructions) / 1e3,
                             p.runCpu * p.scale));
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = double(ru.ru_maxrss) / 1024.0;

    const std::string digest = digestOf(warm.counts);
    std::cout << "digest " << workload << " " << digest << " ("
              << grid.size() << " runs: gpuCycles, instructions, "
              << "events, flit-hops)\n"
              << "passes " << passes.size() << " timed + 1 untimed\n"
              << "raw cpu_s per pass:";
    for (const Pass &p : passes)
        std::cout << " " << p.cpu;
    std::cout << "\nhost slowdown per pass:";
    for (const Pass &p : passes)
        std::cout << " " << 1 / p.scale;
    std::cout << "\nfail_rate " << ratio(double(failed),
                                         double(attempted))
              << " (" << failed << " of " << attempted << " runs)\n";

    std::vector<Metric> metrics;
    if (trace == 1) {
        const SelfTimes self =
            selfTimes(tr, runs_before, grid.size(), passes);
        metrics = layerMetrics(self, passes);
        std::cout << "traced cpu_s " << median(cpu) << "\n";
        if (!trace_out.empty() &&
            !writeTrace(trace_out, workload, seed, median(cpu), grid,
                        warm, passes, digest, metrics, self, tr)) {
            std::cerr << "hostbench: cannot write " << trace_out << "\n";
            return 1;
        }
    } else {
        metrics = {{"cpu_s", median(cpu), "s"},
                   {"sim_kips", median(kips), "kinstr/s"},
                   {"setup_s", median(setup), "s"},
                   {"peak_rss_mb", rss_mb, "MB"}};
    }

    const bool correct = failed == 0 && deterministic;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return correct ? 0 : 1;
}
