/**
 * @file
 * stashbench: the single bench CLI.
 *
 * Replaces the per-figure bench binaries: every paper table, figure,
 * and ablation is a named bench (see --list) that sweeps its run
 * grid — in parallel with --jobs — and writes a BENCH_<name>.json
 * artifact.  --render-md regenerates EXPERIMENTS.md from those
 * artifacts.  Exits nonzero when any run fails validation.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>

#include "benches.hh"
#include "driver/bench_args.hh"
#include "driver/sweep.hh"
#include "mem/backend/mem_backend.hh"
#include "workloads/workload_factory.hh"

namespace
{

using namespace stashsim;
using namespace stashbench;

/** Exit code for "interrupted, resumable" (vs 1 = failed). */
constexpr int interruptedExitCode = 75;

/**
 * SIGINT/SIGTERM set this; the sweep layer stops claiming runs, lets
 * the runs in flight finish and cache their results, and the CLI
 * exits with interruptedExitCode so wrappers can tell "interrupted,
 * resumable" from "failed".
 */
std::atomic<bool> g_stop{false};

extern "C" void
stopHandler(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

int
listBenches()
{
    std::printf("%-30s %-18s %s\n", "bench", "scales", "description");
    for (const BenchInfo &b : benchList())
        std::printf("%-30s %-18s %s\n", b.name, b.scales, b.desc);
    std::printf("\n%-30s %-18s %s\n", "workload", "kind",
                "description");
    for (const auto &info :
         workloads::WorkloadFactory::instance().list()) {
        std::printf("%-30s %-18s %s\n", info.name.c_str(),
                    info.kindName(), info.description.c_str());
    }
    return 0;
}

/** Resolves --backend into @p ctx; exit-2 diagnostic on failure. */
bool
resolveBackend(const BenchArgs &args, BenchContext &ctx)
{
    if (args.backend.empty() ||
        memBackendFromName(args.backend, ctx.backend))
        return true;
    std::string names;
    for (const MemBackendInfo &b : memBackendList()) {
        if (!names.empty())
            names += ", ";
        names += b.name;
    }
    std::fprintf(stderr,
                 "stashbench: unknown memory backend '%s' "
                 "(valid: %s; --list --json has descriptions)\n",
                 args.backend.c_str(), names.c_str());
    return false;
}

/** The validation bounds every CLI trace flow parses against. */
workloads::TraceLimits
traceLimits()
{
    const SystemConfig cfg = SystemConfig::applicationDefault();
    workloads::TraceLimits lim;
    lim.maxCus = cfg.numGpuCus;
    lim.maxCpuCores = cfg.numCpuCores;
    lim.localBytes = cfg.localBytes;
    return lim;
}

bool
writeTraceFile(const std::string &path,
               const workloads::TraceData &trace)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "stashbench: cannot write %s\n",
                     path.c_str());
        return false;
    }
    os << workloads::writeTrace(trace);
    return bool(os);
}

/** --trace-from NAME --trace-record FILE: record, no simulation. */
int
traceFromMain(const BenchArgs &args)
{
    const auto &factory = workloads::WorkloadFactory::instance();
    if (!factory.find(args.traceFrom)) {
        std::fprintf(stderr,
                     "stashbench: unknown workload '%s' for "
                     "--trace-from (--list shows the choices)\n",
                     args.traceFrom.c_str());
        return 2;
    }
    workloads::TraceData trace;
    try {
        // Record from the cache-organization build: every access is
        // global there, which is exactly what the trace grammar's
        // ld/st records describe.
        workloads::WorkloadParams p;
        p.org = MemOrg::Cache;
        p.scale = args.scale;
        const Workload wl = factory.make(args.traceFrom, p);
        trace =
            workloads::traceFromWorkload(wl, traceLimits().maxCus);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "stashbench: cannot record %s: %s\n",
                     args.traceFrom.c_str(), e.what());
        return 2;
    }
    if (!writeTraceFile(args.traceRecord, trace))
        return 1;
    std::fprintf(stderr,
                 "recorded %s (%s scale) -> %s: %llu records, "
                 "%zu phases\n",
                 args.traceFrom.c_str(),
                 workloads::scaleName(args.scale),
                 args.traceRecord.c_str(),
                 (unsigned long long)trace.records(),
                 trace.phases.size());
    return 0;
}

/**
 * --trace-replay FILE: parse, then either normalize into
 * --trace-record (no simulation) or sweep the trace over
 * scratchGD/cache/stash and write BENCH_replay.json.
 */
int
traceReplayMain(const BenchArgs &args)
{
    std::ifstream is(args.traceReplay);
    if (!is) {
        std::fprintf(stderr, "stashbench: cannot read %s\n",
                     args.traceReplay.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    workloads::TraceData trace;
    std::string err;
    if (!workloads::parseTrace(buf.str(), traceLimits(), trace,
                               err)) {
        std::fprintf(stderr, "stashbench: %s: %s\n",
                     args.traceReplay.c_str(), err.c_str());
        return 2;
    }
    if (!args.traceRecord.empty()) {
        // Normalize-only mode: the canonical rendering is a
        // parse/write fixed point, so record->replay->record round
        // trips byte-identically.
        if (!writeTraceFile(args.traceRecord, trace))
            return 1;
        std::fprintf(stderr,
                     "normalized %s -> %s: %llu records, %zu "
                     "phases\n",
                     args.traceReplay.c_str(),
                     args.traceRecord.c_str(),
                     (unsigned long long)trace.records(),
                     trace.phases.size());
        return 0;
    }

    BenchContext ctx;
    ctx.scale = args.scale;
    ctx.jobs = args.jobs;
    if (!resolveBackend(args, ctx))
        return 2;
    ctx.progress = &std::cerr;
    ctx.traceDir = args.traceDir;
    ctx.components = args.components;
    report::JsonValue doc =
        runReplayBench(ctx, trace, args.traceReplay);
    const std::string path = args.outDir + "/BENCH_replay.json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "stashbench: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    doc.write(os);
    os << "\n";
    const bool ok = allRunsValidated(doc);
    std::fprintf(stderr, "wrote %s%s\n", path.c_str(),
                 ok ? "" : " (FAILED validation)");
    return ok ? 0 : 1;
}

int
renderMarkdown(const BenchArgs &args)
{
    std::string err;
    if (args.renderMd == "-") {
        if (!renderExperimentsMd(args.outDir, std::cout, err)) {
            std::fprintf(stderr, "stashbench: %s\n", err.c_str());
            return 1;
        }
        return 0;
    }
    std::ofstream os(args.renderMd);
    if (!os) {
        std::fprintf(stderr, "stashbench: cannot write %s\n",
                     args.renderMd.c_str());
        return 1;
    }
    if (!renderExperimentsMd(args.outDir, os, err)) {
        std::fprintf(stderr, "stashbench: %s\n", err.c_str());
        return 1;
    }
    std::fprintf(stderr, "rendered %s from %s/BENCH_*.json\n",
                 args.renderMd.c_str(), args.outDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    std::string err;
    if (!BenchArgs::parse(argc, argv, args, err)) {
        std::fprintf(stderr, "stashbench: %s\n%s", err.c_str(),
                     BenchArgs::usage("stashbench").c_str());
        return 2;
    }
    if (args.help) {
        std::fputs(BenchArgs::usage("stashbench").c_str(), stdout);
        return 0;
    }
    if (args.list) {
        if (args.json) {
            benchInventoryJson().write(std::cout);
            std::cout << "\n";
            return 0;
        }
        return listBenches();
    }
    // Trace flows: --trace-from records a workload (no simulation),
    // --trace-replay parses a trace and either normalizes it into
    // --trace-record or sweeps it into BENCH_replay.json.
    if (!args.traceFrom.empty() && !args.traceReplay.empty()) {
        std::fprintf(stderr,
                     "stashbench: --trace-from and --trace-replay "
                     "are mutually exclusive\n");
        return 2;
    }
    if (!args.traceFrom.empty()) {
        if (args.traceRecord.empty()) {
            std::fprintf(stderr,
                         "stashbench: --trace-from requires "
                         "--trace-record FILE for the output\n");
            return 2;
        }
        return traceFromMain(args);
    }
    if (!args.traceReplay.empty())
        return traceReplayMain(args);
    if (!args.traceRecord.empty()) {
        std::fprintf(stderr,
                     "stashbench: --trace-record needs "
                     "--trace-from NAME or --trace-replay FILE as "
                     "the source\n");
        return 2;
    }
    // --render-md alone renders from existing artifacts; with bench
    // names it refreshes those artifacts first.
    if (!args.renderMd.empty() && args.benches.empty())
        return renderMarkdown(args);

    std::vector<const BenchInfo *> selected;
    if (args.benches.empty()) {
        for (const BenchInfo &b : benchList())
            selected.push_back(&b);
    } else {
        for (const std::string &name : args.benches) {
            const BenchInfo *b = findBench(name);
            if (!b) {
                std::fprintf(stderr,
                             "stashbench: unknown bench '%s' "
                             "(--list shows the choices)\n",
                             name.c_str());
                return 2;
            }
            selected.push_back(b);
        }
    }

    BenchContext ctx;
    ctx.scale = args.scale;
    ctx.jobs = args.jobs;
    if (!resolveBackend(args, ctx))
        return 2;
    ctx.progress = &std::cerr;
    ctx.traceDir = args.traceDir;
    ctx.components = args.components;
    SimperfCollector simperf;
    ctx.simperf = &simperf;
    ctx.stateDir = args.restoreDir;
    ctx.stop = &g_stop;
    std::signal(SIGINT, stopHandler);
    std::signal(SIGTERM, stopHandler);
    if (!ctx.stateDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(ctx.stateDir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "stashbench: cannot use state directory %s: "
                         "%s\n",
                         ctx.stateDir.c_str(), ec.message().c_str());
            return 1;
        }
    }

    SweepOptions sizing;
    sizing.threads = args.jobs;
    const unsigned threads =
        SweepDriver(sizing).threadsFor(unsigned(-1));
    std::fprintf(stderr,
                 "stashbench: %zu bench%s, scale %s, %u sweep "
                 "thread%s\n",
                 selected.size(), selected.size() == 1 ? "" : "es",
                 workloads::scaleName(args.scale), threads,
                 threads == 1 ? "" : "s");

    bool all_ok = true;
    const auto wall_start = std::chrono::steady_clock::now();
    for (const BenchInfo *b : selected) {
        std::fprintf(stderr, "=== %s: %s ===\n", b->name, b->title);
        report::JsonValue doc;
        try {
            doc = b->run(ctx);
        } catch (const StateDirError &e) {
            std::fprintf(stderr, "stashbench: %s\n", e.what());
            return 1;
        }
        if (g_stop.load(std::memory_order_relaxed)) {
            // Interrupted mid-sweep: the document is incomplete, so
            // no artifact is written.  With --restore the state dir
            // already caches every finished run, and rerunning with
            // the same --restore DIR picks the campaign back up.
            if (ctx.stateDir.empty()) {
                std::fprintf(stderr,
                             "stashbench: interrupted during %s; "
                             "nothing was cached (no --restore DIR), "
                             "so a rerun simulates every run again "
                             "(exit %d)\n",
                             b->name, interruptedExitCode);
            } else {
                std::fprintf(stderr,
                             "stashbench: interrupted during %s; "
                             "finished runs are cached in %s — rerun "
                             "with --restore %s to resume (exit %d)\n",
                             b->name, ctx.stateDir.c_str(),
                             ctx.stateDir.c_str(), interruptedExitCode);
            }
            return interruptedExitCode;
        }
        const std::string path =
            args.outDir + "/BENCH_" + b->name + ".json";
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "stashbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        doc.write(os);
        os << "\n";
        const bool ok = allRunsValidated(doc);
        all_ok = all_ok && ok;
        std::fprintf(stderr, "wrote %s%s\n", path.c_str(),
                     ok ? "" : " (FAILED validation)");
    }
    const double wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    // The host-throughput artifact: the only document with wall-clock
    // numbers in it, deliberately separate from the deterministic
    // BENCH_<name>.json files.
    {
        report::JsonValue doc = simperf.toJson(
            workloads::scaleName(args.scale), wall_seconds);
        const std::string path = args.outDir + "/BENCH_simperf.json";
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "stashbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        doc.write(os);
        os << "\n";
        const report::JsonValue *tot = doc.find("totals");
        const double events = tot->find("events")->asNumber();
        const double eps = tot->find("eventsPerSec")->asNumber();
        std::fprintf(stderr,
                     "wrote %s\n"
                     "stashbench: %.0f events in %.2f s host wall "
                     "(%.0f events/sec aggregate)\n",
                     path.c_str(), events, wall_seconds, eps);
    }

    if (!args.renderMd.empty()) {
        const int rc = renderMarkdown(args);
        if (rc != 0)
            return rc;
    }
    if (!all_ok) {
        std::fprintf(stderr,
                     "stashbench: one or more runs failed "
                     "validation\n");
        return 1;
    }
    return 0;
}
