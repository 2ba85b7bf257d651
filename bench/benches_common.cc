/**
 * @file
 * Shared bench plumbing: the registry, the document/run JSON
 * builders, and the traced sweep wrapper.
 */

#include "benches.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "mem/backend/mem_backend.hh"
#include "report/trace.hh"

namespace stashbench
{

// Implemented in benches_figs.cc / benches_ablation.cc.
report::JsonValue runTable3(const BenchContext &ctx);
report::JsonValue runFig5(const BenchContext &ctx);
report::JsonValue runFig6(const BenchContext &ctx);
report::JsonValue runAblationReplication(const BenchContext &ctx);
report::JsonValue runAblationChunkGranularity(const BenchContext &ctx);
report::JsonValue runAblationStashMapSize(const BenchContext &ctx);
report::JsonValue runAblationTranslationLatency(const BenchContext &ctx);
report::JsonValue runAblationSparsitySweep(const BenchContext &ctx);
report::JsonValue runMemBackend(const BenchContext &ctx);
report::JsonValue runSynth(const BenchContext &ctx);

const std::vector<BenchInfo> &
benchList()
{
    static const std::vector<BenchInfo> benches = {
        {"table3", "Table 3: per-access energy of the hardware units",
         "-",
         "Static per-access energy of each unit; no simulation runs",
         runTable3},
        {"fig5",
         "Figure 5: microbenchmark comparison (Implicit / Pollution "
         "/ On-demand / Reuse)",
         "smoke quick full",
         "4 microbenchmarks x 6 memory configs on the 1-CU machine",
         runFig5},
        {"fig6",
         "Figure 6: application comparison (7 GPU applications, "
         "15 CUs + 1 CPU)",
         "smoke quick full",
         "7 applications x 6 memory configs on the 15-CU machine",
         runFig6},
        {"ablation_replication",
         "Ablation: stash data-replication optimization (Section 4.5)",
         "smoke quick full",
         "Reuse microbenchmark with the reuseBit optimization on/off",
         runAblationReplication},
        {"ablation_chunk_granularity",
         "Ablation: stash writeback chunk granularity",
         "smoke quick full",
         "Sweeps the stash writeback chunk size (64..256 bytes)",
         runAblationChunkGranularity},
        {"ablation_stash_map_size", "Ablation: stash-map entries",
         "smoke quick full",
         "Sweeps the stash-map capacity against map-reuse pressure",
         runAblationStashMapSize},
        {"ablation_translation_latency",
         "Ablation: stash miss translation latency",
         "smoke quick full",
         "Sweeps the stash TLB/translation miss cost (0..40 cycles)",
         runAblationTranslationLatency},
        {"ablation_sparsity_sweep",
         "Ablation: on-demand sparsity sweep (stash/DMA crossover)",
         "smoke quick full",
         "Sweeps access sparsity to find the stash/DMA crossover",
         runAblationSparsitySweep},
        {"memback",
         "Ablation: memory backend (fixed DRAM / STT-MRAM / SCM "
         "DRAM-cache)",
         "smoke quick full",
         "Table 3 applications x 3 memory backends x "
         "stash/scratch/cache",
         runMemBackend},
        {"synth",
         "Synthetic traffic: generated mixes, graph gather, "
         "attention scatter, 2D stencil",
         "smoke quick full",
         "6 synthetic workload variants x scratchGD/cache/stash on "
         "the 15-CU machine",
         runSynth},
    };
    return benches;
}

void
SimperfCollector::add(const char *bench,
                      const std::vector<RunRecord> &records)
{
    BenchTotals *t = nullptr;
    for (BenchTotals &b : benches) {
        if (b.bench == bench) {
            t = &b;
            break;
        }
    }
    if (!t) {
        benches.emplace_back();
        benches.back().bench = bench;
        t = &benches.back();
    }
    for (const RunRecord &rec : records) {
        const SimPerfSummary &p = rec.result.perf;
        ++t->runs;
        t->events += p.events;
        t->simTicks += p.simTicks;
        t->hostSeconds += p.hostSeconds;
        t->shape.peakLiveEvents = std::max(t->shape.peakLiveEvents,
                                           p.shape.peakLiveEvents);
        t->shape.poolChunks += p.shape.poolChunks;
        t->shape.wheelInserts += p.shape.wheelInserts;
        t->shape.farInserts += p.shape.farInserts;
    }
}

report::JsonValue
SimperfCollector::toJson(const char *scale, double wallSeconds) const
{
    report::JsonValue doc = report::JsonValue::object();
    doc["schema"] = "stashsim-simperf-v1";
    doc["scale"] = scale;
    doc["wallSeconds"] = wallSeconds;

    std::uint64_t runs = 0, events = 0, ticks = 0;
    double host = 0;
    QueueShape shape;
    report::JsonValue arr = report::JsonValue::array();
    for (const BenchTotals &b : benches) {
        report::JsonValue e = report::JsonValue::object();
        e["bench"] = b.bench;
        e["runs"] = double(b.runs);
        e["events"] = double(b.events);
        e["simTicks"] = double(b.simTicks);
        e["hostSeconds"] = b.hostSeconds;
        e["eventsPerSec"] = b.hostSeconds > 0
                                ? double(b.events) / b.hostSeconds
                                : 0.0;
        report::JsonValue q = report::JsonValue::object();
        q["peakLiveEvents"] = double(b.shape.peakLiveEvents);
        q["poolChunks"] = double(b.shape.poolChunks);
        q["wheelInserts"] = double(b.shape.wheelInserts);
        q["farInserts"] = double(b.shape.farInserts);
        e["queueShape"] = std::move(q);
        arr.push(std::move(e));
        runs += b.runs;
        events += b.events;
        ticks += b.simTicks;
        host += b.hostSeconds;
        shape.peakLiveEvents = std::max(shape.peakLiveEvents,
                                        b.shape.peakLiveEvents);
        shape.poolChunks += b.shape.poolChunks;
        shape.wheelInserts += b.shape.wheelInserts;
        shape.farInserts += b.shape.farInserts;
    }
    doc["benches"] = std::move(arr);

    report::JsonValue tot = report::JsonValue::object();
    tot["runs"] = double(runs);
    tot["events"] = double(events);
    tot["simTicks"] = double(ticks);
    tot["hostSeconds"] = host;
    tot["eventsPerSec"] = host > 0 ? double(events) / host : 0.0;
    tot["ticksPerHostSec"] = host > 0 ? double(ticks) / host : 0.0;
    report::JsonValue q = report::JsonValue::object();
    q["peakLiveEvents"] = double(shape.peakLiveEvents);
    q["poolChunks"] = double(shape.poolChunks);
    q["wheelInserts"] = double(shape.wheelInserts);
    q["farInserts"] = double(shape.farInserts);
    tot["queueShape"] = std::move(q);
    doc["totals"] = std::move(tot);

    // Structured recovery counters (sweep.*): this document is the
    // one non-deterministic artifact, so the RESULT cache's bookkeeping
    // belongs here rather than in the byte-reproducible per-bench
    // documents.
    report::JsonValue rec = report::JsonValue::object();
    rec["sweep.cachedRuns"] = double(recovery.cachedRuns);
    rec["sweep.corruptSnapshots"] = double(recovery.corruptSnapshots);
    rec["sweep.staleResults"] = double(recovery.staleResults);
    rec["sweep.quarantinedArtifacts"] =
        double(recovery.quarantinedArtifacts);
    rec["sweep.interrupted"] = recovery.interrupted;
    doc["recovery"] = std::move(rec);
    return doc;
}

report::JsonValue
benchInventoryJson()
{
    report::JsonValue doc = report::JsonValue::object();
    doc["schema"] = "stashsim-benchlist-v1";
    report::JsonValue arr = report::JsonValue::array();
    for (const BenchInfo &b : benchList()) {
        report::JsonValue e = report::JsonValue::object();
        e["name"] = b.name;
        e["title"] = b.title;
        e["description"] = b.desc;
        report::JsonValue scales = report::JsonValue::array();
        // "-" marks a scale-independent bench: empty list.
        if (std::string(b.scales) != "-") {
            std::string word;
            for (const char *p = b.scales;; ++p) {
                if (*p == ' ' || *p == '\0') {
                    if (!word.empty())
                        scales.push(word);
                    word.clear();
                    if (*p == '\0')
                        break;
                } else {
                    word += *p;
                }
            }
        }
        e["scales"] = std::move(scales);
        arr.push(std::move(e));
    }
    doc["benches"] = std::move(arr);
    // The runnable workload inventory (including the synthetic
    // family and the trace-replay frontend), so wrappers can build
    // run grids without scraping --list.
    report::JsonValue wls = report::JsonValue::array();
    for (const auto &info :
         workloads::WorkloadFactory::instance().list()) {
        report::JsonValue e = report::JsonValue::object();
        e["name"] = info.name;
        e["kind"] = info.kindName();
        e["description"] = info.description;
        wls.push(std::move(e));
    }
    doc["workloads"] = std::move(wls);
    report::JsonValue backends = report::JsonValue::array();
    for (const MemBackendInfo &b : memBackendList()) {
        report::JsonValue e = report::JsonValue::object();
        e["name"] = b.name;
        e["description"] = b.desc;
        backends.push(std::move(e));
    }
    doc["backends"] = std::move(backends);
    return doc;
}

const BenchInfo *
findBench(const std::string &name)
{
    for (const BenchInfo &b : benchList()) {
        if (name == b.name)
            return &b;
    }
    return nullptr;
}

bool
allRunsValidated(const report::JsonValue &doc)
{
    const report::JsonValue *runs = doc.find("runs");
    if (!runs || runs->kind() != report::JsonValue::Kind::Array)
        return true;
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const report::JsonValue *v = runs->at(i).find("validated");
        if (v && !v->asBool())
            return false;
    }
    return true;
}

report::JsonValue
benchDoc(const BenchContext &ctx, const char *name, const char *title)
{
    report::JsonValue doc = report::JsonValue::object();
    doc["schema"] = "stashsim-bench-v1";
    doc["bench"] = name;
    doc["title"] = title;
    doc["scale"] = workloads::scaleName(ctx.scale);
    return doc;
}

report::JsonValue
runToJson(const RunRecord &rec, bool components)
{
    const RunResult &r = rec.result;
    report::JsonValue run = report::JsonValue::object();
    run["workload"] = rec.spec.workload;
    run["config"] = memOrgName(rec.spec.org);
    run["label"] = rec.spec.label();
    run["validated"] = r.validated;
    report::JsonValue errors = report::JsonValue::array();
    for (const std::string &e : r.errors)
        errors.push(e);
    run["errors"] = std::move(errors);
    run["gpuCycles"] = double(r.gpuCycles);
    run["instructions"] = double(r.stats.gpu.instructions);

    report::JsonValue energy = report::JsonValue::object();
    energy["gpuCore"] = r.energy.gpuCore;
    energy["l1"] = r.energy.l1;
    energy["local"] = r.energy.local;
    energy["l2"] = r.energy.l2;
    energy["noc"] = r.energy.noc;
    energy["total"] = r.energy.total();
    run["energy"] = std::move(energy);

    report::JsonValue flits = report::JsonValue::object();
    flits["read"] = double(r.stats.noc.flitHops[0]);
    flits["write"] = double(r.stats.noc.flitHops[1]);
    flits["writeback"] = double(r.stats.noc.flitHops[2]);
    flits["total"] = double(r.stats.noc.totalFlitHops());
    run["flitHops"] = std::move(flits);

    // Deterministic SimPerf counters only — host timings would break
    // the artifact's byte-reproducibility (they live in
    // BENCH_simperf.json instead).
    report::JsonValue perf = report::JsonValue::object();
    perf["events"] = double(r.perf.events);
    perf["simTicks"] = double(r.perf.simTicks);
    run["perf"] = std::move(perf);

    if (components) {
        report::JsonValue stats = report::JsonValue::object();
        for (const auto &[key, value] : r.stats.flatten())
            stats[key] = value;
        run["stats"] = std::move(stats);
    }
    return run;
}

namespace
{

std::string
traceFileLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        if (c == '/' || c == ' ')
            c = '_';
    }
    return out;
}

} // namespace

std::vector<RunRecord>
sweepSpecs(const BenchContext &ctx, const char *bench,
           std::vector<RunSpec> specs)
{
    if (!ctx.traceDir.empty()) {
        for (RunSpec &spec : specs) {
            const std::string path = ctx.traceDir + "/TRACE_" +
                                     bench + "_" +
                                     traceFileLabel(spec.label()) +
                                     ".json";
            auto sink =
                std::make_shared<report::ChromeTraceSink>(spec.label());
            spec.instrument = [sink](System &sys) {
                sink->trackCounter("gpu.instructions", [&sys]() {
                    return double(
                        sys.statsSnapshot().gpu.instructions);
                });
                sink->trackCounter("noc.flitHops.total", [&sys]() {
                    return double(
                        sys.statsSnapshot().noc.totalFlitHops());
                });
                sys.eventQueue().addPhaseListener(sink.get());
            };
            spec.finish = [sink, path](System &,
                                       const RunResult &) {
                std::ofstream os(path);
                if (os)
                    sink->writeTo(os);
            };
        }
    }
    for (RunSpec &spec : specs) {
        if (!spec.backend)
            spec.backend = ctx.backend;
    }
    SweepOptions opts;
    opts.threads = ctx.jobs;
    opts.progress = ctx.progress;
    opts.stop = ctx.stop;
    if (!ctx.stateDir.empty()) {
        // Per-bench state subdirectory: different benches run
        // same-labelled specs under different configurations, and the
        // RESULT_ namespaces must not collide across them.
        opts.stateDir = ctx.stateDir + "/" + bench;
        std::error_code ec;
        std::filesystem::create_directories(opts.stateDir, ec);
        if (ec) {
            throw StateDirError("cannot use state directory " +
                                opts.stateDir + ": " + ec.message());
        }
    }
    SweepCounters counters;
    std::vector<RunRecord> records =
        SweepDriver(opts).run(std::move(specs), &counters);
    if (ctx.simperf) {
        ctx.simperf->add(bench, records);
        ctx.simperf->recovery.add(counters);
    }
    return records;
}

} // namespace stashbench
