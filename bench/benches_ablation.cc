/**
 * @file
 * The ablation benches: data replication on/off, writeback chunk
 * granularity, stash-map capacity, miss translation latency, and the
 * on-demand sparsity sweep.  Each run object carries its knob in
 * "params" and the bench's discriminating counters in "metrics".
 */

#include "benches.hh"

#include <algorithm>

#include "workloads/kernel_builder.hh"

namespace stashbench
{

namespace
{

report::JsonValue
stashMetrics(const RunRecord &rec)
{
    const StashStats &st = rec.result.stats.stash;
    report::JsonValue m = report::JsonValue::object();
    m["replicationHits"] = double(st.replicationHits);
    m["wordsWrittenBack"] = double(st.wordsWrittenBack);
    m["mapReplacementStalls"] = double(st.mapReplacementStalls);
    return m;
}

/** One (workload, org, machine) row of a config ablation. */
struct AblationRow
{
    const char *workload;
    MemOrg org;
    bool app; //!< the application machine, else the microbenchmark one
};

/**
 * A config ablation: each row runs at each knob value, on its Table 2
 * machine with one SystemConfig field set.
 */
struct ConfigAblation
{
    const char *bench;
    std::vector<AblationRow> rows;
    const char *param; //!< the knob's key under "params"
    const char *label; //!< run label: "<workload>/<label>-<value>"
    std::vector<report::JsonValue> values;
    void (*set)(SystemConfig &, const report::JsonValue &);
    bool stashMetrics; //!< add stashMetrics() under "metrics"
};

report::JsonValue
runConfigAblation(const BenchContext &ctx, const ConfigAblation &a)
{
    report::JsonValue doc =
        benchDoc(ctx, a.bench, findBench(a.bench)->title);
    std::vector<RunSpec> specs;
    for (const AblationRow &row : a.rows) {
        for (const report::JsonValue &v : a.values) {
            RunSpec spec;
            spec.workload = row.workload;
            spec.org = row.org;
            spec.scale = ctx.scale;
            SystemConfig cfg = row.app
                                   ? SystemConfig::applicationDefault()
                                   : SystemConfig::microbenchmarkDefault();
            a.set(cfg, v);
            spec.config = cfg;
            spec.labelOverride =
                std::string(row.workload) + "/" + a.label + "-" +
                (v.isBool() ? (v.asBool() ? "on" : "off")
                            : report::jsonNumberToString(v.asNumber()));
            specs.push_back(std::move(spec));
        }
    }

    std::vector<RunRecord> records =
        sweepSpecs(ctx, a.bench, std::move(specs));
    report::JsonValue runs = report::JsonValue::array();
    for (std::size_t i = 0; i < records.size(); ++i) {
        report::JsonValue run = runToJson(records[i], ctx.components);
        report::JsonValue params = report::JsonValue::object();
        params[a.param] = a.values[i % a.values.size()];
        run["params"] = std::move(params);
        if (a.stashMetrics)
            run["metrics"] = stashMetrics(records[i]);
        runs.push(std::move(run));
    }
    doc["runs"] = std::move(runs);
    return doc;
}

/** The three microbenchmarks the stash's knobs move, on the stash. */
const std::vector<AblationRow> stashMicrobenchmarks = {
    {"Implicit", MemOrg::Stash, false},
    {"On-demand", MemOrg::Stash, false},
    {"Reuse", MemOrg::Stash, false},
};

} // namespace

report::JsonValue
runAblationReplication(const BenchContext &ctx)
{
    return runConfigAblation(
        ctx, {.bench = "ablation_replication",
              .rows = {{"Reuse", MemOrg::Stash, false},
                       {"On-demand", MemOrg::Stash, false},
                       {"LUD", MemOrg::Stash, true},
                       {"SGEMM", MemOrg::Stash, true}},
              .param = "replication",
              .label = "repl",
              .values = {true, false},
              .set = [](SystemConfig &c, const report::JsonValue &v) {
                  c.stashReplicationOpt = v.asBool();
              },
              .stashMetrics = true});
}

report::JsonValue
runAblationChunkGranularity(const BenchContext &ctx)
{
    return runConfigAblation(
        ctx, {.bench = "ablation_chunk_granularity",
              .rows = stashMicrobenchmarks,
              .param = "chunkBytes",
              .label = "chunk",
              .values = {64u, 128u, 256u},
              .set = [](SystemConfig &c, const report::JsonValue &v) {
                  c.stashChunkBytes = unsigned(v.asNumber());
              },
              .stashMetrics = true});
}

report::JsonValue
runAblationStashMapSize(const BenchContext &ctx)
{
    return runConfigAblation(
        ctx, {.bench = "ablation_stash_map_size",
              .rows = {{"Reuse", MemOrg::Stash, false},
                       {"LUD", MemOrg::StashG, true}},
              .param = "mapEntries",
              .label = "entries",
              .values = {16u, 32u, 64u, 128u},
              .set = [](SystemConfig &c, const report::JsonValue &v) {
                  c.stashMapEntries = unsigned(v.asNumber());
              },
              .stashMetrics = true});
}

report::JsonValue
runAblationTranslationLatency(const BenchContext &ctx)
{
    return runConfigAblation(
        ctx, {.bench = "ablation_translation_latency",
              .rows = stashMicrobenchmarks,
              .param = "translationCycles",
              .label = "xl",
              .values = {0u, 5u, 10u, 20u, 40u},
              .set = [](SystemConfig &c, const report::JsonValue &v) {
                  c.stashTranslationCycles = Cycles(v.asNumber());
              },
              .stashMetrics = false});
}

namespace
{

/** On-demand variant touching `density` of 32 lanes per warp. */
Workload
makeSparse(MemOrg org, unsigned density, unsigned n)
{
    // Built here with the same tile layout as the On-demand
    // microbenchmark, varying only the touched-lane density.
    constexpr Addr base = 0x1000'0000;
    constexpr unsigned object_bytes = 64;
    const unsigned tpb = 256;
    const unsigned warps = tpb / 32;
    const unsigned num_tbs = n / tpb;

    Workload wl;
    wl.name = "sparsity";
    wl.init = [=](FunctionalMem &fm) {
        for (unsigned i = 0; i < n; ++i)
            fm.writeWord(base + Addr(i) * object_bytes, i);
    };

    Kernel k;
    k.name = "sparse_update";
    for (unsigned tb = 0; tb < num_tbs; ++tb) {
        TbBuilder b(org, warps);
        TileUse use;
        use.tile.globalBase = base + Addr(tb) * tpb * object_bytes;
        use.tile.fieldSize = wordBytes;
        use.tile.objectSize = object_bytes;
        use.tile.rowSize = tpb;
        use.tile.numStrides = 1;
        const unsigned t = b.addTile(use);
        for (unsigned w = 0; w < warps; ++w) {
            b.compute(w, 1); // the runtime condition
            std::vector<std::uint32_t> elems;
            for (unsigned l = 0; l < density; ++l)
                elems.push_back(w * 32 + (l * 7 + tb) % 32);
            std::sort(elems.begin(), elems.end());
            elems.erase(std::unique(elems.begin(), elems.end()),
                        elems.end());
            b.accessTile(w, t, elems, false);
            b.compute(w, 1, 1);
            b.accessTile(w, t, elems, true);
        }
        k.blocks.push_back(b.build());
    }
    wl.phases.push_back(Phase::gpu(std::move(k)));
    return wl;
}

unsigned
sparsityElements(workloads::Scale scale)
{
    switch (scale) {
      case workloads::Scale::Full:
        return 8192;
      case workloads::Scale::Quick:
        return 2048;
      case workloads::Scale::Smoke:
        return 1024;
    }
    return 8192;
}

} // namespace

report::JsonValue
runAblationSparsitySweep(const BenchContext &ctx)
{
    report::JsonValue doc =
        benchDoc(ctx, "ablation_sparsity_sweep",
                 findBench("ablation_sparsity_sweep")->title);
    const unsigned n = sparsityElements(ctx.scale);
    doc["elements"] = n;

    std::vector<RunSpec> specs;
    std::vector<unsigned> knob;
    for (unsigned density : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (MemOrg org : {MemOrg::Stash, MemOrg::ScratchGD}) {
            RunSpec spec;
            spec.workload = "sparsity";
            spec.org = org;
            spec.scale = ctx.scale;
            spec.make = [org, density,
                         n](const workloads::WorkloadParams &) {
                return makeSparse(org, density, n);
            };
            spec.labelOverride = std::string("density-") +
                                 std::to_string(density) + "/" +
                                 memOrgName(org);
            specs.push_back(std::move(spec));
            knob.push_back(density);
        }
    }

    std::vector<RunRecord> records =
        sweepSpecs(ctx, "ablation_sparsity_sweep", std::move(specs));
    report::JsonValue runs = report::JsonValue::array();
    for (std::size_t i = 0; i < records.size(); ++i) {
        report::JsonValue run = runToJson(records[i], ctx.components);
        report::JsonValue params = report::JsonValue::object();
        params["density"] = knob[i];
        run["params"] = std::move(params);
        runs.push(std::move(run));
    }
    doc["runs"] = std::move(runs);

    report::JsonValue paper = report::JsonValue::object();
    report::JsonValue notes = report::JsonValue::array();
    notes.push("paper reference at 1/32: stash has ~48% lower "
               "traffic and energy than DMA");
    paper["notes"] = std::move(notes);
    doc["paper"] = std::move(paper);
    return doc;
}

} // namespace stashbench
