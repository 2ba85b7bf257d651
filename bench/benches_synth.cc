/**
 * @file
 * The synthetic-traffic sweep.
 *
 * `synth` asks the paper's question on traffic the paper never ran:
 * the four synthetic kernel shapes (plus read-only-heavy and
 * read-write-heavy re-parameterizations of the SynthMix generator)
 * under ScratchGD, Cache, and Stash.  Cache is the baseline — the
 * synthetic kernels have no hand-tuned scratchpad layout, so the
 * interesting ratios are "what does staging through DMA or the stash
 * buy over just caching".
 */

#include "benches.hh"

#include "workloads/synthetic/synth_workloads.hh"

namespace stashbench
{

namespace
{

using workloads::SynthConfig;

/** One row of the synth grid. */
struct SynthVariant
{
    std::string name;
    /** Factory workload when no knob overrides; else a make(). */
    bool viaFactory = true;
    std::string factoryName;
    unsigned roPct = 0, rwPct = 0; //!< SynthMix overrides
};

std::vector<SynthVariant>
synthGrid()
{
    std::vector<SynthVariant> grid;
    grid.push_back({"SynthMix", true, "SynthMix", 40, 30});
    grid.push_back({"SynthMix-ro70", false, "SynthMix", 70, 15});
    grid.push_back({"SynthMix-rw70", false, "SynthMix", 15, 70});
    grid.push_back({"GraphGather", true, "GraphGather", 0, 0});
    grid.push_back({"AttnScatter", true, "AttnScatter", 0, 0});
    grid.push_back({"Stencil2D", true, "Stencil2D", 0, 0});
    return grid;
}

/** doc["<label>"] = per-workload cycles(cfg)/cycles(base) + average. */
void
addCycleRatios(report::JsonValue &doc,
               const std::vector<RunRecord> &records,
               const std::vector<std::string> &names, MemOrg num,
               MemOrg den, const char *label)
{
    report::JsonValue per = report::JsonValue::object();
    double sum = 0;
    std::size_t n = 0;
    for (const std::string &name : names) {
        double top = 0, bot = 0;
        for (const RunRecord &rec : records) {
            if (rec.spec.workload != name)
                continue;
            if (rec.spec.org == num)
                top = double(rec.result.gpuCycles);
            else if (rec.spec.org == den)
                bot = double(rec.result.gpuCycles);
        }
        if (bot > 0) {
            per[name] = top / bot;
            sum += top / bot;
            ++n;
        }
    }
    if (n > 0)
        per["average"] = sum / double(n);
    doc[label] = std::move(per);
}

} // namespace

report::JsonValue
runSynth(const BenchContext &ctx)
{
    const std::vector<MemOrg> configs = {MemOrg::ScratchGD,
                                         MemOrg::Cache, MemOrg::Stash};
    const std::vector<SynthVariant> grid = synthGrid();
    std::vector<std::string> names;
    for (const SynthVariant &v : grid)
        names.push_back(v.name);

    report::JsonValue doc =
        benchDoc(ctx, "synth", findBench("synth")->title);
    doc["baseline"] = memOrgName(MemOrg::Cache);
    report::JsonValue orgArr = report::JsonValue::array();
    for (MemOrg org : configs)
        orgArr.push(memOrgName(org));
    doc["configs"] = std::move(orgArr);
    report::JsonValue nameArr = report::JsonValue::array();
    for (const std::string &n : names)
        nameArr.push(n);
    doc["workloads"] = std::move(nameArr);

    std::vector<RunSpec> specs;
    std::vector<const SynthVariant *> knob;
    for (const SynthVariant &v : grid) {
        for (MemOrg org : configs) {
            RunSpec spec;
            spec.workload = v.name;
            spec.org = org;
            spec.scale = ctx.scale;
            if (!v.viaFactory) {
                // Re-parameterized generator: the factory only knows
                // the default mix, so build through the maker — and
                // pin the application machine the factory would have
                // chosen (make-specs default to the 1-CU machine).
                const unsigned ro = v.roPct, rw = v.rwPct;
                spec.make =
                    [ro, rw](const workloads::WorkloadParams &p) {
                        SynthConfig cfg =
                            workloads::scaledSynthConfig(p);
                        cfg.mixRoPct = ro;
                        cfg.mixRwPct = rw;
                        return workloads::makeSynthMix(cfg);
                    };
                spec.config = SystemConfig::applicationDefault();
            }
            spec.labelOverride =
                v.name + "/" + memOrgName(org);
            specs.push_back(std::move(spec));
            knob.push_back(&v);
        }
    }

    std::vector<RunRecord> records =
        sweepSpecs(ctx, "synth", std::move(specs));
    report::JsonValue runs = report::JsonValue::array();
    for (std::size_t i = 0; i < records.size(); ++i) {
        report::JsonValue run = runToJson(records[i], ctx.components);
        if (knob[i]->factoryName == "SynthMix") {
            report::JsonValue params = report::JsonValue::object();
            params["roPct"] = double(knob[i]->roPct);
            params["rwPct"] = double(knob[i]->rwPct);
            run["params"] = std::move(params);
        }
        runs.push(std::move(run));
    }
    doc["runs"] = std::move(runs);

    addCycleRatios(doc, records, names, MemOrg::Stash, MemOrg::Cache,
                   "stashOverCacheCycles");
    addCycleRatios(doc, records, names, MemOrg::ScratchGD,
                   MemOrg::Cache, "scratchGDOverCacheCycles");
    return doc;
}

} // namespace stashbench
