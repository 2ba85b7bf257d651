/**
 * @file
 * EXPERIMENTS.md renderer: reads the BENCH_*.json artifacts back and
 * regenerates the paper-vs-measured tables, so the document is a
 * projection of the emitted data rather than copied stdout.  The
 * qualitative commentary (deviations, protocol findings) is static
 * prose describing the full-scale runs.
 */

#include "benches.hh"

#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

namespace stashbench
{

namespace
{

using report::JsonValue;

/**
 * runs indexed by (workload, config).  The renderers read only
 * members that loadDoc() checked.
 */
using RunIndex =
    std::map<std::string, std::map<std::string, const JsonValue *>>;

RunIndex
indexRuns(const JsonValue &doc)
{
    RunIndex idx;
    const JsonValue &runs = *doc.find("runs");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonValue &run = runs.at(i);
        idx[run.find("workload")->asString()]
           [run.find("config")->asString()] = &run;
    }
    return idx;
}

double
metric(const JsonValue &run, const char *what)
{
    if (std::string(what) == "gpuCycles")
        return run.find("gpuCycles")->asNumber();
    if (std::string(what) == "instructions")
        return run.find("instructions")->asNumber();
    if (std::string(what) == "energy")
        return run.find("energy")->find("total")->asNumber();
    return run.find("flitHops")->find("total")->asNumber();
}

std::string
fmt(double v, const char *spec = "%.2f")
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

std::vector<std::string>
stringList(const JsonValue &doc, const char *key)
{
    std::vector<std::string> out;
    const JsonValue &arr = *doc.find(key);
    for (std::size_t i = 0; i < arr.size(); ++i)
        out.push_back(arr.at(i).asString());
    return out;
}

double
paperNumber(const JsonValue &doc, const char *group,
            const std::string &key, double fallback = -1)
{
    const JsonValue *p = doc.find("paper");
    if (!p)
        return fallback;
    const JsonValue *g = p->find(group);
    if (!g)
        return fallback;
    const JsonValue *v = g->find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

/**
 * Checks that @p doc has every member of @p shape with the same kind,
 * recursively; an array in @p shape holds the shape of each element.
 * Notes "<path> is missing" or "<path> is not <kind>" in @p err.
 */
bool
conforms(const JsonValue &doc, const JsonValue &shape,
         const std::string &path, std::string &err)
{
    static const char *const kindNames[] = {
        "null", "a boolean", "a number", "a string", "an array",
        "an object"};
    if (doc.kind() != shape.kind()) {
        err = path + " is not " + kindNames[int(shape.kind())];
        return false;
    }
    for (const auto &[key, member] : shape.members()) {
        const std::string at = path.empty() ? key : path + "." + key;
        const JsonValue *v = doc.find(key);
        if (!v) {
            err = at + " is missing";
            return false;
        }
        if (!conforms(*v, member, at, err))
            return false;
    }
    for (std::size_t i = 0; shape.isArray() && i < doc.size(); ++i) {
        if (!conforms(doc.at(i), shape.at(0),
                      path + "[" + std::to_string(i) + "]", err))
            return false;
    }
    return true;
}

/**
 * @{ What each renderer reads, every member with its kind.  The
 * paper's numbers and memback's ratios are optional: one that is
 * missing or not a number renders as "—".
 */
const char *const table3Shape =
    R"({"values": {"scratchpadAccess": 0, "stashHit": 0,
                   "stashMiss": 0, "l1Hit": 0, "l1Miss": 0,
                   "tlbAccess": 0},
        "ratios": {"scratchpadOverL1Hit": 0,
                   "stashMissOverL1Miss": 0}})";
/** A normalized panel's: the lists and every run's metrics. */
const char *const gridShape =
    R"({"scale": "", "baseline": "", "configs": [""],
        "workloads": [""],
        "runs": [{"workload": "", "config": "", "gpuCycles": 0,
                  "instructions": 0, "energy": {"total": 0},
                  "flitHops": {"total": 0}}]})";
const char *const membackShape =
    R"({"workloads": [""], "backends": [""]})";
/** @} */

/**
 * Reads BENCH_<bench>.json from @p dir and checks it against
 * @p shapeText, and a panel's document for a run of each listed
 * workload under each config and the baseline, so that a renderer
 * finds every member it reads.  A failure leaves
 * "<path>: <what is wrong>" in @p err.
 */
bool
loadDoc(const std::string &dir, const std::string &bench,
        const char *shapeText, JsonValue &doc, std::string &err)
{
    const std::string path = dir + "/BENCH_" + bench + ".json";
    std::ifstream is(path);
    if (!is) {
        err = "cannot open " + path +
              " (run stashbench to generate it)";
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    std::string parse_err;
    if (!JsonValue::parse(ss.str(), doc, parse_err)) {
        err = path + ": " + parse_err;
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->asString() != "stashsim-bench-v1") {
        err = path + ": not a stashsim-bench-v1 document";
        return false;
    }
    JsonValue shape;
    std::string what;
    JsonValue::parse(shapeText, shape, what);
    if (!conforms(doc, shape, "", what)) {
        err = path + ": " + what;
        return false;
    }
    if (!shape.find("runs"))
        return true;
    const RunIndex idx = indexRuns(doc);
    std::vector<std::string> configs = stringList(doc, "configs");
    configs.push_back(doc.find("baseline")->asString());
    for (const std::string &wl : stringList(doc, "workloads")) {
        const auto per = idx.find(wl);
        for (const std::string &c : configs) {
            if (per == idx.end() || !per->second.count(c)) {
                err = path + ": no run of workload '" + wl +
                      "' under config '" + c + "'";
                return false;
            }
        }
    }
    return true;
}

/**
 * One normalized panel: workloads x non-baseline configs, each cell
 * metric(run)/metric(baseline run), plus a per-config average row.
 * @p paperGroup (may be null) adds a trailing paper column from the
 * document's reference numbers.
 */
void
renderNormalizedPanel(std::ostream &os, const JsonValue &doc,
                      const RunIndex &idx, const char *what,
                      const char *paperGroup, const char *paperLabel)
{
    const std::string baseline = doc.find("baseline")->asString();
    const std::vector<std::string> workloads =
        stringList(doc, "workloads");
    std::vector<std::string> configs;
    for (const std::string &c : stringList(doc, "configs")) {
        if (c != baseline)
            configs.push_back(c);
    }

    os << "| |";
    for (const std::string &c : configs)
        os << " " << c << " |";
    if (paperGroup)
        os << " " << paperLabel << " |";
    os << "\n|---|";
    for (std::size_t i = 0; i < configs.size(); ++i)
        os << "---|";
    if (paperGroup)
        os << "---|";
    os << "\n";

    std::map<std::string, double> sums;
    for (const std::string &wl : workloads) {
        const auto &per = idx.at(wl);
        const double base = metric(*per.at(baseline), what);
        os << "| " << wl << " |";
        for (const std::string &c : configs) {
            const double v = metric(*per.at(c), what) / base;
            sums[c] += v;
            os << " " << fmt(v) << " |";
        }
        if (paperGroup) {
            const double pv = paperNumber(doc, paperGroup, wl);
            os << " " << (pv >= 0 ? fmt(pv) : std::string("—"))
               << " |";
        }
        os << "\n";
    }
    os << "| **average** |";
    for (const std::string &c : configs)
        os << " **" << fmt(sums[c] / double(workloads.size()))
           << "** |";
    if (paperGroup) {
        const double pv = paperNumber(doc, paperGroup, "average");
        os << " " << (pv >= 0 ? fmt(pv) : std::string("—")) << " |";
    }
    os << "\n";
}

/** fig6-style panel: paper averages as a final row, not a column. */
void
renderPanelWithPaperAvgRow(std::ostream &os, const JsonValue &doc,
                           const RunIndex &idx, const char *what,
                           const char *paperGroup)
{
    renderNormalizedPanel(os, doc, idx, what, nullptr, nullptr);
    const std::string baseline = doc.find("baseline")->asString();
    os << "| paper avg |";
    for (const std::string &c : stringList(doc, "configs")) {
        if (c == baseline)
            continue;
        const double pv = paperNumber(doc, paperGroup, c);
        os << " " << (pv >= 0 ? fmt(pv) : std::string("—")) << " |";
    }
    os << "\n";
}

void
renderTable3(std::ostream &os, const JsonValue &doc)
{
    const JsonValue &v = *doc.find("values");
    const JsonValue &r = *doc.find("ratios");
    auto pj = [&](const char *key) {
        return fmt(v.find(key)->asNumber(), "%.1f");
    };
    os << "## Table 3 — per-access energy "
          "(`stashbench table3`)\n\n"
       << "| Unit | paper hit / miss | measured (model constants) "
          "|\n|---|---|---|\n"
       << "| Scratchpad | 55.3 pJ / – | " << pj("scratchpadAccess")
       << " pJ / – |\n"
       << "| Stash | 55.4 pJ / 86.8 pJ | " << pj("stashHit")
       << " pJ / " << pj("stashMiss") << " pJ |\n"
       << "| L1 cache | 177 pJ / 197 pJ | " << pj("l1Hit") << " pJ / "
       << pj("l1Miss") << " pJ |\n"
       << "| TLB access | 14.1 pJ | " << pj("tlbAccess") << " pJ |\n\n"
       << "The local-structure energies are the paper's own values, "
          "used directly\nby the energy model; the derived ratios "
          "the paper highlights\n(scratchpad = "
       << fmt(100 * r.find("scratchpadOverL1Hit")->asNumber(), "%.0f")
       << "% of an L1 hit; stash miss = "
       << fmt(100 * r.find("stashMissOverL1Miss")->asNumber(), "%.0f")
       << "% of an L1 miss; stash\nhit ≈ scratchpad) are computed "
          "from the emitted constants and match the\npaper's 29% / "
          "41%. Three constants the paper does not give numerically "
          "(GPU\ncore+ per instruction and per CU-cycle, L2 per "
          "access, NoC per flit-hop)\nare calibrated **once, "
          "globally** — identical across all configurations —\nso "
          "every relative result below is driven purely by counted "
          "events.\n\n";
}

void
renderFig5(std::ostream &os, const JsonValue &doc)
{
    const RunIndex idx = indexRuns(doc);
    os << "## Figure 5 — microbenchmarks (`stashbench fig5`)\n\n"
          "Configurations: Scratch / ScratchGD (scratchpad + "
          "D²MA-style DMA) /\nCache / Stash; 1 GPU CU + 15 CPU cores "
          "(Table 2). All values normalized to\nScratch.\n\n";

    os << "### 5(a) execution time (normalized to Scratch)\n\n";
    renderNormalizedPanel(os, doc, idx, "gpuCycles", "timeStash",
                          "paper (Stash)");
    os << "\nPaper averages: stash −13% vs Scratch, −27% vs Cache, "
          "−14% vs\nScratchGD. Measured: stash wins everywhere with "
          "the same per-benchmark\nmechanisms, but with larger "
          "margins for On-demand and Reuse — see\n*Deviations* "
          "below.\n\n";

    os << "### 5(b) dynamic energy (normalized to Scratch)\n\n";
    renderNormalizedPanel(os, doc, idx, "energy", "energyStash",
                          "paper (Stash)");
    os << "\nThe five-way breakdown (GPU core+ / L1 / scratch-stash "
          "/ L2 / N/W) is in\nevery run's `energy` object in "
          "`BENCH_fig5.json`.\n\n";

    os << "### 5(c) GPU instruction count (normalized to "
          "Scratch)\n\n";
    renderNormalizedPanel(os, doc, idx, "instructions", nullptr,
                          nullptr);
    os << "\nThe Implicit ratio is the paper's headline instruction "
          "claim (\"40%\nfewer\" for Stash); the extra measured "
          "reduction comes from barrier and\nAddMap accounting "
          "differences.\n\n";

    os << "### 5(d) network traffic, flit crossings (normalized to "
          "Scratch)\n\n";
    renderNormalizedPanel(os, doc, idx, "flits", nullptr, nullptr);
    os << "\nPaper: On-demand Stash ≈ 0.52 × DMA (−48%); Reuse ≈ "
          "0.17 × DMA (−83%).\nThe read/write/writeback split is in "
          "every run's `flitHops` object; the\npaper's qualitative "
          "observations reproduce: in Pollution the stash\ncarries "
          "*more* write-class traffic than DMA (registration "
          "requests)\nwhile DMA only issues writebacks, and in Reuse "
          "the stash's writeback\ntraffic is zero (fully lazy, data "
          "reused in place).\n\n";
}

void
renderFig6(std::ostream &os, const JsonValue &doc)
{
    const RunIndex idx = indexRuns(doc);
    os << "## Figure 6 — applications (`stashbench fig6`)\n\n"
          "Configurations: Scratch / ScratchG / Cache / Stash / "
          "StashG; 15 GPU\nCUs + 1 CPU core; paper input sizes (LUD "
          "256², BP 32 KB, NW 512²,\nPF 10×~100K, SGEMM 128×96×160, "
          "Stencil 128×128×4 ×4, SURF 66 KB).\n\n";

    os << "### 6(a) execution time (normalized to Scratch)\n\n";
    renderPanelWithPaperAvgRow(os, doc, idx, "gpuCycles", "timeAvg");
    os << "\nPaper: StashG −10% (max −22%). ScratchG is worse than "
          "Scratch in both\n(paper +7%) for the paper's stated "
          "reason: converted reuse-free global\naccesses just add "
          "instructions. Stash→StashG improves SGEMM the most\n(the "
          "converted A/C accesses), matching the paper's \"index "
          "computations\nmove into the stash-map\" effect.\n\n";

    os << "### 6(b) dynamic energy (normalized to Scratch)\n\n";
    renderPanelWithPaperAvgRow(os, doc, idx, "energy", "energyAvg");
    os << "\nScratchG matches the paper closely; StashG's advantage "
          "is larger than\nthe paper's (vs 0.84) and Cache lands "
          "below the paper's 1.18 — see\n*Deviations*.\n\n";
}

void
renderAblations(std::ostream &os)
{
    os << "## Ablations (design choices called out by the paper)\n\n"
          "Each `stashbench ablation_*` bench emits its sweep as "
          "`BENCH_<name>.json`\n(knobs under `params`, "
          "discriminating counters under `metrics`).\nFindings from "
          "the full-scale runs:\n\n"
          "| Bench | Finding (full-scale runs) |\n|---|---|\n"
          "| `ablation_replication` | Turning off the §4.5 reuseBit "
          "optimization costs Reuse 2.5× cycles and 2.4× traffic; "
          "LUD loses its ~9k replication hits. |\n"
          "| `ablation_stash_map_size` | 16/32 entries force "
          "blocking replacement writebacks (≥96 stalls) and destroy "
          "cross-kernel reuse (Reuse: 2.6× cycles); 64 (the paper's "
          "size) suffices, 128 adds nothing. |\n"
          "| `ablation_chunk_granularity` | 64→256 B chunks change "
          "nothing when writes are dense (per-word coherence state "
          "bounds the writeback imprecision); the state-bit overhead "
          "argument of §4.4 decides. |\n"
          "| `ablation_translation_latency` | 0→40-cycle miss "
          "translation moves Implicit by 11% and Reuse by ~0% — "
          "translation is off the hit path, exactly the design's "
          "premise. |\n"
          "| `ablation_sparsity_sweep` | Stash traffic scales "
          "linearly with touched data; DMA is flat. Crossover at "
          "full density (32/32), stash = 0.02× DMA traffic at "
          "1/32. |\n\n";
}

void
renderMemBackend(std::ostream &os, const JsonValue &doc)
{
    const std::vector<std::string> workloads =
        stringList(doc, "workloads");
    const std::vector<std::string> backends =
        stringList(doc, "backends");
    const JsonValue *ratios = doc.find("stashOverScratchCycles");

    os << "## Memory-backend ablation (`stashbench memback`)\n\n"
          "The paper evaluates over a flat 168-cycle DRAM. The "
          "`--backend` flag\nswaps the backing store behind the LLC "
          "(see `src/mem/backend/`):\n`sttmram` models asymmetric "
          "read/write latency with write-pausing,\n`scmcache` a "
          "set-associative DRAM cache in front of slow SCM with\n"
          "bandwidth-aware queuing. Stash execution time over "
          "Scratch, per\nbackend:\n\n";

    os << "| |";
    for (const std::string &b : backends)
        os << " " << b << " |";
    os << "\n|---|";
    for (std::size_t i = 0; i < backends.size(); ++i)
        os << "---|";
    os << "\n";
    auto cell = [&](const std::string &b, const std::string &key) {
        const JsonValue *per = ratios ? ratios->find(b) : nullptr;
        const JsonValue *v = per ? per->find(key) : nullptr;
        return v && v->isNumber() ? fmt(v->asNumber())
                                  : std::string("—");
    };
    for (const std::string &wl : workloads) {
        os << "| " << wl << " |";
        for (const std::string &b : backends)
            os << " " << cell(b, wl) << " |";
        os << "\n";
    }
    os << "| **average** |";
    for (const std::string &b : backends)
        os << " **" << cell(b, "average") << "** |";
    os << "\n";

    os << "\nThe stash-vs-scratch comparison is robust to the memory "
          "model: the\nstash's wins and losses track its miss/"
          "writeback stream, which the\nbackends price differently "
          "but never re-rank dramatically. Per-run\nbackend counters "
          "(write pauses, SCM spills, DRAM-cache hit rate) are\nin "
          "`BENCH_memback.json` under `metrics`.\n\n";
}

void
renderSynth(std::ostream &os, const JsonValue &doc)
{
    const RunIndex idx = indexRuns(doc);
    os << "## Synthetic traffic (`stashbench synth`)\n\n"
          "Traffic the paper never ran, generated rather than "
          "ported: a\nparameterized mix of read-only-shared / "
          "read-write-shared / private\naccesses (`SynthMix`, plus "
          "RO-heavy and RW-heavy re-parameterizations),\nCSR graph "
          "gather, attention-style gather/scatter, and a 2D "
          "stencil.\nNo hand-tuned scratchpad layout exists for "
          "these, so **Cache is the\nbaseline**: the question is "
          "what DMA staging (ScratchGD) or the stash\nbuys over "
          "just caching. Seeded generators (`DESIGN.md` §13) keep "
          "every\nrun byte-deterministic, on any sweep thread.\n\n";

    os << "### Execution time (normalized to Cache)\n\n";
    renderNormalizedPanel(os, doc, idx, "gpuCycles", nullptr,
                          nullptr);
    os << "\n### Dynamic energy (normalized to Cache)\n\n";
    renderNormalizedPanel(os, doc, idx, "energy", nullptr, nullptr);
    os << "\nAt full scale the DMA-staged scratchpad is the "
          "strongest configuration\nthroughout: these generators "
          "re-touch each staged word only a few\ntimes, so bulk "
          "transfer plus cheap scratchpad access amortizes best\n"
          "(the paper's apps, with deeper reuse, are where the stash "
          "overtakes\nit). The stash beats plain caching on the "
          "access mixes and the\nirregular gather — word-granular "
          "on-demand fills avoid the cache's\nline overfetch — but "
          "gives back that margin on the dense staged\nkernels "
          "(attention, stencil), where its serial on-demand miss "
          "path\ncannot match bulk DMA and leaves it at or slightly "
          "above cache. An\nexternally recorded trace replays "
          "through the same three organizations\nwith "
          "`--trace-replay FILE` (`BENCH_replay.json`).\n\n";
}

void
renderStaticTail(std::ostream &os)
{
    os << "## Deviations and their causes\n\n"
          "1. **Our microbenchmark gaps are larger than the "
          "paper's** (e.g.,\n   On-demand time 0.17 vs 0.74). The "
          "four microbenchmarks isolate one\n   mechanism each; how "
          "much that mechanism shows up in *time* depends\n   on how "
          "much other work the kernel does. Our generators carry a\n"
          "   small fixed compute per element, so the isolated "
          "mechanism\n   dominates; the paper's CUDA microbenchmarks "
          "carry full-kernel\n   overheads (launch, addressing, "
          "scheduling) that we model more\n   cheaply. The "
          "*mechanisms* are validated independently: Pollution's\n"
          "   L1 hit-rate recovery, On-demand's 1/32 transfer, "
          "Reuse's zero\n   re-transfer are all asserted by tests "
          "(`tests/workloads/\n   microbench_test.cc`).\n"
          "2. **Cache energy lands below Scratch on average** (apps "
          "vs paper\n   1.18). Two GPUWattch components we do not "
          "model push real cache\n   configurations up: DRAM/L2 "
          "energy amplification for full-line\n   fetches under "
          "thrashing, and the static/constant energy of the\n   "
          "bigger runtime (we model the latter as a per-CU-cycle "
          "term, but\n   conservatively). Where the cache genuinely "
          "thrashes (NW, STENCIL,\n   SURF) our Cache energy does "
          "exceed Scratch, as in the paper.\n"
          "3. **NW/STENCIL Stash time exceeds Scratch by ~6–15%** "
          "(paper ≈ par).\n   Both are "
          "producer-consumer-across-kernels patterns whose per-CU\n"
          "   reuse window exceeds the 16 KB stash at our "
          "thread-block geometry,\n   so the stash re-fetches on "
          "demand (serially, through the 10-cycle\n   translation) "
          "what the scratchpad bulk-preloads. The paper's block\n"
          "   shapes evidently kept more of the window resident.\n"
          "4. **DRAM energy is excluded** (as in the paper's "
          "five-way breakdown)\n   and DRAM traffic does not cross "
          "the mesh; only NoC flit crossings\n   are counted, "
          "matching Figure 5d's definition.\n\n"
          "## Protocol findings (not in the paper)\n\n"
          "Three corner cases surfaced by end-to-end validation, "
          "documented in\n`DESIGN.md` §6 and regression-tested: the "
          "stash-map tail must skip\nentries of still-resident "
          "thread blocks; store registrations must\nenter the memory "
          "system in program order with later lazy writebacks of\n"
          "the same words; and remote-request resolution cannot "
          "trust the\ndirectory's stash-map *index* once the entry "
          "has been recycled — the\nstash resolves by address (our "
          "stand-in for the paper's §4.5\nre-registration rule, "
          "without its traffic).\n";
}

} // namespace

bool
renderExperimentsMd(const std::string &dir, std::ostream &os,
                    std::string &err)
{
    JsonValue table3, fig5, fig6, memback, synth;
    if (!loadDoc(dir, "table3", table3Shape, table3, err) ||
        !loadDoc(dir, "fig5", gridShape, fig5, err) ||
        !loadDoc(dir, "fig6", gridShape, fig6, err) ||
        !loadDoc(dir, "memback", membackShape, memback, err) ||
        !loadDoc(dir, "synth", gridShape, synth, err))
        return false;

    os << "# EXPERIMENTS — paper vs. measured\n\n"
          "Every table and figure of the paper's evaluation (Section "
          "6), the\nbench that regenerates it, and the measured "
          "result next to the\npaper's. All values are normalized to "
          "the `Scratch` configuration\nunless noted. This file is "
          "rendered from the `BENCH_*.json` artifacts;\nregenerate "
          "everything with:\n\n"
          "```sh\ncmake -B build -S . && cmake --build build -j\n"
          "build/bench/stashbench --out .\n"
          "build/bench/stashbench --out . --render-md "
          "EXPERIMENTS.md\n```\n\n"
          "The benches are deterministic: re-running reproduces "
          "these numbers\nexactly (any `--jobs` level included).\n\n";

    const std::string scale = fig5.find("scale")->asString();
    if (scale != "full") {
        os << "> **Note**: rendered from `" << scale
           << "`-scale artifacts; the commentary\n> refers to "
              "full-scale runs.\n\n";
    }

    renderTable3(os, table3);
    renderFig5(os, fig5);
    renderFig6(os, fig6);
    renderAblations(os);
    renderMemBackend(os, memback);
    renderSynth(os, synth);
    renderStaticTail(os);
    return true;
}

} // namespace stashbench
