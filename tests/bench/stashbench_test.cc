/**
 * @file
 * Schema checks for the stashbench JSON artifacts: fig5 and fig6 run
 * at smoke scale through the exact benchlib code path behind
 * `stashbench --quick`, and the emitted documents are validated
 * field by field after a serialize/parse round trip.  The
 * EXPERIMENTS.md renderer reads such documents back from disk, so
 * seeded mutants of them must render or fail with a message.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "benches.hh"
#include "workloads/workload_factory.hh"

namespace stashbench
{
namespace
{

using report::JsonValue;

JsonValue
runBenchThroughFile(const char *name)
{
    const BenchInfo *bench = findBench(name);
    EXPECT_NE(bench, nullptr);
    BenchContext ctx;
    ctx.scale = workloads::Scale::Smoke;
    JsonValue doc = bench->run(ctx);

    // Round-trip through a file exactly as the CLI writes it.
    const std::string path = ::testing::TempDir() +
                             "/BENCH_test_" + name + ".json";
    {
        std::ofstream os(path);
        doc.write(os);
        os << "\n";
    }
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    JsonValue back;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(ss.str(), back, err)) << err;
    EXPECT_EQ(back.dump(), doc.dump());
    return back;
}

void
checkRunObject(const JsonValue &run)
{
    ASSERT_TRUE(run.isObject());
    ASSERT_NE(run.find("workload"), nullptr);
    ASSERT_NE(run.find("config"), nullptr);
    ASSERT_NE(run.find("label"), nullptr);
    ASSERT_NE(run.find("validated"), nullptr);
    EXPECT_TRUE(run.find("validated")->asBool())
        << run.find("label")->asString();
    ASSERT_NE(run.find("errors"), nullptr);
    EXPECT_TRUE(run.find("errors")->isArray());
    EXPECT_EQ(run.find("errors")->size(), 0u);
    ASSERT_NE(run.find("gpuCycles"), nullptr);
    EXPECT_GT(run.find("gpuCycles")->asNumber(), 0);
    ASSERT_NE(run.find("instructions"), nullptr);
    EXPECT_GT(run.find("instructions")->asNumber(), 0);

    const JsonValue *energy = run.find("energy");
    ASSERT_NE(energy, nullptr);
    double sum = 0;
    for (const char *part : {"gpuCore", "l1", "local", "l2", "noc"}) {
        ASSERT_NE(energy->find(part), nullptr) << part;
        sum += energy->find(part)->asNumber();
    }
    EXPECT_NEAR(energy->find("total")->asNumber(), sum,
                1e-9 * (1 + sum));

    const JsonValue *flits = run.find("flitHops");
    ASSERT_NE(flits, nullptr);
    double fsum = 0;
    for (const char *part : {"read", "write", "writeback"}) {
        ASSERT_NE(flits->find(part), nullptr) << part;
        fsum += flits->find(part)->asNumber();
    }
    EXPECT_EQ(flits->find("total")->asNumber(), fsum);

    // Deterministic SimPerf counters (no host timings in bench docs).
    const JsonValue *perf = run.find("perf");
    ASSERT_NE(perf, nullptr);
    ASSERT_NE(perf->find("events"), nullptr);
    EXPECT_GT(perf->find("events")->asNumber(), 0);
    ASSERT_NE(perf->find("simTicks"), nullptr);
    EXPECT_GT(perf->find("simTicks")->asNumber(), 0);
    EXPECT_EQ(perf->find("hostSeconds"), nullptr);
}

void
checkFigureDoc(const JsonValue &doc, const char *bench,
               std::size_t num_workloads, std::size_t num_configs)
{
    EXPECT_EQ(doc.find("schema")->asString(), "stashsim-bench-v1");
    EXPECT_EQ(doc.find("bench")->asString(), bench);
    EXPECT_FALSE(doc.find("title")->asString().empty());
    EXPECT_EQ(doc.find("scale")->asString(), "smoke");
    EXPECT_EQ(doc.find("baseline")->asString(), "Scratch");

    ASSERT_NE(doc.find("workloads"), nullptr);
    EXPECT_EQ(doc.find("workloads")->size(), num_workloads);
    ASSERT_NE(doc.find("configs"), nullptr);
    EXPECT_EQ(doc.find("configs")->size(), num_configs);

    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_TRUE(runs->isArray());
    ASSERT_EQ(runs->size(), num_workloads * num_configs);
    for (std::size_t i = 0; i < runs->size(); ++i)
        checkRunObject(runs->at(i));
    EXPECT_TRUE(allRunsValidated(doc));

    // Every (workload, config) pair appears exactly once.
    std::set<std::string> labels;
    for (std::size_t i = 0; i < runs->size(); ++i)
        labels.insert(runs->at(i).find("label")->asString());
    EXPECT_EQ(labels.size(), runs->size());
}

TEST(StashbenchSchemaTest, Fig5DocumentIsValid)
{
    checkFigureDoc(runBenchThroughFile("fig5"), "fig5", 4, 4);
}

TEST(StashbenchSchemaTest, Fig6DocumentIsValid)
{
    checkFigureDoc(runBenchThroughFile("fig6"), "fig6", 7, 5);
}

/**
 * --components prints flatten() as each run's `stats` object: exactly
 * its key set, and the same counts as the run's own fields.
 */
TEST(StashbenchSchemaTest, ComponentsPrintFlattenedStatsPerRun)
{
    const BenchInfo *bench = findBench("fig5");
    ASSERT_NE(bench, nullptr);
    BenchContext ctx;
    ctx.scale = workloads::Scale::Smoke;
    ctx.components = true;
    const JsonValue doc = bench->run(ctx);

    std::set<std::string> flattenKeys;
    for (const auto &[key, value] : SystemStats{}.flatten())
        flattenKeys.insert(key);

    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_GT(runs->size(), 0u);
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const JsonValue &run = runs->at(i);
        const std::string label = run.find("label")->asString();
        const JsonValue *stats = run.find("stats");
        ASSERT_NE(stats, nullptr) << label;
        ASSERT_TRUE(stats->isObject()) << label;
        std::set<std::string> keys;
        for (const auto &[key, value] : stats->members())
            keys.insert(key);
        EXPECT_EQ(keys, flattenKeys) << label;
        EXPECT_EQ(stats->find("gpu.instructions")->asNumber(),
                  run.find("instructions")->asNumber())
            << label;
        EXPECT_EQ(stats->find("sim.gpuCycles")->asNumber(),
                  run.find("gpuCycles")->asNumber())
            << label;
        EXPECT_EQ(stats->find("noc.flitHops.total")->asNumber(),
                  run.find("flitHops")->find("total")->asNumber())
            << label;
    }
}

TEST(StashbenchSchemaTest, BenchListHasUniqueNamesAndRunners)
{
    std::set<std::string> names;
    for (const BenchInfo &b : benchList()) {
        EXPECT_NE(b.run, nullptr) << b.name;
        EXPECT_TRUE(names.insert(b.name).second)
            << "duplicate: " << b.name;
    }
    EXPECT_NE(names.count("fig5"), 0u);
    EXPECT_NE(names.count("fig6"), 0u);
    EXPECT_NE(names.count("table3"), 0u);
}

TEST(StashbenchSchemaTest, SimperfCollectorEmitsAggregateDocument)
{
    const BenchInfo *bench = findBench("fig5");
    ASSERT_NE(bench, nullptr);
    SimperfCollector simperf;
    BenchContext ctx;
    ctx.scale = workloads::Scale::Smoke;
    ctx.simperf = &simperf;
    bench->run(ctx);

    const JsonValue doc = simperf.toJson("smoke", 1.5);
    EXPECT_EQ(doc.find("schema")->asString(), "stashsim-simperf-v1");
    EXPECT_EQ(doc.find("scale")->asString(), "smoke");
    EXPECT_EQ(doc.find("wallSeconds")->asNumber(), 1.5);

    const JsonValue *benches = doc.find("benches");
    ASSERT_NE(benches, nullptr);
    ASSERT_TRUE(benches->isArray());
    ASSERT_EQ(benches->size(), 1u);
    const JsonValue &row = benches->at(0);
    EXPECT_EQ(row.find("bench")->asString(), "fig5");
    EXPECT_GT(row.find("runs")->asNumber(), 0);
    EXPECT_GT(row.find("events")->asNumber(), 0);
    EXPECT_GT(row.find("simTicks")->asNumber(), 0);
    EXPECT_GE(row.find("hostSeconds")->asNumber(), 0);
    EXPECT_GE(row.find("eventsPerSec")->asNumber(), 0);

    const JsonValue *totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->find("events")->asNumber(),
              row.find("events")->asNumber());
    EXPECT_EQ(totals->find("runs")->asNumber(),
              row.find("runs")->asNumber());
    EXPECT_GE(totals->find("eventsPerSec")->asNumber(), 0);
    EXPECT_GE(totals->find("ticksPerHostSec")->asNumber(), 0);
}

TEST(StashbenchSchemaTest, SynthDocumentIsValid)
{
    const JsonValue doc = runBenchThroughFile("synth");
    EXPECT_EQ(doc.find("schema")->asString(), "stashsim-bench-v1");
    EXPECT_EQ(doc.find("bench")->asString(), "synth");
    // No hand-tuned scratchpad layout exists for generated traffic,
    // so the synth bench normalizes to Cache, not Scratch.
    EXPECT_EQ(doc.find("baseline")->asString(), "Cache");
    ASSERT_NE(doc.find("workloads"), nullptr);
    ASSERT_EQ(doc.find("workloads")->size(), 6u);
    ASSERT_NE(doc.find("configs"), nullptr);
    ASSERT_EQ(doc.find("configs")->size(), 3u);

    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 18u);
    std::size_t with_params = 0;
    for (std::size_t i = 0; i < runs->size(); ++i) {
        checkRunObject(runs->at(i));
        const JsonValue *params = runs->at(i).find("params");
        if (!params)
            continue;
        ++with_params;
        EXPECT_NE(params->find("roPct"), nullptr);
        EXPECT_NE(params->find("rwPct"), nullptr);
    }
    // The three SynthMix parameterizations x three organizations.
    EXPECT_EQ(with_params, 9u);
    EXPECT_TRUE(allRunsValidated(doc));

    for (const char *label :
         {"stashOverCacheCycles", "scratchGDOverCacheCycles"}) {
        const JsonValue *ratios = doc.find(label);
        ASSERT_NE(ratios, nullptr) << label;
        for (std::size_t i = 0; i < doc.find("workloads")->size();
             ++i) {
            const std::string wl =
                doc.find("workloads")->at(i).asString();
            ASSERT_NE(ratios->find(wl), nullptr) << wl;
            EXPECT_GT(ratios->find(wl)->asNumber(), 0) << wl;
        }
        ASSERT_NE(ratios->find("average"), nullptr) << label;
        EXPECT_GT(ratios->find("average")->asNumber(), 0) << label;
    }
}

TEST(StashbenchSchemaTest, BenchListCarriesScalesAndDescriptions)
{
    for (const BenchInfo &b : benchList()) {
        ASSERT_NE(b.scales, nullptr) << b.name;
        EXPECT_NE(b.scales[0], '\0') << b.name;
        ASSERT_NE(b.desc, nullptr) << b.name;
        EXPECT_NE(b.desc[0], '\0') << b.name;
    }
    // table3 runs no simulation and thus has no scales.
    EXPECT_STREQ(findBench("table3")->scales, "-");
}

TEST(StashbenchSchemaTest, SimperfDocumentRecordsEngineShape)
{
    const BenchInfo *bench = findBench("fig5");
    ASSERT_NE(bench, nullptr);
    SimperfCollector simperf;
    BenchContext ctx;
    ctx.scale = workloads::Scale::Smoke;
    ctx.simperf = &simperf;
    bench->run(ctx);

    const JsonValue doc = simperf.toJson("smoke", 1.0);
    for (const JsonValue *obj :
         {doc.find("totals"), &doc.find("benches")->at(0)}) {
        const JsonValue *shape = obj->find("queueShape");
        ASSERT_NE(shape, nullptr);
        EXPECT_GT(shape->find("peakLiveEvents")->asNumber(), 0);
        EXPECT_GT(shape->find("poolChunks")->asNumber(), 0);
        EXPECT_GT(shape->find("wheelInserts")->asNumber(), 0);
        ASSERT_NE(shape->find("farInserts"), nullptr);
    }
}

TEST(StashbenchSchemaTest, AllRunsValidatedDetectsFailures)
{
    JsonValue doc = JsonValue::object();
    JsonValue runs = JsonValue::array();
    JsonValue good = JsonValue::object();
    good["validated"] = true;
    runs.push(std::move(good));
    doc["runs"] = std::move(runs);
    EXPECT_TRUE(allRunsValidated(doc));

    JsonValue bad = JsonValue::object();
    bad["validated"] = false;
    doc["runs"].push(std::move(bad));
    EXPECT_FALSE(allRunsValidated(doc));
}

TEST(StashbenchStateDirTest, FileNamedLikeABenchIsReportedNotThrownRaw)
{
    // `--restore DIR` keeps fig5's results in DIR/fig5; a plain file
    // there must surface as the sweep's own error, which stashbench
    // prints before exiting 1, not as an escaping filesystem_error.
    const std::string root =
        ::testing::TempDir() + "/stashbench_state_collision";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    std::ofstream(root + "/fig5") << "not a directory\n";

    BenchContext ctx;
    ctx.scale = workloads::Scale::Smoke;
    ctx.stateDir = root;
    try {
        findBench("fig5")->run(ctx);
        ADD_FAILURE() << "fig5 ran over a plain file named fig5";
    } catch (const DirError &e) {
        const std::string what = e.what();
        const std::string prefix =
            "cannot use state directory " + root + "/fig5: ";
        EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
        EXPECT_GT(what.size(), prefix.size()) << "no reason given";
    }
    std::filesystem::remove_all(root);
}

/** Two smoke-scale specs, as a bench builds them. */
std::vector<RunSpec>
smokeSpecs()
{
    std::vector<RunSpec> specs;
    for (MemOrg org : {MemOrg::Scratch, MemOrg::Stash}) {
        RunSpec spec;
        spec.workload = "Implicit";
        spec.org = org;
        spec.scale = workloads::Scale::Smoke;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/**
 * `--trace DIR` creates DIR and its parents and writes one TRACE file
 * per run there; a plain file at DIR is the sweep's own error, which
 * stashbench prints before exiting 1, not a sweep that writes no
 * trace and passes.
 */
TEST(StashbenchDirTest, TraceDirIsCreatedOrReported)
{
    const std::string root = ::testing::TempDir() + "/stashbench_trace";
    std::filesystem::remove_all(root);

    BenchContext ctx;
    ctx.scale = workloads::Scale::Smoke;
    ctx.traceDir = root + "/t/u";
    for (const RunRecord &rec : sweepSpecs(ctx, "dirs", smokeSpecs()))
        EXPECT_TRUE(rec.result.validated) << rec.spec.label();
    ASSERT_TRUE(std::filesystem::is_directory(ctx.traceDir));
    std::set<std::string> files;
    for (const auto &e :
         std::filesystem::directory_iterator(ctx.traceDir))
        files.insert(e.path().filename().string());
    EXPECT_EQ(files, (std::set<std::string>{
                         "TRACE_dirs_Implicit_Scratch.json",
                         "TRACE_dirs_Implicit_Stash.json"}));

    ctx.traceDir = root + "/plain";
    std::ofstream(ctx.traceDir) << "not a directory\n";
    try {
        sweepSpecs(ctx, "dirs", smokeSpecs());
        ADD_FAILURE() << "traced into a plain file";
    } catch (const DirError &e) {
        const std::string what = e.what();
        const std::string prefix =
            "cannot use trace directory " + ctx.traceDir + ": ";
        EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
        EXPECT_GT(what.size(), prefix.size()) << "no reason given";
    }
    std::filesystem::remove_all(root);
}

/** A trace file that cannot be written fails its run, by name. */
TEST(StashbenchDirTest, UnwritableTraceFileFailsItsRun)
{
    const std::string root =
        ::testing::TempDir() + "/stashbench_trace_unwritable";
    std::filesystem::remove_all(root);
    const std::string blocked = root + "/TRACE_dirs_Implicit_Stash.json";
    std::filesystem::create_directories(blocked);

    BenchContext ctx;
    ctx.scale = workloads::Scale::Smoke;
    ctx.traceDir = root;
    const std::vector<RunRecord> records =
        sweepSpecs(ctx, "dirs", smokeSpecs());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].result.validated);
    EXPECT_FALSE(records[1].result.validated);
    EXPECT_EQ(records[1].result.errors,
              std::vector<std::string>{"cannot write trace file " +
                                       blocked});
    std::filesystem::remove_all(root);
}

/** Nodes in @p v's tree, @p v included. */
std::size_t
countNodes(const JsonValue &v)
{
    std::size_t n = 1;
    for (const auto &member : v.members())
        n += countNodes(member.second);
    for (std::size_t i = 0; v.isArray() && i < v.size(); ++i)
        n += countNodes(v.at(i));
    return n;
}

/** A value of another kind than @p v. */
JsonValue
otherKind(const JsonValue &v, std::mt19937_64 &rng)
{
    const JsonValue choices[] = {JsonValue(),       JsonValue(true),
                                 JsonValue(7),      JsonValue("text"),
                                 JsonValue::array(), JsonValue::object()};
    std::size_t i = rng() % std::size(choices);
    if (choices[i].kind() == v.kind())
        i = (i + 1) % std::size(choices);
    return choices[i];
}

/**
 * @p v with its node numbered @p target in preorder (the root is 0,
 * @p index counts the nodes visited) deleted from its object or array
 * when @p drop, else replaced by a value of another kind.
 */
std::vector<JsonValue>
edited(const JsonValue &v, std::size_t &index, std::size_t target,
       bool drop, std::mt19937_64 &rng)
{
    if (index++ == target) {
        if (drop)
            return {};
        return {otherKind(v, rng)};
    }
    if (!v.isObject() && !v.isArray())
        return {v};
    JsonValue out = v.isObject() ? JsonValue::object() : JsonValue::array();
    for (const auto &[key, child] : v.members())
        for (JsonValue &c : edited(child, index, target, drop, rng))
            out[key] = std::move(c);
    for (std::size_t i = 0; v.isArray() && i < v.size(); ++i)
        for (JsonValue &c : edited(v.at(i), index, target, drop, rng))
            out.push(std::move(c));
    return {out};
}

/** @p doc with run @p victim dropped, or duplicated in place. */
JsonValue
withRunEdited(const JsonValue &doc, std::size_t victim, bool duplicate)
{
    const JsonValue &runs = *doc.find("runs");
    JsonValue kept = JsonValue::array();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i != victim || duplicate)
            kept.push(runs.at(i));
        if (i == victim && duplicate)
            kept.push(runs.at(i));
    }
    JsonValue out = doc;
    out["runs"] = std::move(kept);
    return out;
}

/** @p obj without its member @p key. */
JsonValue
without(const JsonValue &obj, const std::string &key)
{
    JsonValue out = JsonValue::object();
    for (const auto &[k, v] : obj.members())
        if (k != key)
            out[k] = v;
    return out;
}

/**
 * The renderer reads BENCH_*.json back from disk, so whatever is in
 * them must render or fail with "BENCH_<name>.json: <what is wrong>",
 * never crash: seeded mutants of clean smoke artifacts delete a
 * member, give a value another kind, or drop or duplicate a run.
 */
TEST(RenderMdTest, SeededMutantsRenderOrFailWithAMessage)
{
    const std::string dir = ::testing::TempDir() + "/render_md_mutants";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::vector<std::string> names = {"table3", "fig5", "fig6",
                                            "memback", "synth"};
    std::map<std::string, std::string> texts;
    BenchContext ctx;
    ctx.scale = workloads::Scale::Smoke;
    for (const std::string &name : names) {
        texts[name] = findBench(name)->run(ctx).dump();
        std::ofstream(dir + "/BENCH_" + name + ".json") << texts[name];
    }
    std::ostringstream clean;
    std::string err;
    ASSERT_TRUE(renderExperimentsMd(dir, clean, err)) << err;
    EXPECT_NE(clean.str().find("## Figure 6"), std::string::npos);

    const auto parsed = [&texts](const std::string &name) {
        JsonValue doc;
        std::string perr;
        EXPECT_TRUE(JsonValue::parse(texts.at(name), doc, perr)) << perr;
        return doc;
    };
    // Renders with @p doc as BENCH_<name>.json, then puts it back.
    const auto render = [&](const std::string &name, const JsonValue &doc,
                            std::string &why) {
        const std::string path = dir + "/BENCH_" + name + ".json";
        std::ofstream(path) << doc.dump();
        std::ostringstream os;
        const bool ok = renderExperimentsMd(dir, os, why);
        std::ofstream(path) << texts.at(name);
        return ok;
    };
    const std::string fig5Path = dir + "/BENCH_fig5.json: ";

    // Inputs that crashed the renderer: run 0 without gpuCycles, no
    // first run, no baseline.
    const JsonValue fig5 = parsed("fig5");
    const JsonValue &runs = *fig5.find("runs");
    JsonValue noCycles = without(fig5, "runs");
    noCycles["runs"] = JsonValue::array();
    noCycles["runs"].push(without(runs.at(0), "gpuCycles"));
    for (std::size_t i = 1; i < runs.size(); ++i)
        noCycles["runs"].push(runs.at(i));
    EXPECT_FALSE(render("fig5", noCycles, err));
    EXPECT_EQ(err, fig5Path + "runs[0].gpuCycles is missing");
    EXPECT_FALSE(render("fig5", withRunEdited(fig5, 0, false), err));
    EXPECT_EQ(err, fig5Path + "no run of workload '" +
                       runs.at(0).find("workload")->asString() +
                       "' under config '" +
                       runs.at(0).find("config")->asString() + "'");
    EXPECT_FALSE(render("fig5", without(fig5, "baseline"), err));
    EXPECT_EQ(err, fig5Path + "baseline is missing");

    std::mt19937_64 rng(20150613);
    unsigned rendered = 0, refused = 0;
    for (unsigned trial = 0; trial < 240; ++trial) {
        const unsigned kind = trial % 4;
        // table3 has no runs to drop or duplicate.
        const std::string &name =
            kind < 2 ? names[rng() % names.size()]
                     : names[1 + rng() % (names.size() - 1)];
        const JsonValue doc = parsed(name);
        JsonValue mutant;
        if (kind < 2) {
            std::size_t index = 0;
            const std::size_t target = 1 + rng() % (countNodes(doc) - 1);
            mutant = edited(doc, index, target, kind == 0, rng).at(0);
        } else {
            const std::size_t victim = rng() % doc.find("runs")->size();
            mutant = withRunEdited(doc, victim, kind == 3);
        }
        std::string why;
        if (render(name, mutant, why)) {
            ++rendered;
            continue;
        }
        ++refused;
        const std::string prefix = dir + "/BENCH_" + name + ".json: ";
        EXPECT_EQ(why.rfind(prefix, 0), 0u) << "trial " << trial << ": "
                                            << why;
        EXPECT_GT(why.size(), prefix.size()) << "trial " << trial;
    }
    // Both outcomes occur: a duplicated run or a deleted paper number
    // still renders.
    EXPECT_GT(rendered, 0u);
    EXPECT_GT(refused, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace stashbench
