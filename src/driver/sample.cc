#include "driver/sample.hh"

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "sim/log.hh"

namespace stashsim
{

namespace
{

/** Strict unsigned parse of a whole token; false on any junk. */
bool
parseUnsignedValue(const std::string &s, unsigned &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || v > 0xffffffffull)
        return false;
    out = unsigned(v);
    return true;
}

/** The artifact identity SweepDriver files a spec's state under. */
std::string
runStateLabel(const RunSpec &spec)
{
    return artifactLabel(spec.label()) + "-" +
           workloads::scaleName(spec.scale);
}

std::string
hexHash(std::uint64_t h)
{
    std::ostringstream os;
    os << "0x" << std::hex << h;
    return os.str();
}

report::JsonValue
deltaGroupsJson(DeltaMask mask)
{
    report::JsonValue arr = report::JsonValue::array();
    for (unsigned g = 0; g < numDeltaGroups; ++g) {
        if (mask & deltaBit(DeltaGroup(g)))
            arr.push(deltaGroupName(DeltaGroup(g)));
    }
    return arr;
}

/**
 * The per-run JSON body, mirroring the bench runToJson() field set
 * (bench/benches_common.cc) plus the sampling-specific "delta" and
 * "truncated" fields, so EXPERIMENTS tooling reads both shapes.
 */
report::JsonValue
sampleRunJson(const SampleDelta &d, const RunRecord &rec)
{
    const RunResult &r = rec.result;
    report::JsonValue run = report::JsonValue::object();
    run["delta"] = d.name;
    run["workload"] = rec.spec.workload;
    run["config"] = memOrgName(rec.spec.org);
    run["label"] = rec.spec.label();
    run["validated"] = r.validated;
    run["truncated"] = r.truncated;
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

    report::JsonValue perf = report::JsonValue::object();
    perf["events"] = double(r.perf.events);
    perf["simTicks"] = double(r.perf.simTicks);
    run["perf"] = std::move(perf);
    return run;
}

} // namespace

bool
parseSampleDelta(const std::string &token, SampleDelta &out,
                 std::string &err)
{
    out = SampleDelta{};
    out.name = token;

    std::string body = token;
    const std::string undeclared = "undeclared:";
    if (body.rfind(undeclared, 0) == 0) {
        out.declare = false;
        body = body.substr(undeclared.size());
    }

    std::string kind = body;
    std::string value;
    const std::size_t colon = body.find(':');
    if (colon != std::string::npos) {
        kind = body.substr(0, colon);
        value = body.substr(colon + 1);
    }
    out.kind = kind;

    if (kind == "identity") {
        if (!value.empty()) {
            err = "delta 'identity' takes no value: '" + token + "'";
            return false;
        }
        out.apply = [](RunSpec &) {};
        return true;
    }
    if (kind == "local") {
        unsigned kb = 0;
        if (!parseUnsignedValue(value, kb) || kb == 0) {
            err = "delta '" + token + "': expected local:<kb>";
            return false;
        }
        out.mask = deltaBit(DeltaGroup::Gpu);
        out.apply = [kb](RunSpec &s) {
            s.config->localBytes = kb * 1024;
        };
        return true;
    }
    if (kind == "org") {
        MemOrg org;
        if (!memOrgFromName(value, org)) {
            err = "delta '" + token + "': unknown memory "
                  "organization '" + value + "'";
            return false;
        }
        out.mask = deltaBit(DeltaGroup::Gpu);
        out.apply = [org](RunSpec &s) { s.org = org; };
        return true;
    }
    if (kind == "backend") {
        MemBackendKind bk;
        if (!memBackendFromName(value, bk)) {
            err = "delta '" + token + "': unknown memory backend '" +
                  value + "'";
            return false;
        }
        out.mask = deltaBit(DeltaGroup::MemBackend);
        out.apply = [bk](RunSpec &s) { s.backend = bk; };
        return true;
    }
    if (kind == "llcassoc") {
        unsigned assoc = 0;
        if (!parseUnsignedValue(value, assoc) || assoc == 0) {
            err = "delta '" + token + "': expected llcassoc:<n>";
            return false;
        }
        out.mask = deltaBit(DeltaGroup::Llc);
        out.apply = [assoc](RunSpec &s) {
            s.config->llcAssoc = assoc;
        };
        return true;
    }
    if (kind == "llckb") {
        unsigned kb = 0;
        if (!parseUnsignedValue(value, kb) || kb == 0) {
            err = "delta '" + token + "': expected llckb:<kb>";
            return false;
        }
        out.mask = deltaBit(DeltaGroup::Llc);
        out.apply = [kb](RunSpec &s) {
            s.config->llcBankBytes = kb * 1024;
        };
        return true;
    }
    err = "unknown delta kind '" + kind + "' in '" + token +
          "' (expected identity, local:<kb>, org:<Name>, "
          "backend:<name>, llcassoc:<n>, or llckb:<kb>)";
    return false;
}

bool
parseSampleDeltas(const std::string &list,
                  std::vector<SampleDelta> &out, std::string &err)
{
    out.clear();
    std::string token;
    std::istringstream is(list);
    while (std::getline(is, token, ',')) {
        if (token.empty()) {
            err = "empty delta token in '" + list + "'";
            return false;
        }
        SampleDelta d;
        if (!parseSampleDelta(token, d, err))
            return false;
        out.push_back(std::move(d));
    }
    if (out.empty()) {
        err = "no deltas in '" + list + "'";
        return false;
    }
    return true;
}

SampleOutcome
runSample(const SampleRequest &req)
{
    namespace fs = std::filesystem;

    if (req.stateDir.empty())
        fatal("sample: a state directory is required (the warm "
              "checkpoint and the farm state live there)");
    if (req.deltas.empty())
        fatal("sample: at least one delta is required (use "
              "'identity' for a pure resume check)");
    fs::create_directories(req.stateDir);

    RunSpec base;
    base.workload = req.workload;
    base.org = req.org;
    base.scale = req.scale;
    base.config = req.config;
    base.make = req.make;
    base.energy = req.energy;
    const SystemConfig baseCfg = resolveRunConfig(base);

    // ---- stage 1: warm once to the measurement boundary ----------
    RunSpec warm = base;
    warm.labelOverride = base.label() + "+warm";
    warm.measurePhases = 0;
    const std::string warmState = runStateLabel(warm);
    const std::string warmPath =
        req.stateDir + "/WARM_" + warmState + ".snap";
    warm.boundarySnapshotPath = warmPath;

    if (!fs::exists(warmPath)) {
        // A cached warm RESULT without its WARM snapshot would be
        // served without simulating, and the checkpoint would never
        // be recreated; drop the stale cache so the farm warms again.
        std::error_code ec;
        fs::remove(req.stateDir + "/RESULT_" + warmState + ".snap",
                   ec);
    }

    SweepOptions so;
    so.threads = req.threads;
    so.progress = req.progress;
    so.stateDir = req.stateDir;
    so.checkpointEveryTicks = req.checkpointEveryTicks;
    so.resume = true;
    so.workerId = req.workerId;
    so.leaseTtlMs = req.leaseTtlMs;
    so.maxAttempts = req.maxAttempts;
    so.stop = req.stop;

    SampleOutcome out;
    std::vector<RunRecord> warmRecs =
        SweepDriver(so).run({warm}, &out.counters);
    out.warm = std::move(warmRecs.front());
    if (!out.warm.result.validated ||
        !out.warm.result.errors.empty() || !fs::exists(warmPath)) {
        // Warm failure or interruption: no checkpoint to fan out
        // from.  The caller inspects warm.result (and counters) —
        // an interrupted campaign resumes from the farm state.
        return out;
    }

    // ---- provenance: read back what the fan-out restores from ----
    SnapshotReader sr = SnapshotReader::fromFile(warmPath);
    out.sampledFrom.checkpoint =
        fs::path(warmPath).filename().string();
    out.sampledFrom.workload = sr.workload();
    out.sampledFrom.config = memOrgName(baseCfg.memOrg);
    out.sampledFrom.tick = sr.tick();
    out.sampledFrom.phaseCursor = sr.phaseCursor();
    // A boundary snapshot is taken exactly at the warmup boundary,
    // so its phase cursor IS the warmup phase count.
    out.sampledFrom.warmupPhases = sr.phaseCursor();
    out.sampledFrom.configHash = sr.configHash();
    out.sampledFrom.baseHash = snapshotConfigBaseHash(baseCfg);

    // ---- stage 2: fan the measured intervals out -----------------
    std::vector<RunSpec> specs;
    specs.reserve(req.deltas.size());
    for (const SampleDelta &d : req.deltas) {
        RunSpec s = base;
        s.labelOverride = base.label() + "+" + d.name;
        // Materialize the resolved base configuration so a delta can
        // edit individual fields of the exact machine that warmed.
        s.config = baseCfg;
        d.apply(s);
        s.measurePhases = req.intervalPhases == 0
                              ? runControlAllPhases
                              : req.intervalPhases;
        if (!req.unsampled) {
            s.restoreFrom = warmPath;
            s.restoreDeltas = d.declare ? d.mask : 0;
        }
        if (req.decorate)
            req.decorate(specs.size(), s);
        specs.push_back(std::move(s));
    }

    SweepOptions mo = so;
    // Sampled intervals and their unsampled twins share labels and
    // config hashes; separate state namespaces keep one mode's cached
    // results from ever being served to the other.
    mo.stateDir = req.stateDir +
                  (req.unsampled ? "/measure-unsampled" : "/measure");
    fs::create_directories(mo.stateDir);
    out.runs = SweepDriver(mo).run(std::move(specs), &out.counters);
    return out;
}

report::JsonValue
sampleToJson(const SampleRequest &req, const SampleOutcome &out)
{
    report::JsonValue doc = report::JsonValue::object();
    doc["schema"] = "stashsim-sample-v1";
    doc["bench"] = "sample";
    doc["title"] = "Sampled simulation: measured intervals fanned "
                   "out from one warm checkpoint";
    doc["scale"] = workloads::scaleName(req.scale);
    doc["workload"] = req.workload;
    doc["baseConfig"] = memOrgName(req.org);
    doc["intervalPhases"] = double(req.intervalPhases);

    report::JsonValue prov = report::JsonValue::object();
    prov["checkpoint"] = out.sampledFrom.checkpoint;
    prov["workload"] = out.sampledFrom.workload;
    prov["config"] = out.sampledFrom.config;
    prov["tick"] = double(out.sampledFrom.tick);
    prov["phaseCursor"] = double(out.sampledFrom.phaseCursor);
    prov["warmupPhases"] = double(out.sampledFrom.warmupPhases);
    prov["configHash"] = hexHash(out.sampledFrom.configHash);
    prov["baseHash"] = hexHash(out.sampledFrom.baseHash);
    doc["sampledFrom"] = std::move(prov);

    report::JsonValue deltas = report::JsonValue::array();
    for (const SampleDelta &d : req.deltas) {
        report::JsonValue e = report::JsonValue::object();
        e["name"] = d.name;
        e["kind"] = d.kind;
        e["groups"] = deltaGroupsJson(d.mask);
        e["declared"] = d.declare;
        deltas.push(std::move(e));
    }
    doc["deltas"] = std::move(deltas);

    report::JsonValue runs = report::JsonValue::array();
    for (std::size_t i = 0; i < out.runs.size(); ++i)
        runs.push(sampleRunJson(req.deltas[i], out.runs[i]));
    doc["runs"] = std::move(runs);
    return doc;
}

} // namespace stashsim
