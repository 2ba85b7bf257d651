/**
 * @file
 * End-to-end resume parity: a run that checkpoints, dies, and is
 * restored into a fresh System must finish with results
 * byte-identical to an uninterrupted run — every stats counter, the
 * energy breakdown, the deterministic SimPerf counters, and the final
 * memory image.  Also covered: the verify instruments staying armed
 * across the restore boundary, and the rejection diagnostics for
 * mismatched configurations and workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/run.hh"
#include "mem/backend/mem_backend.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{
namespace
{

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const std::string d = ::testing::TempDir() + name;
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
}

/** (tick, path) of every checkpoint in @p dir, oldest first. */
std::vector<std::pair<std::uint64_t, std::string>>
checkpointsIn(const std::string &dir)
{
    std::vector<std::pair<std::uint64_t, std::string>> out;
    for (const auto &de : fs::directory_iterator(dir)) {
        const std::string name = de.path().filename().string();
        if (name.rfind("CKPT_", 0) != 0)
            continue;
        const std::size_t at = name.find('@');
        if (at == std::string::npos)
            continue;
        out.emplace_back(
            std::strtoull(name.c_str() + at + 1, nullptr, 10),
            de.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Every deterministic observable of a run, one comparable string. */
std::string
fingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << "validated=" << r.validated
       << " gpuCycles=" << r.gpuCycles
       << " energy=" << r.energy.total()
       << " events=" << r.perf.events
       << " simTicks=" << r.perf.simTicks << "\n";
    for (const auto &[key, value] : r.stats.flatten())
        os << key << "=" << value << "\n";
    return os.str();
}

RunSpec
baseSpec(workloads::Scale scale = workloads::Scale::Smoke)
{
    RunSpec spec;
    spec.workload = "Reuse"; // multi-phase: warmup, kernels, readback
    spec.org = MemOrg::Stash;
    spec.scale = scale;
    return spec;
}

/** Attaches a finish hook capturing the system's end-state image. */
void
captureEndImage(RunSpec &spec, std::vector<std::uint8_t> *out)
{
    spec.finish = [out](System &sys, const RunResult &) {
        SnapshotWriter w;
        sys.saveSnapshot(w);
        *out = w.serialize();
    };
}

TEST(ResumeParityTest, CheckpointingIsObservationallyPure)
{
    const std::string dir = freshDir("ckpt_pure");
    const RunSpec plain = baseSpec();
    RunSpec ckpt = baseSpec();
    ckpt.checkpointEveryTicks = 1; // every eligible phase boundary
    ckpt.checkpointDir = dir;

    const RunResult a = runSpec(plain);
    const RunResult b = runSpec(ckpt);
    ASSERT_TRUE(a.validated);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_FALSE(checkpointsIn(dir).empty())
        << "multi-phase run produced no checkpoints";
}

TEST(ResumeParityTest, RestoredRunFinishesByteIdentical)
{
    for (const workloads::Scale scale :
         {workloads::Scale::Smoke, workloads::Scale::Quick}) {
        const std::string dir = freshDir(
            scale == workloads::Scale::Smoke ? "restore_smoke"
                                             : "restore_quick");
        std::vector<std::uint8_t> refImage;
        RunSpec ref = baseSpec(scale);
        ref.checkpointEveryTicks = 1;
        ref.checkpointDir = dir;
        captureEndImage(ref, &refImage);
        const RunResult full = runSpec(ref);
        ASSERT_TRUE(full.validated);

        const auto ckpts = checkpointsIn(dir);
        ASSERT_FALSE(ckpts.empty());
        // Restore from every checkpoint the run dropped — early and
        // late resume points must both converge to the same end.
        for (const auto &[tick, path] : ckpts) {
            std::vector<std::uint8_t> resImage;
            RunSpec res = baseSpec(scale);
            res.restoreFrom = path;
            captureEndImage(res, &resImage);
            const RunResult resumed = runSpec(res);
            EXPECT_EQ(fingerprint(full), fingerprint(resumed))
                << "restored from tick " << tick;
            // Full end-state identity: memory image, caches, NoC,
            // clocks — the whole serialized system.
            EXPECT_EQ(refImage, resImage)
                << "end-state image diverged restoring from tick "
                << tick;
        }
    }
}

TEST(ResumeParityTest, VerifyInstrumentsStayArmedAcrossRestore)
{
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.memOrg = MemOrg::Stash;
    cfg.verify.protocolChecker = true;
    cfg.verify.watchdog = true;

    const std::string dir = freshDir("restore_verify");
    RunSpec ref = baseSpec();
    ref.config = cfg;
    ref.checkpointEveryTicks = 1;
    ref.checkpointDir = dir;
    const RunResult full = runSpec(ref);
    ASSERT_TRUE(full.validated);

    const auto ckpts = checkpointsIn(dir);
    ASSERT_FALSE(ckpts.empty());
    RunSpec res = baseSpec();
    res.config = cfg;
    res.restoreFrom = ckpts.back().second;
    const RunResult resumed = runSpec(res);
    ASSERT_TRUE(resumed.validated)
        << (resumed.errors.empty() ? "?" : resumed.errors[0]);
    EXPECT_EQ(fingerprint(full), fingerprint(resumed));

    // The checkpoint really carried the checker's golden image.
    SnapshotReader r = SnapshotReader::fromFile(ckpts.back().second);
    EXPECT_TRUE(r.hasSection("checker"));
}

TEST(ResumeParityTest, SyntheticRestoreFromEveryCheckpoint)
{
    // The synthetic generator carries its own snapshot section (spec
    // hash + mt19937_64 stream); restoring any checkpoint of a
    // synthetic run must still converge byte-identically.
    const std::string dir = freshDir("restore_synth");
    RunSpec ref;
    ref.workload = "SynthMix";
    ref.org = MemOrg::Stash;
    ref.scale = workloads::Scale::Smoke;
    ref.checkpointEveryTicks = 1;
    ref.checkpointDir = dir;
    std::vector<std::uint8_t> refImage;
    captureEndImage(ref, &refImage);
    const RunResult full = runSpec(ref);
    ASSERT_TRUE(full.validated)
        << (full.errors.empty() ? "?" : full.errors[0]);

    const auto ckpts = checkpointsIn(dir);
    ASSERT_FALSE(ckpts.empty());
    for (const auto &[tick, path] : ckpts) {
        // The workload section made it into the checkpoint.
        SnapshotReader sr = SnapshotReader::fromFile(path);
        EXPECT_TRUE(sr.hasSection("workload")) << path;

        RunSpec res;
        res.workload = "SynthMix";
        res.org = MemOrg::Stash;
        res.scale = workloads::Scale::Smoke;
        res.restoreFrom = path;
        std::vector<std::uint8_t> resImage;
        captureEndImage(res, &resImage);
        const RunResult resumed = runSpec(res);
        EXPECT_EQ(fingerprint(full), fingerprint(resumed))
            << "restored from tick " << tick;
        EXPECT_EQ(refImage, resImage)
            << "end-state image diverged restoring from tick "
            << tick;
    }
}

TEST(ResumeParityTest, SyntheticScaleMismatchIsRejected)
{
    // A differently-parameterized twin (another scale => another spec
    // hash) must not resume a synthetic checkpoint.
    const std::string dir = freshDir("restore_synth_scale");
    RunSpec ref;
    ref.workload = "GraphGather";
    ref.org = MemOrg::Stash;
    ref.scale = workloads::Scale::Smoke;
    ref.checkpointEveryTicks = 1;
    ref.checkpointDir = dir;
    ASSERT_TRUE(runSpec(ref).validated);
    const auto ckpts = checkpointsIn(dir);
    ASSERT_FALSE(ckpts.empty());

    RunSpec res;
    res.workload = "GraphGather";
    res.org = MemOrg::Stash;
    res.scale = workloads::Scale::Quick;
    res.restoreFrom = ckpts.back().second;
    EXPECT_THROW(runSpec(res), std::runtime_error);
}

TEST(ResumeParityTest, ConfigMismatchIsRejectedWithDiagnostic)
{
    const std::string dir = freshDir("restore_cfg_mismatch");
    RunSpec ref = baseSpec();
    ref.checkpointEveryTicks = 1;
    ref.checkpointDir = dir;
    ASSERT_TRUE(runSpec(ref).validated);
    const auto ckpts = checkpointsIn(dir);
    ASSERT_FALSE(ckpts.empty());
    const std::string ckpt = ckpts.back().second;

    // A checkpoint restores only into the machine that wrote it: a
    // change to any hashed field, GPU side, memory backend or LLC
    // alike, is the one structured fatal naming both hashes.
    const std::vector<std::pair<const char *,
                                std::function<void(SystemConfig &)>>>
        changes = {
            {"l1Bytes", [](SystemConfig &c) { c.l1Bytes *= 2; }},
            {"memOrg", [](SystemConfig &c) { c.memOrg = MemOrg::Cache; }},
            {"memBackend.kind",
             [](SystemConfig &c) {
                 c.memBackend.kind = MemBackendKind::SttMram;
             }},
            {"llcAssoc", [](SystemConfig &c) { c.llcAssoc *= 2; }},
        };
    for (const auto &[field, change] : changes) {
        RunSpec res = baseSpec();
        SystemConfig other = resolveRunConfig(res);
        change(other);
        res.config = other;
        res.org = other.memOrg;
        res.restoreFrom = ckpt;
        std::ostringstream want;
        want << "snapshot configuration hash mismatch: snapshot was "
                "taken with config hash 0x"
             << std::hex << SnapshotReader::fromFile(ckpt).configHash()
             << " but this system's is 0x"
             << snapshotConfigHash(other)
             << " (always-excepted fields: verify)";
        try {
            runSpec(res);
            ADD_FAILURE() << field << ": config-hash mismatch must be "
                                      "fatal";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(want.str()),
                      std::string::npos)
                << field << ": " << e.what();
        }
    }
}

TEST(ResumeParityTest, WorkloadMismatchIsRejectedWithDiagnostic)
{
    const std::string dir = freshDir("restore_wl_mismatch");
    RunSpec ref = baseSpec();
    ref.checkpointEveryTicks = 1;
    ref.checkpointDir = dir;
    ASSERT_TRUE(runSpec(ref).validated);
    const auto ckpts = checkpointsIn(dir);
    ASSERT_FALSE(ckpts.empty());

    RunSpec res = baseSpec();
    res.workload = "Implicit"; // same machine, different workload
    res.restoreFrom = ckpts.back().second;
    try {
        runSpec(res);
        FAIL() << "workload mismatch must be fatal";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("workload"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ResumeParityTest, FixedBackendIsTheDefaultSpelledExplicitly)
{
    // `--backend fixed` is the seed's memory model made explicit: a
    // run selecting it must be indistinguishable from a run that
    // never mentions a backend (the end-to-end CLI analogue is
    // ci.sh's cmp of the BENCH_fig5.json artifacts).
    const RunSpec plain = baseSpec();
    RunSpec fixed = baseSpec();
    fixed.backend = MemBackendKind::Fixed;

    const RunResult a = runSpec(plain);
    ASSERT_TRUE(a.validated);
    EXPECT_EQ(fingerprint(a), fingerprint(runSpec(fixed)));
}

TEST(ResumeParityTest, EveryMemBackendRestoresByteIdentical)
{
    // Each backend's timing state (write queues, DRAM-cache tags,
    // channel clocks) rides in the checkpoint: resuming under any
    // backend must converge to the uninterrupted run's exact end.
    for (const MemBackendInfo &info : memBackendList()) {
        const std::string dir =
            freshDir(std::string("restore_backend_") + info.name);
        std::vector<std::uint8_t> refImage;
        RunSpec ref = baseSpec();
        ref.backend = info.kind;
        ref.checkpointEveryTicks = 1;
        ref.checkpointDir = dir;
        captureEndImage(ref, &refImage);
        const RunResult full = runSpec(ref);
        ASSERT_TRUE(full.validated) << info.name;

        const auto ckpts = checkpointsIn(dir);
        ASSERT_FALSE(ckpts.empty()) << info.name;
        for (const auto &[tick, path] : ckpts) {
            std::vector<std::uint8_t> resImage;
            RunSpec res = baseSpec();
            res.backend = info.kind;
            res.restoreFrom = path;
            captureEndImage(res, &resImage);
            const RunResult resumed = runSpec(res);
            EXPECT_EQ(fingerprint(full), fingerprint(resumed))
                << info.name << ", restored from tick " << tick;
            EXPECT_EQ(refImage, resImage)
                << info.name << ", end-state image diverged "
                << "restoring from tick " << tick;
        }
    }
}

TEST(ResumeParityTest, BackendMismatchIsRejectedWithDiagnostic)
{
    // The backend kind folds into the snapshot config hash: an
    // sttmram checkpoint must not restore under scmcache.
    const std::string dir = freshDir("restore_backend_mismatch");
    RunSpec ref = baseSpec();
    ref.backend = MemBackendKind::SttMram;
    ref.checkpointEveryTicks = 1;
    ref.checkpointDir = dir;
    ASSERT_TRUE(runSpec(ref).validated);
    const auto ckpts = checkpointsIn(dir);
    ASSERT_FALSE(ckpts.empty());

    RunSpec res = baseSpec();
    res.backend = MemBackendKind::ScmCache;
    res.restoreFrom = ckpts.back().second;
    try {
        runSpec(res);
        FAIL() << "backend mismatch must be fatal";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("configuration hash"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ResumeParityTest, FaultInjectedRunRestoresByteIdentical)
{
    // The injector serializes its RNG stream position, FIFO clamps,
    // and fault counters into the "injector" snapshot section, so a
    // restored run replays exactly the perturbations the
    // uninterrupted run would have drawn from that point on.
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.memOrg = MemOrg::Stash;
    cfg.verify.faultInjection = true;
    cfg.verify.faultSeed = 12345;
    cfg.verify.faultDelayPermille = 100;
    cfg.verify.faultDupPermille = 50;

    const std::string dir = freshDir("restore_faults");
    std::vector<std::uint8_t> refImage;
    RunSpec ref = baseSpec();
    ref.config = cfg;
    ref.checkpointEveryTicks = 1;
    ref.checkpointDir = dir;
    captureEndImage(ref, &refImage);
    const RunResult full = runSpec(ref);
    ASSERT_TRUE(full.validated)
        << (full.errors.empty() ? "?" : full.errors[0]);

    const auto ckpts = checkpointsIn(dir);
    ASSERT_FALSE(ckpts.empty());
    SnapshotReader hdr = SnapshotReader::fromFile(ckpts.back().second);
    EXPECT_TRUE(hdr.hasSection("injector"))
        << "fault-injected checkpoint must carry the RNG section";

    for (const auto &[tick, path] : ckpts) {
        std::vector<std::uint8_t> resImage;
        RunSpec res = baseSpec();
        res.config = cfg;
        res.restoreFrom = path;
        captureEndImage(res, &resImage);
        const RunResult resumed = runSpec(res);
        EXPECT_EQ(fingerprint(full), fingerprint(resumed))
            << "restored from tick " << tick;
        EXPECT_EQ(refImage, resImage)
            << "end-state image diverged restoring from tick " << tick;
    }
}

} // namespace
} // namespace stashsim
