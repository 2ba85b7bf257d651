/**
 * @file
 * SampleDriver tests (DESIGN.md §17): the delta-token grammar, the
 * warm-once guarantee (one boundary snapshot feeds every fan-out
 * interval), byte-level parity between sampled gpu-group intervals
 * and their uninterrupted unsampled twins, legality of backend/LLC
 * deltas (which carry warm state and cannot promise byte parity),
 * and the structured undeclared-delta rejection — pinned down to the
 * exact diagnostic text, both hash values included.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "driver/sample.hh"
#include "driver/system.hh"
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

/** Matches the diagnostic's logFormat(std::hex, h) rendering. */
std::string
hex(std::uint64_t h)
{
    std::ostringstream os;
    os << "0x" << std::hex << h;
    return os.str();
}

SampleRequest
smokeRequest(const std::string &stateDir, const std::string &deltas)
{
    SampleRequest req;
    req.workload = "Reuse";
    req.org = MemOrg::Stash;
    req.scale = workloads::Scale::Smoke;
    req.stateDir = stateDir;
    req.threads = 1;
    std::string err;
    EXPECT_TRUE(parseSampleDeltas(deltas, req.deltas, err)) << err;
    return req;
}

// ---- token grammar ----------------------------------------------

TEST(SampleDeltaParseTest, GrammarCoversEveryKindAndGroup)
{
    std::vector<SampleDelta> ds;
    std::string err;
    ASSERT_TRUE(parseSampleDeltas(
        "identity,local:32,org:Cache,backend:sttmram,llcassoc:8,"
        "llckb:128,undeclared:org:ScratchGD",
        ds, err))
        << err;
    ASSERT_EQ(ds.size(), 7u);

    EXPECT_EQ(ds[0].kind, "identity");
    EXPECT_EQ(ds[0].mask, 0u);
    EXPECT_TRUE(ds[0].declare);

    EXPECT_EQ(ds[1].kind, "local");
    EXPECT_EQ(ds[1].mask, deltaBit(DeltaGroup::Gpu));
    EXPECT_EQ(ds[2].kind, "org");
    EXPECT_EQ(ds[2].mask, deltaBit(DeltaGroup::Gpu));
    EXPECT_EQ(ds[3].kind, "backend");
    EXPECT_EQ(ds[3].mask, deltaBit(DeltaGroup::MemBackend));
    EXPECT_EQ(ds[4].kind, "llcassoc");
    EXPECT_EQ(ds[4].mask, deltaBit(DeltaGroup::Llc));
    EXPECT_EQ(ds[5].kind, "llckb");
    EXPECT_EQ(ds[5].mask, deltaBit(DeltaGroup::Llc));

    // The undeclared: prefix keeps the change but drops the
    // declaration; the full token is preserved as the name.
    EXPECT_EQ(ds[6].kind, "org");
    EXPECT_EQ(ds[6].name, "undeclared:org:ScratchGD");
    EXPECT_EQ(ds[6].mask, deltaBit(DeltaGroup::Gpu));
    EXPECT_FALSE(ds[6].declare);
}

TEST(SampleDeltaParseTest, MalformedTokensAreRejectedWithAMessage)
{
    SampleDelta d;
    std::vector<SampleDelta> ds;
    std::string err;

    EXPECT_FALSE(parseSampleDelta("bogus:1", d, err));
    EXPECT_NE(err.find("unknown delta kind"), std::string::npos);
    EXPECT_FALSE(parseSampleDelta("org:NoSuchOrg", d, err));
    EXPECT_NE(err.find("unknown memory organization"),
              std::string::npos);
    EXPECT_FALSE(parseSampleDelta("backend:floppy", d, err));
    EXPECT_FALSE(parseSampleDelta("local:abc", d, err));
    EXPECT_FALSE(parseSampleDelta("local:0", d, err));
    EXPECT_FALSE(parseSampleDelta("identity:1", d, err));
    EXPECT_FALSE(parseSampleDeltas("identity,,local:32", ds, err));
    EXPECT_NE(err.find("empty delta token"), std::string::npos);
    EXPECT_FALSE(parseSampleDeltas("", ds, err));
}

// ---- warm-once + parity matrix ----------------------------------

TEST(SampleCampaignTest, GpuDeltasMatchUnsampledTwinsByteForByte)
{
    const std::string dir = freshDir("sample_parity");
    SampleRequest req = smokeRequest(
        dir, "identity,local:32,org:Cache,org:ScratchGD");

    // Warm-once proof: four fan-out intervals, exactly one boundary
    // snapshot built in this whole campaign.
    const std::uint64_t before = boundarySnapshotWrites();
    const SampleOutcome sampled = runSample(req);
    EXPECT_EQ(boundarySnapshotWrites(), before + 1)
        << "every delta must reuse the single warm checkpoint";

    ASSERT_TRUE(sampled.warm.result.validated);
    EXPECT_TRUE(sampled.warm.result.truncated)
        << "the warm stage stops at the measurement boundary";
    ASSERT_EQ(sampled.runs.size(), 4u);
    for (const RunRecord &rec : sampled.runs) {
        EXPECT_TRUE(rec.result.validated) << rec.spec.label();
        EXPECT_TRUE(rec.result.errors.empty()) << rec.spec.label();
    }

    // Provenance: the boundary snapshot IS the warmup boundary.
    EXPECT_EQ(sampled.sampledFrom.phaseCursor,
              sampled.sampledFrom.warmupPhases);
    EXPECT_GT(sampled.sampledFrom.tick, 0u);
    EXPECT_FALSE(sampled.sampledFrom.checkpoint.empty());

    // Unsampled twin: same campaign, every interval run uninterrupted
    // from tick 0.  The warm stage is shared (served from cache — the
    // boundary-snapshot counter must not move), and because every
    // delta here is gpu-group over a CPU-only warmup, the two
    // artifacts must be byte-identical.
    SampleRequest twin = req;
    twin.unsampled = true;
    const SampleOutcome plain = runSample(twin);
    EXPECT_EQ(boundarySnapshotWrites(), before + 1);
    ASSERT_EQ(plain.runs.size(), 4u);
    EXPECT_EQ(sampleToJson(req, sampled).dump(),
              sampleToJson(twin, plain).dump());
}

TEST(SampleCampaignTest, BackendAndLlcDeltasRestoreLegally)
{
    // Backend/LLC deltas change state the warmup already touched, so
    // the contract is legality, not byte parity: the restore takes
    // the declared-delta path and the run completes validated.
    const std::string dir = freshDir("sample_legal");
    SampleRequest req = smokeRequest(
        dir, "backend:sttmram,backend:scmcache,llcassoc:8,llckb:128");
    const SampleOutcome out = runSample(req);
    ASSERT_TRUE(out.warm.result.validated);
    ASSERT_EQ(out.runs.size(), 4u);
    for (const RunRecord &rec : out.runs) {
        EXPECT_TRUE(rec.result.validated) << rec.spec.label();
        EXPECT_TRUE(rec.result.errors.empty()) << rec.spec.label();
        EXPECT_GT(rec.result.gpuCycles, 0u) << rec.spec.label();
    }
}

// ---- rejection + diagnostic format ------------------------------

TEST(SampleCampaignTest, UndeclaredDeltaIsFatalNamingBothHashes)
{
    const std::string dir = freshDir("sample_undeclared");
    SampleRequest req =
        smokeRequest(dir, "identity,undeclared:org:Cache");
    req.maxAttempts = 1;

    const SampleOutcome out = runSample(req);
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_TRUE(out.runs[0].result.validated);
    ASSERT_FALSE(out.runs[1].result.validated);
    ASSERT_FALSE(out.runs[1].result.errors.empty());
    EXPECT_EQ(out.counters.failedSpecs, 1u);

    // Pin the structured diagnostic exactly: prefix with both hash
    // values and the always-excepted fields, then the undeclared
    // group with its full field list.  The restoring system's hash is
    // the base machine with only the org changed — recompute it.
    RunSpec base;
    base.workload = req.workload;
    base.org = req.org;
    base.scale = req.scale;
    SystemConfig deltaCfg = resolveRunConfig(base);
    deltaCfg.memOrg = MemOrg::Cache;

    const std::string expected =
        "snapshot configuration hash mismatch: snapshot was taken "
        "with config hash " +
        hex(out.sampledFrom.configHash) + " but this system's is " +
        hex(snapshotConfigHash(deltaCfg)) +
        " (always-excepted fields: verify); undeclared "
        "config delta in group(s) 'gpu' (" +
        deltaGroupFields(DeltaGroup::Gpu) +
        ") — a sampled restore must declare every changed group";
    const std::string &msg = out.runs[1].result.errors[0];
    EXPECT_NE(msg.find(expected), std::string::npos) << msg;
    EXPECT_NE(msg.find("memOrg"), std::string::npos)
        << "the field list must name the mismatching field";
}

TEST(SampleCampaignTest, EmptyStateDirOrDeltaListIsFatal)
{
    SampleRequest req;
    req.workload = "Reuse";
    req.scale = workloads::Scale::Smoke;
    std::string err;
    ASSERT_TRUE(parseSampleDeltas("identity", req.deltas, err));
    EXPECT_THROW(runSample(req), std::runtime_error)
        << "no state dir";

    req.stateDir = freshDir("sample_fatal");
    req.deltas.clear();
    EXPECT_THROW(runSample(req), std::runtime_error) << "no deltas";
}

} // namespace
} // namespace stashsim
