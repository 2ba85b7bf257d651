/**
 * @file
 * stashtrace v1 parser/writer/replay tests: fixed-point canonical
 * form, strict rejection of malformed input, end-to-end replay of the
 * demo trace, and the record -> replay round trip.
 */

#include <gtest/gtest.h>

#include "driver/system.hh"
#include "workloads/synthetic/synth_workloads.hh"
#include "workloads/synthetic/trace_replay.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace
{

using workloads::demoTrace;
using workloads::makeTraceReplay;
using workloads::parseTrace;
using workloads::traceFromWorkload;
using workloads::traceHash;
using workloads::TraceData;
using workloads::TraceLimits;
using workloads::writeTrace;

TraceData
mustParse(const std::string &text)
{
    TraceData t;
    std::string err;
    EXPECT_TRUE(parseTrace(text, TraceLimits(), t, err)) << err;
    return t;
}

TEST(TraceParse, DemoParsesAndRoundTrips)
{
    TraceData t = mustParse(demoTrace());
    EXPECT_EQ(t.warmup, 1u);
    ASSERT_EQ(t.phases.size(), 3u);
    EXPECT_EQ(t.phases[0].kind, Phase::Kind::Cpu);
    EXPECT_EQ(t.phases[1].kind, Phase::Kind::Gpu);
    EXPECT_EQ(t.phases[1].kernel, "demo_kernel");
    EXPECT_EQ(t.phases[1].perCu.size(), 2u);
    EXPECT_GT(t.records(), 0u);

    // The canonical rendering is a parse/write fixed point.
    const std::string once = writeTrace(t);
    TraceData t2 = mustParse(once);
    EXPECT_EQ(writeTrace(t2), once);
    EXPECT_EQ(traceHash(t2), traceHash(t));
}

struct RejectCase
{
    const char *label;
    const char *text;
    const char *needle; //!< must appear in the error message
};

/** Prints the case label: the default dumps the pointer bytes into
 *  every test name, and those change with each build. */
void
PrintTo(const RejectCase &c, std::ostream *os)
{
    *os << c.label;
}

class TraceRejects : public ::testing::TestWithParam<RejectCase>
{
};

TEST_P(TraceRejects, FailsWithDiagnostic)
{
    TraceData t;
    std::string err;
    EXPECT_FALSE(parseTrace(GetParam().text, TraceLimits(), t, err));
    EXPECT_NE(err.find(GetParam().needle), std::string::npos)
        << "error was: " << err;
}

const RejectCase rejectCases[] = {
    {"MissingHeader", "warmup 1\n", "header"},
    {"BadHeader", "stashtrace v2\n", "header"},
    {"TruncatedRecord",
     "stashtrace v1\nphase gpu k\ncu 0\nendphase\n", "truncated"},
    {"BadOpcode",
     "stashtrace v1\nphase gpu k\ncu 0 prefetch 0x40\nendphase\n",
     "unknown opcode"},
    {"CuOutOfRange",
     "stashtrace v1\nphase gpu k\ncu 15 ld 0x40\nendphase\n",
     "out of range"},
    {"CoreOutOfRange",
     "stashtrace v1\nphase cpu\ncore 1 ld 0x40\nendphase\n",
     "out of range"},
    {"BadNumber",
     "stashtrace v1\nphase gpu k\ncu 0 ld 0x40,zork\nendphase\n",
     "address list"},
    {"OverflowNumber",
     "stashtrace v1\nphase gpu k\n"
     "cu 0 ld 0x123456789abcdef01\nendphase\n",
     "address list"},
    {"UnalignedAddr",
     "stashtrace v1\nphase gpu k\ncu 0 ld 0x41\nendphase\n",
     "word-aligned"},
    {"UnmappedLocal",
     "stashtrace v1\nphase gpu k\ncu 0 lld 0x0\nendphase\n",
     "not covered by any map"},
    {"StoreToRoMap",
     "stashtrace v1\nphase gpu k\n"
     "cu 0 map 0x0 0x1000 64 ro\ncu 0 lst 0x0\nendphase\n",
     "read-only"},
    {"RecordOutsidePhase", "stashtrace v1\ncu 0 ld 0x40\n",
     "outside a gpu phase"},
    {"CoreInGpuPhase",
     "stashtrace v1\nphase gpu k\ncore 0 ld 0x40\nendphase\n",
     "outside a cpu phase"},
    {"NestedPhase",
     "stashtrace v1\nphase gpu k\nphase cpu\nendphase\n", "nested"},
    {"StrayEndphase", "stashtrace v1\nendphase\n",
     "outside a phase"},
    {"UnterminatedPhase", "stashtrace v1\nphase gpu k\n",
     "unterminated"},
    {"StoreMissingValue",
     "stashtrace v1\nphase cpu\ncore 0 st 0x40\nendphase\n",
     "'st' takes"},
    {"MapTooManyMaps",
     "stashtrace v1\nphase gpu k\n"
     "cu 0 map 0x0 0x1000 64 ro\ncu 0 map 0x40 0x1000 64 ro\n"
     "cu 0 map 0x80 0x1000 64 ro\ncu 0 map 0xc0 0x1000 64 ro\n"
     "cu 0 map 0x100 0x1000 64 ro\nendphase\n",
     "more than 4 maps"},
    {"MapUnalignedLocal",
     "stashtrace v1\nphase gpu k\n"
     "cu 0 map 0x4 0x1000 64 ro\nendphase\n", "64-byte"},
    {"MapOverflowsLocal",
     "stashtrace v1\nphase gpu k\n"
     "cu 0 map 0x0 0x1000 32768 rw\nendphase\n", "local space"},
    {"WarmupCoversEverything",
     "stashtrace v1\nwarmup 1\nphase cpu\ncore 0 ld 0x40\n"
     "endphase\n",
     "warmup"},
};

INSTANTIATE_TEST_SUITE_P(Sweep, TraceRejects,
                         ::testing::ValuesIn(rejectCases),
                         [](const auto &info) {
                             return std::string(info.param.label);
                         });

TEST(TraceParse, TooManyLanesRejected)
{
    std::string list;
    for (int i = 0; i < 33; ++i) {
        if (i)
            list += ',';
        list += "0x" + std::to_string(4 * i);
    }
    // Addresses like 0x12 are unaligned; build aligned hex properly.
    list.clear();
    for (int i = 0; i < 33; ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%u", i ? "," : "", 4 * i);
        list += buf;
    }
    const std::string text = "stashtrace v1\nphase gpu k\ncu 0 ld " +
                             list + "\nendphase\n";
    TraceData t;
    std::string err;
    EXPECT_FALSE(parseTrace(text, TraceLimits(), t, err));
    EXPECT_NE(err.find("32 lanes"), std::string::npos) << err;
}

TEST(TraceParse, ErrorsNameTheLine)
{
    TraceData t;
    std::string err;
    EXPECT_FALSE(parseTrace(
        "stashtrace v1\n# comment\nphase gpu k\ncu 0 bogus 1\n",
        TraceLimits(), t, err));
    EXPECT_NE(err.find("line 4"), std::string::npos) << err;
}

class ReplayAllOrgs : public ::testing::TestWithParam<MemOrg>
{
};

TEST_P(ReplayAllOrgs, DemoReplaysValidated)
{
    const MemOrg org = GetParam();
    TraceData t = mustParse(demoTrace());
    Workload wl = makeTraceReplay(t, org);
    EXPECT_EQ(wl.warmupPhases, 1u);
    ASSERT_TRUE(bool(wl.snapshotState));
    ASSERT_TRUE(bool(wl.restoreState));

    SystemConfig cfg = SystemConfig::applicationDefault();
    cfg.memOrg = org;
    System sys(cfg);
    RunResult r = sys.run(wl);
    // The demo's final CPU phase checks every produced value, so a
    // wrong replay surfaces as a validation error here.
    EXPECT_TRUE(r.validated)
        << memOrgName(org)
        << (r.errors.empty() ? "" : (": " + r.errors[0]));
    EXPECT_GT(r.gpuCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReplayAllOrgs,
                         ::testing::Values(MemOrg::Scratch,
                                           MemOrg::ScratchGD,
                                           MemOrg::Cache,
                                           MemOrg::StashG),
                         [](const auto &info) {
                             return std::string(memOrgName(info.param));
                         });

TEST(TraceRecord, RecordedWorkloadRoundTripsAndReplays)
{
    // Record a cache-organization synthetic workload, then check the
    // trace is canonical and replays to completion on the stash.
    workloads::SynthConfig cfg = workloads::scaledSynthConfig(
        {MemOrg::Cache, 1, workloads::Scale::Smoke});
    Workload src = workloads::makeSynthMix(cfg);
    const unsigned cus = SystemConfig::applicationDefault().numGpuCus;
    TraceData t = traceFromWorkload(src, cus);
    EXPECT_EQ(t.warmup, src.warmupPhases);
    EXPECT_GT(t.records(), 0u);

    const std::string once = writeTrace(t);
    std::string err;
    TraceData t2;
    ASSERT_TRUE(parseTrace(once, TraceLimits(), t2, err)) << err;
    EXPECT_EQ(writeTrace(t2), once);

    SystemConfig sc = SystemConfig::applicationDefault();
    sc.memOrg = MemOrg::Stash;
    System sys(sc);
    RunResult r = sys.run(makeTraceReplay(t2, MemOrg::Stash));
    // Replay strips value checks (no functional init image), so the
    // run completes with timing but without validation errors.
    EXPECT_TRUE(r.validated)
        << (r.errors.empty() ? "" : r.errors[0]);
    EXPECT_GT(r.gpuCycles, 0u);
}

} // namespace
} // namespace stashsim
