/**
 * @file
 * stashtrace v1 parser/writer/replay tests: fixed-point canonical
 * form, strict rejection of malformed input, end-to-end replay of the
 * demo trace, the record -> replay round trip, and seeded mutants of
 * the demo, a two-map and a recorded trace, each parsed and lowered
 * or rejected with a structured error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <vector>

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
    {"LocalOffsetWrapsPastTheMap",
     "stashtrace v1\nphase gpu k\n"
     "cu 0 map 0x0 0x1000 64 rw\ncu 0 lld 0xfffffffffffffffc\n"
     "endphase\n",
     "not covered by any map"},
    {"LanesSplitAcrossMaps",
     "stashtrace v1\nphase gpu k\n"
     "cu 0 map 0x0 0x1000 64 rw\ncu 0 map 0x40 0x2000 64 rw\n"
     "cu 0 lld 0x3c,0x40\nendphase\n",
     "different maps"},
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

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

/** Numbers at and past the grammar's alignment, range and overflow
 *  edges, plus a few that are not numbers at all. */
const char *const hostileNumbers[] = {
    "0", "1", "3", "0x0", "0x", "-1", "+4", "-0", "64", "65535",
    "65536", "2147483647", "2147483648", "-2147483648", "-2147483649",
    "4294967295", "4294967296", "0xfffffffc", "0x10000000",
    "0xfffffffffffffffc", "18446744073709551615",
    "18446744073709551616", "99999999999999999999999", "16380",
    "16384", "32768", "1e3", "0x1G", "",
};

/** The index of a random GPU lane record (ld/st/lld/lst) in @p lines,
 *  or lines.size() when there is none. */
std::size_t
pickLaneRecord(const std::vector<std::string> &lines,
               std::mt19937_64 &rng)
{
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::istringstream ls(lines[i]);
        std::string cu, id, op;
        ls >> cu >> id >> op;
        if (cu == "cu" &&
            (op == "ld" || op == "st" || op == "lld" || op == "lst"))
            at.push_back(i);
    }
    return at.empty() ? lines.size() : at[rng() % at.size()];
}

/**
 * Seeded mutants of the demo trace, a two-map trace and a recorded
 * quick SynthMix trace: bit flips, truncations, lines spliced from
 * any of them, duplicated and dropped lines, hostile numbers in place
 * of any number, and lane lists grown past 32.  Each mutant must either
 * parse, render to a parse/write fixed point and lower under every
 * organization, or be rejected with the parser's structured error;
 * the ASan/UBSan build checks that neither path reads out of bounds.
 */
TEST(TraceFuzz, SeededMutationsParseAndLowerOrFailWithAnError)
{
    workloads::WorkloadParams p;
    p.org = MemOrg::Cache;
    p.scale = workloads::Scale::Quick;
    const Workload recorded =
        workloads::WorkloadFactory::instance().make("SynthMix", p);
    // Two adjacent maps per CU, so that mutated offsets cross from
    // one map into the next.
    const char *twoMaps = "stashtrace v1\n"
                          "phase gpu two_maps\n"
                          "cu 0 map 0x0 0x10000 64 rw\n"
                          "cu 0 map 0x40 0x20000 64 ro\n"
                          "cu 0 lld 0x38,0x3c\n"
                          "cu 0 lld 0x40,0x44\n"
                          "cu 0 compute 2 1\n"
                          "cu 0 lst 0x0,0x3c\n"
                          "cu 1 map 0x0 0x30000 128 rw\n"
                          "cu 1 lst 0x7c = 3\n"
                          "endphase\n";
    const std::vector<std::vector<std::string>> seeds = {
        splitLines(demoTrace()),
        splitLines(twoMaps),
        splitLines(writeTrace(traceFromWorkload(
            recorded, TraceLimits().maxCus))),
    };
    const MemOrg orgs[] = {MemOrg::Scratch, MemOrg::ScratchG,
                           MemOrg::ScratchGD, MemOrg::Cache,
                           MemOrg::Stash, MemOrg::StashG};

    std::mt19937_64 rng(0x57a5'47ace);
    const auto pick = [&rng](std::size_t n) {
        return std::size_t(rng() % n);
    };
    unsigned accepted = 0, rejected = 0;
    for (int round = 0; round < 1200; ++round) {
        // Mostly the small traces: each mutant of the recorded trace
        // parses and lowers thousands of records.
        const std::size_t seed = round % 8 == 7 ? 2 : round % 2;
        std::vector<std::string> lines = seeds[seed];
        std::string how;
        for (std::size_t m = 1 + pick(3); m > 0; --m) {
            const std::size_t at = pick(lines.size() + 1);
            const unsigned kind = unsigned(pick(7));
            how += " " + std::to_string(kind) + "@" + std::to_string(at);
            switch (kind) {
              case 0: // bit flip
                if (at < lines.size() && !lines[at].empty()) {
                    std::string &l = lines[at];
                    l[pick(l.size())] ^= char(1u << pick(8));
                }
                break;
              case 1: // truncation, possibly mid-line
                if (at < lines.size()) {
                    lines[at].resize(pick(lines[at].size() + 1));
                    lines.resize(at + 1);
                }
                break;
              case 2: { // splice: a suffix of either trace
                const auto &o = seeds[pick(seeds.size())];
                lines.resize(at);
                const std::size_t from = pick(o.size() + 1);
                lines.insert(lines.end(), o.begin() + from,
                             o.begin() + std::min(o.size(), from + 64));
                break;
              }
              case 3: // duplicate a line
                if (!lines.empty()) {
                    const std::string dup = lines[pick(lines.size())];
                    lines.insert(lines.begin() + at, dup);
                }
                break;
              case 4: // drop a line
                if (at < lines.size())
                    lines.erase(lines.begin() + at);
                break;
              case 5: { // a hostile number for any number on a line
                if (at >= lines.size())
                    break;
                std::string &l = lines[at];
                std::vector<std::size_t> starts;
                for (std::size_t i = 0; i < l.size(); ++i) {
                    const bool digit = l[i] >= '0' && l[i] <= '9';
                    if (digit && (i == 0 || l[i - 1] == ' ' ||
                                  l[i - 1] == ','))
                        starts.push_back(i);
                }
                if (starts.empty())
                    break;
                const std::size_t b = starts[pick(starts.size())];
                std::size_t e = b;
                while (e < l.size() && l[e] != ' ' && l[e] != ',')
                    ++e;
                l.replace(b, e - b,
                          hostileNumbers[pick(std::size(hostileNumbers))]);
                break;
              }
              case 6: { // a lane list grown past 32 lanes
                const std::size_t i = pickLaneRecord(lines, rng);
                if (i == lines.size())
                    break;
                std::istringstream ls(lines[i]);
                std::string cu, id, op, list, rest;
                ls >> cu >> id >> op >> list;
                std::getline(ls, rest);
                const std::string first = list.substr(0, list.find(','));
                const std::size_t lanes = 33 + pick(8);
                std::string grown = list;
                for (std::size_t n = 1 + std::ranges::count(list, ',');
                     n < lanes; ++n)
                    grown += "," + first;
                lines[i] = cu + " " + id + " " + op + " " + grown + rest;
                break;
              }
            }
        }
        std::string text;
        for (const std::string &l : lines)
            text += l + "\n";
        const std::string shown = "round " + std::to_string(round) +
                                  " (mutations" + how + ")";

        TraceData t;
        std::string err;
        if (!parseTrace(text, TraceLimits(), t, err)) {
            ++rejected;
            const bool structured = err.rfind("line ", 0) == 0 ||
                                    err.rfind("missing ", 0) == 0 ||
                                    err.rfind("warmup (", 0) == 0;
            EXPECT_TRUE(structured) << shown << ": " << err;
            continue;
        }
        ++accepted;
        const std::string canon = writeTrace(t);
        TraceData again;
        ASSERT_TRUE(parseTrace(canon, TraceLimits(), again, err))
            << shown << ": " << err;
        EXPECT_EQ(writeTrace(again), canon) << shown;
        for (MemOrg org : orgs) {
            try {
                makeTraceReplay(t, org);
            } catch (const std::exception &e) {
                ADD_FAILURE() << shown << ": " << memOrgName(org)
                              << " lowering threw: " << e.what();
            }
        }
    }
    // The mutants exercise both outcomes.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

} // namespace
} // namespace stashsim
