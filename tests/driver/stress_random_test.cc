/**
 * @file
 * Seeded randomized multi-kernel stress test.
 *
 * Generates a random sequence of GPU kernel phases (stash
 * load/compute/store over random disjoint slices) and CPU phases
 * (random stores plus value-checked loads), tracks a golden image of
 * every access, and runs it with the protocol checker and watchdog
 * enabled — with and without NoC fault injection.  Under injection
 * the runs absorb thousands of deterministic message delays,
 * reorderings, and duplications; the checker must stay green and the
 * final memory must equal the golden image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "driver/system.hh"
#include "verify/fault_injector.hh"
#include "verify/protocol_checker.hh"

namespace stashsim
{
namespace
{

constexpr Addr gbase = 0x800000;
constexpr unsigned numWords = 2048;       // 8 KB of shared data
constexpr unsigned sliceWords = 32;       // line-aligned GPU slices
constexpr unsigned numSlices = numWords / sliceWords;
constexpr unsigned numCpuCores = 4;
constexpr unsigned numPhases = 10;

struct StressOutcome
{
    bool validated = false;
    std::vector<std::string> errors;
    std::uint64_t faults = 0;
    std::uint64_t audits = 0;
};

ThreadBlock
makeSliceBlock(unsigned slice, std::int32_t delta)
{
    ThreadBlock tb;
    tb.localBytes = sliceWords * wordBytes;
    TileSpec t;
    t.globalBase = gbase + Addr(slice) * sliceWords * wordBytes;
    t.fieldSize = wordBytes;
    t.objectSize = wordBytes;
    t.rowSize = sliceWords;
    t.strideSize = 0;
    t.numStrides = 1;
    tb.addMaps.push_back(AddMapOp{0, t});
    tb.warps.resize(1);
    std::vector<Addr> offs;
    for (unsigned l = 0; l < sliceWords; ++l)
        offs.push_back(Addr(l) * wordBytes);
    tb.warps[0].push_back(tb.memOp(OpKind::StashLd, offs, 0));
    tb.warps[0].push_back(computeOp(1, delta));
    tb.warps[0].push_back(tb.storeAccOp(OpKind::StashSt, offs, 0));
    return tb;
}

StressOutcome
runStress(std::uint64_t seed, bool inject)
{
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.memOrg = MemOrg::Stash;
    cfg.numGpuCus = 2;
    cfg.numCpuCores = numCpuCores;
    cfg.verify.protocolChecker = true;
    cfg.verify.watchdog = true;
    if (inject) {
        cfg.verify.faultInjection = true;
        cfg.verify.faultSeed = seed;
        cfg.verify.faultDelayPermille = 300;
        cfg.verify.faultMaxDelayCycles = 300;
        cfg.verify.faultDupPermille = 200;
        cfg.verify.faultDupDelayCycles = 100;
    }
    System sys(cfg);

    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);

    // Golden image, tracked in program order as phases are generated.
    std::vector<std::uint32_t> golden(numWords);
    for (auto &w : golden)
        w = std::uint32_t(rng());
    const std::vector<std::uint32_t> init_image = golden;

    Workload wl;
    wl.name = "stress_random";
    wl.init = [init_image](FunctionalMem &fm) {
        for (unsigned i = 0; i < numWords; ++i)
            fm.writeWord(gbase + Addr(i) * wordBytes, init_image[i]);
    };

    for (unsigned p = 0; p < numPhases; ++p) {
        if (rng() % 2 == 0) {
            // GPU phase: distinct slices keep blocks race-free.
            std::vector<unsigned> slices(numSlices);
            std::iota(slices.begin(), slices.end(), 0u);
            std::shuffle(slices.begin(), slices.end(), rng);
            const unsigned blocks = 2 + unsigned(rng() % 5);
            const std::int32_t delta =
                std::int32_t(rng() % 9) - 4;
            Kernel k;
            k.name = "stress";
            for (unsigned b = 0; b < blocks; ++b) {
                const unsigned s = slices[b];
                k.blocks.push_back(makeSliceBlock(s, delta));
                for (unsigned w = 0; w < sliceWords; ++w) {
                    auto &g = golden[s * sliceWords + w];
                    g = std::uint32_t(std::int64_t(g) + delta);
                }
            }
            wl.phases.push_back(Phase::gpu(std::move(k)));
        } else {
            // CPU phase: each core works a private quarter, so
            // concurrent cores never race.  The cores have no
            // load-store queue and keep several accesses in flight,
            // so a checked load never targets a word its own phase
            // stores *anywhere* — an in-flight load may legally
            // observe a program-order-later store.
            std::vector<std::vector<CpuOp>> work(numCpuCores);
            const unsigned quarter = numWords / numCpuCores;
            for (unsigned c = 0; c < numCpuCores; ++c) {
                struct Pick
                {
                    unsigned q;
                    bool isStore;
                    std::uint32_t v;
                };
                std::vector<Pick> picks;
                std::vector<bool> stored(quarter, false);
                const unsigned ops = 64 + unsigned(rng() % 64);
                for (unsigned o = 0; o < ops; ++o) {
                    const unsigned q = unsigned(rng() % quarter);
                    const bool is_store = rng() % 2;
                    const auto v = std::uint32_t(rng());
                    picks.push_back(Pick{q, is_store, v});
                    if (is_store)
                        stored[q] = true;
                }
                // Loads read pre-phase golden values; stores update
                // golden afterwards, in program order.
                for (const Pick &pk : picks) {
                    const unsigned i = c * quarter + pk.q;
                    const Addr a = gbase + Addr(i) * wordBytes;
                    if (pk.isStore)
                        work[c].push_back(CpuOp{a, true, pk.v});
                    else if (!stored[pk.q])
                        work[c].push_back(
                            CpuOp{a, false, golden[i], true});
                }
                for (const Pick &pk : picks) {
                    if (pk.isStore)
                        golden[c * quarter + pk.q] = pk.v;
                }
            }
            wl.phases.push_back(Phase::cpu(std::move(work)));
        }
    }

    const std::vector<std::uint32_t> final_image = golden;
    wl.validate = [final_image](FunctionalMem &fm,
                                std::vector<std::string> &errors) {
        for (unsigned i = 0; i < numWords; ++i) {
            const Addr a = gbase + Addr(i) * wordBytes;
            if (fm.readWord(a) != final_image[i]) {
                errors.push_back("stress: final image mismatch at word " +
                                 std::to_string(i));
                return false;
            }
        }
        return true;
    };

    StressOutcome out;
    RunResult r = sys.run(std::move(wl));
    out.validated = r.validated;
    out.errors = r.errors;
    out.audits = sys.checker()->auditsRun();
    if (sys.faultInjector())
        out.faults = sys.faultInjector()->faults();
    return out;
}

TEST(StressRandomTest, CleanWithoutFaultInjection)
{
    const StressOutcome out = runStress(1, false);
    EXPECT_TRUE(out.validated)
        << (out.errors.empty() ? "" : out.errors.front());
    EXPECT_EQ(out.faults, 0u);
    EXPECT_GT(out.audits, 0u);
}

TEST(StressRandomTest, GreenUnderThousandsOfInjectedFaults)
{
    std::uint64_t total_faults = 0;
    for (std::uint64_t seed : {1, 2, 3}) {
        const StressOutcome out = runStress(seed, true);
        EXPECT_TRUE(out.validated)
            << "seed " << seed << ": "
            << (out.errors.empty() ? "" : out.errors.front());
        EXPECT_GT(out.faults, 100u) << "seed " << seed;
        total_faults += out.faults;
    }
    // The acceptance bar: >= 1000 injected faults across the seeds,
    // zero checker violations, golden-equal memory everywhere.
    EXPECT_GE(total_faults, 1000u);
}

TEST(StressRandomTest, FaultScheduleIsDeterministicPerSeed)
{
    const StressOutcome a = runStress(2, true);
    const StressOutcome b = runStress(2, true);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.validated, b.validated);
}

} // namespace
} // namespace stashsim
