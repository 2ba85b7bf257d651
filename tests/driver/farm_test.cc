/**
 * @file
 * Farm protocol tests (DESIGN.md §12): lease claims race to exactly
 * one winner, stale leases of dead workers are taken over, corrupt
 * artifacts land in QUARANTINE/ instead of being rerun over, the
 * attempt budget quarantines chronically failing specs as FAILED_*,
 * and a sweep drained by two concurrent workers — including one
 * interrupted mid-campaign — finishes with records identical to a
 * serial single-worker sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/farm.hh"
#include "driver/sweep.hh"
#include "workloads/workload_factory.hh"

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

farm::FarmConfig
workerCfg(const std::string &id)
{
    farm::FarmConfig cfg;
    cfg.workerId = id;
    return cfg;
}

/** Files in @p dir whose name starts with @p prefix. */
std::vector<std::string>
filesWithPrefix(const std::string &dir, const std::string &prefix)
{
    std::vector<std::string> out;
    if (!fs::exists(dir))
        return out;
    for (const auto &de : fs::directory_iterator(dir))
        if (de.path().filename().string().rfind(prefix, 0) == 0)
            out.push_back(de.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

/** The counted sweep grid from the resume tests: builds tells us
 *  exactly which specs actually re-simulated. */
std::vector<RunSpec>
grid(std::atomic<int> *builds = nullptr)
{
    std::vector<RunSpec> specs;
    for (const MemOrg org :
         {MemOrg::Scratch, MemOrg::Cache, MemOrg::Stash}) {
        RunSpec s;
        s.workload = "Reuse";
        s.org = org;
        s.scale = workloads::Scale::Smoke;
        if (builds) {
            s.make = [builds](const workloads::WorkloadParams &p) {
                builds->fetch_add(1, std::memory_order_relaxed);
                return workloads::WorkloadFactory::instance().make(
                    "Reuse", p);
            };
        }
        specs.push_back(std::move(s));
    }
    return specs;
}

std::string
recordFingerprint(const RunRecord &rec)
{
    std::ostringstream os;
    os << rec.spec.label()
       << " validated=" << rec.result.validated
       << " gpuCycles=" << rec.result.gpuCycles
       << " energy=" << rec.result.energy.total()
       << " events=" << rec.result.perf.events
       << " simTicks=" << rec.result.perf.simTicks << "\n";
    for (const auto &[key, value] : rec.result.stats.flatten())
        os << key << "=" << value << "\n";
    return os.str();
}

std::vector<std::string>
fingerprints(const std::vector<RunRecord> &recs)
{
    std::vector<std::string> out;
    for (const RunRecord &rec : recs)
        out.push_back(recordFingerprint(rec));
    return out;
}

SweepOptions
farmOpts(const std::string &dir, const std::string &worker,
         std::ostream *progress = nullptr)
{
    SweepOptions opts;
    opts.threads = 1;
    opts.progress = progress;
    opts.stateDir = dir;
    opts.resume = true;
    opts.workerId = worker;
    return opts;
}

// ---- protocol level ----------------------------------------------

TEST(FarmProtocolTest, RacingClaimsYieldExactlyOneWinner)
{
    const std::string dir = freshDir("farm_race");
    constexpr int kWorkers = 8;
    std::atomic<int> claimed{0}, busy{0};
    std::vector<std::thread> pool;
    for (int w = 0; w < kWorkers; ++w) {
        pool.emplace_back([&, w]() {
            const farm::ClaimResult r = farm::tryClaim(
                dir, "spec", workerCfg("w" + std::to_string(w)));
            if (r.status == farm::ClaimStatus::Claimed)
                claimed.fetch_add(1);
            else
                busy.fetch_add(1);
        });
    }
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(claimed.load(), 1);
    EXPECT_EQ(busy.load(), kWorkers - 1);
    EXPECT_TRUE(farm::leaseExists(dir, "spec"));

    farm::Lease l;
    ASSERT_TRUE(farm::readLease(farm::leasePath(dir, "spec"), l));
    EXPECT_EQ(l.attempt, 1u);
    EXPECT_FALSE(l.released);
}

TEST(FarmProtocolTest, LiveLeaseIsBusyStaleLeaseIsStolen)
{
    const std::string dir = freshDir("farm_stale");
    ASSERT_EQ(farm::tryClaim(dir, "spec", workerCfg("alive")).status,
              farm::ClaimStatus::Claimed);
    // A fresh heartbeat blocks every other worker.
    EXPECT_EQ(farm::tryClaim(dir, "spec", workerCfg("thief")).status,
              farm::ClaimStatus::Busy);

    // Simulate the owner dying: rewind its heartbeat past the TTL.
    std::ofstream os(farm::leasePath(dir, "spec"), std::ios::trunc);
    os << "{\"schema\": \"stashsim-farm-lease-v1\", "
          "\"worker\": \"alive\", \"pid\": 1, \"heartbeatMs\": 1, "
          "\"attempt\": 1, \"released\": false}";
    os.close();

    const farm::ClaimResult takeover =
        farm::tryClaim(dir, "spec", workerCfg("thief"));
    EXPECT_EQ(takeover.status, farm::ClaimStatus::Claimed);
    EXPECT_EQ(takeover.attempt, 2u);
    EXPECT_TRUE(takeover.reclaimed)
        << "stealing a non-released lease is a reclaim";

    farm::Lease l;
    ASSERT_TRUE(farm::readLease(farm::leasePath(dir, "spec"), l));
    EXPECT_EQ(l.worker, "thief");
}

TEST(FarmProtocolTest, ReleasedLeaseIsClaimableAtNextAttempt)
{
    const std::string dir = freshDir("farm_retry");
    {
        const farm::ClaimResult r =
            farm::tryClaim(dir, "spec", workerCfg("w0"));
        ASSERT_EQ(r.status, farm::ClaimStatus::Claimed);
        farm::LeaseGuard guard(dir, "spec", workerCfg("w0"),
                               r.attempt);
        guard.releaseForRetry();
    }
    const farm::ClaimResult retry =
        farm::tryClaim(dir, "spec", workerCfg("w1"));
    EXPECT_EQ(retry.status, farm::ClaimStatus::Claimed);
    EXPECT_EQ(retry.attempt, 2u);
    EXPECT_FALSE(retry.reclaimed)
        << "claiming a released lease is a retry, not a reclaim";
}

TEST(FarmProtocolTest, AttemptBudgetExhaustionQuarantinesAsFailed)
{
    const std::string dir = freshDir("farm_budget");
    farm::FarmConfig cfg = workerCfg("w0");
    cfg.maxAttempts = 2;

    for (unsigned attempt = 1; attempt <= 2; ++attempt) {
        const farm::ClaimResult r = farm::tryClaim(dir, "spec", cfg);
        ASSERT_EQ(r.status, farm::ClaimStatus::Claimed);
        ASSERT_EQ(r.attempt, attempt);
        farm::LeaseGuard guard(dir, "spec", cfg, r.attempt);
        guard.releaseForRetry();
    }
    // The third claim would be attempt 3 > maxAttempts.
    EXPECT_EQ(farm::tryClaim(dir, "spec", cfg).status,
              farm::ClaimStatus::Exhausted);
    EXPECT_FALSE(farm::leaseExists(dir, "spec"))
        << "exhaustion must not leave a lease behind";

    unsigned attempts = 0;
    std::vector<std::string> errors;
    ASSERT_TRUE(farm::loadFailed(dir, "spec", attempts, errors));
    EXPECT_EQ(attempts, 2u);
    ASSERT_FALSE(errors.empty());

    // And every later claim short-circuits on the FAILED marker...
    EXPECT_EQ(farm::tryClaim(dir, "spec", cfg).status,
              farm::ClaimStatus::Exhausted);
    // ...until a fresh campaign clears it.
    farm::clearFailed(dir, "spec");
    EXPECT_EQ(farm::tryClaim(dir, "spec", cfg).status,
              farm::ClaimStatus::Claimed);
}

TEST(FarmProtocolTest, CorruptLeaseIsQuarantinedThenReclaimed)
{
    const std::string dir = freshDir("farm_corrupt_lease");
    {
        std::ofstream os(farm::leasePath(dir, "spec"));
        os << "this is not a lease";
    }
    // First pass quarantines the wreck (Busy: someone else may be
    // mid-recovery), the next claims fresh.
    EXPECT_EQ(farm::tryClaim(dir, "spec", workerCfg("w0")).status,
              farm::ClaimStatus::Busy);
    EXPECT_FALSE(farm::leaseExists(dir, "spec"));
    EXPECT_EQ(filesWithPrefix(dir + "/QUARANTINE", "LEASE_").size(),
              1u);
    EXPECT_EQ(farm::tryClaim(dir, "spec", workerCfg("w0")).status,
              farm::ClaimStatus::Claimed);
}

TEST(FarmProtocolTest, OutOfRangeLeaseAttemptIsQuarantined)
{
    // Each parses as JSON but holds a number an unsigned attempt
    // count may not be cast from: negative, fractional, one past the
    // largest unsigned, far beyond any integer type.
    const char *const attempts[] = {"-1", "1.5", "4294967296",
                                    "1e300"};
    for (const char *attempt : attempts) {
        const std::string dir = freshDir("farm_attempt_range");
        {
            std::ofstream os(farm::leasePath(dir, "spec"));
            os << "{\"schema\": \"stashsim-farm-lease-v1\", "
                  "\"worker\": \"w9\", \"pid\": 1, "
                  "\"heartbeatMs\": 1, \"attempt\": "
               << attempt << ", \"released\": true}";
        }
        farm::Lease l;
        l.worker = "untouched";
        EXPECT_FALSE(farm::readLease(farm::leasePath(dir, "spec"), l))
            << attempt;
        EXPECT_EQ(l.worker, "untouched") << attempt;
        // Like any unreadable lease: quarantined, then claimed fresh.
        EXPECT_EQ(farm::tryClaim(dir, "spec", workerCfg("w0")).status,
                  farm::ClaimStatus::Busy)
            << attempt;
        EXPECT_EQ(
            filesWithPrefix(dir + "/QUARANTINE", "LEASE_").size(), 1u)
            << attempt;
        const farm::ClaimResult r =
            farm::tryClaim(dir, "spec", workerCfg("w0"));
        EXPECT_EQ(r.status, farm::ClaimStatus::Claimed) << attempt;
        EXPECT_EQ(r.attempt, 1u) << attempt;
    }
}

TEST(FarmProtocolTest, ObjectValuedFailedErrorsAreRejected)
{
    const std::string dir = freshDir("farm_failed_object");
    {
        std::ofstream os(farm::failedPath(dir, "spec"));
        os << "{\"attempts\":2,\"errors\":{\"a\":\"b\"}}";
    }
    unsigned attempts = 7;
    std::vector<std::string> errors = {"untouched"};
    EXPECT_FALSE(farm::loadFailed(dir, "spec", attempts, errors));
    EXPECT_EQ(attempts, 7u);
    EXPECT_EQ(errors, std::vector<std::string>{"untouched"});

    // The same document with an array of strings is accepted.
    {
        std::ofstream os(farm::failedPath(dir, "spec"),
                         std::ios::trunc);
        os << "{\"attempts\":2,\"errors\":[\"a\",\"b\"]}";
    }
    ASSERT_TRUE(farm::loadFailed(dir, "spec", attempts, errors));
    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(errors, (std::vector<std::string>{"a", "b"}));
}

TEST(FarmProtocolTest, DoneReleaseRemovesOnlyOwnLease)
{
    const std::string dir = freshDir("farm_done");
    const farm::ClaimResult r =
        farm::tryClaim(dir, "spec", workerCfg("w0"));
    ASSERT_EQ(r.status, farm::ClaimStatus::Claimed);
    {
        farm::LeaseGuard guard(dir, "spec", workerCfg("w0"),
                               r.attempt);
        guard.releaseDone();
    }
    EXPECT_FALSE(farm::leaseExists(dir, "spec"));

    // A lease stolen while we ran must survive our releaseDone.
    const farm::ClaimResult r2 =
        farm::tryClaim(dir, "spec", workerCfg("w0"));
    ASSERT_EQ(r2.status, farm::ClaimStatus::Claimed);
    {
        farm::LeaseGuard guard(dir, "spec", workerCfg("w0"),
                               r2.attempt);
        std::ofstream os(farm::leasePath(dir, "spec"),
                         std::ios::trunc);
        os << "{\"schema\": \"stashsim-farm-lease-v1\", "
              "\"worker\": \"thief\", \"pid\": 2, \"heartbeatMs\": "
              "999999999999999, \"attempt\": 2, \"released\": false}";
        os.close();
        guard.releaseDone();
    }
    farm::Lease l;
    ASSERT_TRUE(farm::readLease(farm::leasePath(dir, "spec"), l));
    EXPECT_EQ(l.worker, "thief");
}

// ---- sweep level -------------------------------------------------

TEST(FarmSweepTest, TwoWorkersDrainOneSweepByteIdentical)
{
    // Serial single-worker reference.
    SweepOptions serialOpts;
    serialOpts.threads = 1;
    const auto reference = SweepDriver(serialOpts).run(grid());
    for (const RunRecord &rec : reference)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();

    // Two workers race over one state dir; each must come back with
    // the complete, identical record set (own runs + peer caches).
    const std::string dir = freshDir("farm_two_workers");
    std::vector<RunRecord> a, b;
    SweepCounters ca, cb;
    std::thread ta([&]() {
        a = SweepDriver(farmOpts(dir, "alpha")).run(grid(), &ca);
    });
    std::thread tb([&]() {
        b = SweepDriver(farmOpts(dir, "beta")).run(grid(), &cb);
    });
    ta.join();
    tb.join();

    EXPECT_EQ(fingerprints(reference), fingerprints(a));
    EXPECT_EQ(fingerprints(reference), fingerprints(b));
    EXPECT_TRUE(filesWithPrefix(dir, "LEASE_").empty())
        << "no orphaned leases after a drained sweep";
    // Every spec simulated exactly once across the farm — whichever
    // worker did not run a spec served it from the peer's cache.
    EXPECT_EQ(ca.cachedRuns + cb.cachedRuns, 3u);
}

TEST(FarmSweepTest, FailingSpecIsRetriedThenQuarantined)
{
    const std::string dir = freshDir("farm_failing");
    std::atomic<int> attempts{0};
    RunSpec bad;
    bad.workload = "Reuse";
    bad.org = MemOrg::Stash;
    bad.scale = workloads::Scale::Smoke;
    bad.labelOverride = "doomed";
    bad.make = [&attempts](const workloads::WorkloadParams &) ->
        Workload {
        attempts.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("injected workload failure");
    };

    std::ostringstream log;
    SweepOptions opts = farmOpts(dir, "w0", &log);
    opts.maxAttempts = 2;
    SweepCounters counters;
    const auto records = SweepDriver(opts).run({bad}, &counters);

    ASSERT_EQ(records.size(), 1u);
    EXPECT_FALSE(records[0].result.validated);
    EXPECT_EQ(attempts.load(), 2) << "budget of 2 means 2 attempts";
    EXPECT_EQ(counters.failedSpecs, 1u);
    EXPECT_GE(counters.retriedRuns, 1u);
    EXPECT_EQ(filesWithPrefix(dir, "FAILED_").size(), 1u);
    EXPECT_TRUE(filesWithPrefix(dir, "LEASE_").empty());
    ASSERT_FALSE(records[0].result.errors.empty());
    EXPECT_NE(records[0].result.errors[0].find("injected"),
              std::string::npos);

    // A resumed campaign serves the FAILED verdict without retrying.
    SweepCounters again;
    const auto rerun = SweepDriver(opts).run({bad}, &again);
    EXPECT_EQ(attempts.load(), 2);
    EXPECT_FALSE(rerun[0].result.validated);
    EXPECT_EQ(again.failedSpecs, 1u);
}

TEST(FarmSweepTest, CorruptResultIsQuarantinedAndResimulated)
{
    const std::string dir = freshDir("farm_corrupt_result");
    std::atomic<int> builds{0};
    const auto first =
        SweepDriver(farmOpts(dir, "w0")).run(grid(&builds));
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const int fresh = builds.load();

    const auto results = filesWithPrefix(dir, "RESULT_");
    ASSERT_EQ(results.size(), 3u);
    fs::resize_file(results[0], fs::file_size(results[0]) / 2);

    std::ostringstream log;
    SweepCounters counters;
    const auto second = SweepDriver(farmOpts(dir, "w1", &log))
                            .run(grid(&builds), &counters);
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_EQ(builds.load(), fresh + 1)
        << "exactly the corrupted spec re-simulates";
    EXPECT_GE(counters.corruptSnapshots, 1u);
    EXPECT_GE(counters.quarantinedArtifacts, 1u);
    EXPECT_EQ(counters.cachedRuns, 2u);
    EXPECT_FALSE(
        filesWithPrefix(dir + "/QUARANTINE", "RESULT_").empty());
    EXPECT_NE(log.str().find("corrupt"), std::string::npos)
        << log.str();
}

TEST(FarmSweepTest, StaleResultFromEditedGridIsNotServed)
{
    const std::string dir = freshDir("farm_stale_result");
    std::atomic<int> builds{0};
    const auto first =
        SweepDriver(farmOpts(dir, "w0")).run(grid(&builds));
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const int fresh = builds.load();

    // Edit the grid: same labels, different machine.  The cached
    // RESULT_* records now answer the wrong question and must be
    // quarantined, not served.
    auto edited = grid(&builds);
    for (RunSpec &s : edited) {
        SystemConfig cfg = SystemConfig::microbenchmarkDefault();
        cfg.l1Bytes *= 2;
        s.config = cfg;
    }
    std::ostringstream log;
    SweepCounters counters;
    const auto second = SweepDriver(farmOpts(dir, "w1", &log))
                            .run(std::move(edited), &counters);
    for (const RunRecord &rec : second)
        EXPECT_TRUE(rec.result.validated) << rec.spec.label();
    EXPECT_EQ(builds.load(), fresh + 3)
        << "every stale spec must re-simulate";
    EXPECT_EQ(counters.cachedRuns, 0u);
    EXPECT_GE(counters.staleResults, 3u);
    EXPECT_NE(log.str().find("different configuration"),
              std::string::npos)
        << log.str();
}

TEST(FarmSweepTest, StopFlagInterruptsResumablyMidCampaign)
{
    // Uninterrupted reference.
    const std::string refDir = freshDir("farm_stop_ref");
    const auto reference =
        SweepDriver(farmOpts(refDir, "ref")).run(grid());
    for (const RunRecord &rec : reference)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();

    // A pre-set stop flag interrupts the campaign before any spec
    // settles; records are marked, nothing half-written remains.
    const std::string dir = freshDir("farm_stop");
    std::atomic<bool> stop{true};
    SweepOptions opts = farmOpts(dir, "w0");
    opts.stop = &stop;
    SweepCounters counters;
    const auto interrupted = SweepDriver(opts).run(grid(), &counters);
    EXPECT_TRUE(counters.interrupted);
    ASSERT_EQ(interrupted.size(), 3u);
    for (const RunRecord &rec : interrupted)
        EXPECT_FALSE(rec.result.validated);
    EXPECT_TRUE(filesWithPrefix(dir, "LEASE_").empty());

    // A second worker picks the campaign up and finishes it with
    // records identical to the uninterrupted reference.
    SweepCounters resumedCounters;
    const auto resumed =
        SweepDriver(farmOpts(dir, "w1")).run(grid(), &resumedCounters);
    EXPECT_EQ(fingerprints(reference), fingerprints(resumed));
    EXPECT_FALSE(resumedCounters.interrupted);
    EXPECT_TRUE(filesWithPrefix(dir, "LEASE_").empty());
}

TEST(FarmSweepTest, MidRunInterruptDropsResumableCheckpoint)
{
    const std::string refDir = freshDir("farm_midrun_ref");
    const auto reference =
        SweepDriver(farmOpts(refDir, "ref")).run(grid());

    // The stop request lands while the first spec is in flight: that
    // run finishes and drops its RESULT artifact, the checkpoint the
    // next worker resumes from, and no other spec starts.
    const std::string dir = freshDir("farm_midrun");
    std::atomic<bool> stop{false};
    std::vector<RunSpec> specs = grid();
    specs[0].instrument = [&stop](System &) { stop = true; };
    SweepOptions opts = farmOpts(dir, "w0");
    opts.stop = &stop;
    SweepCounters counters;
    const auto stopped = SweepDriver(opts).run(specs, &counters);
    EXPECT_TRUE(counters.interrupted);
    ASSERT_EQ(stopped.size(), 3u);
    EXPECT_EQ(fingerprints({reference[0]}), fingerprints({stopped[0]}));
    for (std::size_t i = 1; i < stopped.size(); ++i) {
        EXPECT_FALSE(stopped[i].result.validated);
        ASSERT_EQ(stopped[i].result.errors.size(), 1u);
        EXPECT_EQ(stopped[i].result.errors[0],
                  "interrupted before completion");
    }
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 1u);
    EXPECT_TRUE(filesWithPrefix(dir, "LEASE_").empty());

    // The next worker serves the finished run and runs the others
    // from tick 0.
    SweepCounters resumedCounters;
    const auto resumed =
        SweepDriver(farmOpts(dir, "w1")).run(grid(), &resumedCounters);
    EXPECT_EQ(fingerprints(reference), fingerprints(resumed));
    EXPECT_EQ(resumedCounters.cachedRuns, 1u);
}

TEST(FarmSweepTest, KilledWorkerIsReclaimedByteIdentical)
{
    // Serial single-worker reference.
    SweepOptions serialOpts;
    serialOpts.threads = 1;
    const auto reference = SweepDriver(serialOpts).run(grid());
    for (const RunRecord &rec : reference)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();

    // A worker process SIGKILLs itself mid-sweep: the second spec's
    // finish callback raises it, so the child dies after simulating
    // that spec but before its result settles — the lease is still
    // held, heartbeat and all.
    const std::string dir = freshDir("farm_kill");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::vector<RunSpec> specs = grid();
        specs[1].finish = [](System &, const RunResult &) {
            ::raise(SIGKILL);
        };
        SweepDriver(farmOpts(dir, "victim")).run(specs);
        ::_exit(0); // not reached
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Exactly the killed spec's lease survives, un-released.  Rewind
    // its heartbeat past the TTL so the surviving worker reclaims it
    // immediately.
    const auto leases = filesWithPrefix(dir, "LEASE_");
    ASSERT_EQ(leases.size(), 1u);
    {
        std::ofstream os(leases[0], std::ios::trunc);
        os << "{\"schema\": \"stashsim-farm-lease-v1\", "
              "\"worker\": \"dead\", \"pid\": 1, \"heartbeatMs\": 1, "
              "\"attempt\": 1, \"released\": false}";
    }

    // The surviving worker drains the sweep: the settled spec serves
    // from cache, the orphaned one is reclaimed and rerun from tick 0,
    // and the last runs fresh — all byte-identical to the
    // never-crashed reference.
    SweepCounters counters;
    const auto out =
        SweepDriver(farmOpts(dir, "survivor")).run(grid(), &counters);
    EXPECT_EQ(fingerprints(reference), fingerprints(out));
    EXPECT_GE(counters.reclaimedLeases, 1u);
    EXPECT_TRUE(filesWithPrefix(dir, "LEASE_").empty());
}

} // namespace
} // namespace stashsim
