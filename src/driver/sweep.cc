#include "driver/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <random>
#include <thread>
#include <utility>

#include <unistd.h>

#include "driver/farm.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{

void
SweepCounters::add(const SweepCounters &o)
{
    cachedRuns += o.cachedRuns;
    resumedRuns += o.resumedRuns;
    corruptSnapshots += o.corruptSnapshots;
    staleResults += o.staleResults;
    quarantinedArtifacts += o.quarantinedArtifacts;
    reclaimedLeases += o.reclaimedLeases;
    retriedRuns += o.retriedRuns;
    failedSpecs += o.failedSpecs;
    interrupted = interrupted || o.interrupted;
}

bool
SweepCounters::any() const
{
    return cachedRuns || resumedRuns || corruptSnapshots ||
           staleResults || quarantinedArtifacts || reclaimedLeases ||
           retriedRuns || failedSpecs || interrupted;
}

namespace
{

/**
 * The identity a spec's on-disk state carries: the artifact-safe run
 * label plus the input scale, so a quick-scale checkpoint can never
 * resume a full-scale run of the same workload.
 */
std::string
runStateLabel(const RunSpec &spec)
{
    return artifactLabel(spec.label()) + "-" +
           workloads::scaleName(spec.scale);
}

/**
 * Caches a completed run's RunResult to RESULT_<label>.snap so a
 * resumed sweep returns it without re-simulating.  Host timings
 * (perf.hostSeconds, per-phase breakdown) are deliberately dropped:
 * only deterministic counters belong in resumable state.
 */
void
saveResultCache(const std::string &path, const RunSpec &spec,
                const SystemConfig &cfg, const RunResult &r)
{
    SnapshotWriter w;
    w.configHash = snapshotConfigHash(cfg);
    w.tick = 0;
    w.phaseCursor = 0;
    w.workload = runStateLabel(spec);
    w.beginSection("result");
    w.b(r.validated);
    w.u64(r.gpuCycles);
    w.u64(r.perf.events);
    w.u64(r.perf.simTicks);
    w.u64(r.perf.shape.peakLiveEvents);
    w.u64(r.perf.shape.poolChunks);
    w.u64(r.perf.shape.wheelInserts);
    w.u64(r.perf.shape.farInserts);
    w.u32(std::uint32_t(r.errors.size()));
    for (const std::string &e : r.errors)
        w.str(e);
    writeSystemStats(w, r.stats);
    w.endSection();
    w.writeFile(path);
}

/** What a cached-RESULT load found; the caller reacts per outcome. */
enum class CacheLoad
{
    Ok,       //!< served; @p out is the cached result
    Missing,  //!< no artifact (or unreadable file): simulate
    Stale,    //!< config hash / run identity mismatch: edited grid
    Corrupt   //!< structural damage: quarantine, then simulate
};

/**
 * Loads a cached RunResult.  The record's config hash and run
 * identity are validated BEFORE it is served, so a stale state dir
 * left over from an edited sweep grid reruns the spec instead of
 * returning the wrong cached numbers.  The energy breakdown is
 * recomputed from the restored stats rather than stored — it is a
 * pure function of them.
 */
CacheLoad
loadResultCache(const std::string &path, const RunSpec &spec,
                const SystemConfig &cfg, RunResult &out)
{
    if (!std::filesystem::exists(path))
        return CacheLoad::Missing;
    try {
        SnapshotReader r = SnapshotReader::fromFile(path);
        if (r.configHash() != snapshotConfigHash(cfg) ||
            r.workload() != runStateLabel(spec)) {
            return CacheLoad::Stale;
        }
        r.verifyAllSections();
        r.openSection("result");
        out.validated = r.b();
        out.gpuCycles = Cycles(r.u64());
        out.perf = SimPerfSummary{};
        out.perf.events = r.u64();
        out.perf.simTicks = r.u64();
        out.perf.shape.peakLiveEvents = r.u64();
        out.perf.shape.poolChunks = r.u64();
        out.perf.shape.wheelInserts = r.u64();
        out.perf.shape.farInserts = r.u64();
        out.errors.clear();
        const std::uint32_t nerr = r.u32();
        for (std::uint32_t e = 0; e < nerr; ++e)
            out.errors.push_back(r.str());
        readSystemStats(r, out.stats);
        r.closeSection();
        out.energy = EnergyModel(spec.energy).compute(out.stats);
        return CacheLoad::Ok;
    } catch (const SnapshotError &) {
        return CacheLoad::Corrupt;
    }
}

/**
 * Latest usable CKPT_<label>@<tick>.snap for @p spec: candidates are
 * tried newest-first; one that fails structural verification or was
 * taken under a different configuration is quarantined with a
 * structured warning — the scan falls back to the previous snapshot
 * and ultimately to an empty result (run from tick 0).
 */
std::string
latestCheckpoint(const std::string &state_dir, const RunSpec &spec,
                 const SystemConfig &cfg, std::ostream *progress,
                 std::mutex &progress_mutex, SweepCounters &cnt,
                 std::mutex &cnt_mutex)
{
    namespace fs = std::filesystem;
    const std::string prefix = "CKPT_" + runStateLabel(spec) + "@";
    const std::string suffix = ".snap";
    std::vector<std::pair<std::uint64_t, std::string>> candidates;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(state_dir, ec)) {
        const std::string name = de.path().filename().string();
        if (name.rfind(prefix, 0) != 0 ||
            name.size() <= prefix.size() + suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        const std::string tick_str =
            name.substr(prefix.size(),
                        name.size() - prefix.size() - suffix.size());
        char *end = nullptr;
        const std::uint64_t tick =
            std::strtoull(tick_str.c_str(), &end, 10);
        if (end == tick_str.c_str() || *end != '\0')
            continue;
        candidates.emplace_back(tick, de.path().string());
    }
    std::sort(candidates.begin(), candidates.end(),
              std::greater<>());

    const std::uint64_t want = snapshotConfigHash(cfg);
    for (const auto &[tick, path] : candidates) {
        bool structural = true;
        std::string why;
        try {
            SnapshotReader r = SnapshotReader::fromFile(path);
            if (r.configHash() != want) {
                structural = false;
                why = "<header>: configuration hash mismatch "
                      "(stale state dir from an edited grid?)";
            } else {
                r.verifyAllSections();
                return path;
            }
        } catch (const SnapshotError &e) {
            why = e.section() + ": " + e.reason();
        }
        const bool moved = farm::quarantineFile(state_dir, path);
        {
            std::lock_guard<std::mutex> lock(cnt_mutex);
            if (structural)
                ++cnt.corruptSnapshots;
            else
                ++cnt.staleResults;
            if (moved)
                ++cnt.quarantinedArtifacts;
        }
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            *progress << "sweep: resume: snapshot '" << path
                      << "' unusable (section " << why << ")"
                      << (moved ? "; quarantined" : "")
                      << "; falling back" << std::endl;
        }
    }
    return {};
}

} // namespace

SweepDriver::SweepDriver(SweepOptions opts) : opts(opts) {}

unsigned
SweepDriver::threadsFor(std::size_t n) const
{
    unsigned t = opts.threads;
    if (t == 0) {
        t = std::thread::hardware_concurrency();
        if (t == 0)
            t = 1;
    }
    if (t > n)
        t = unsigned(n);
    return t == 0 ? 1 : t;
}

std::vector<RunRecord>
SweepDriver::run(std::vector<RunSpec> specs,
                 SweepCounters *counters) const
{
    const std::size_t n = specs.size();
    std::vector<RunRecord> records(n);
    for (std::size_t i = 0; i < n; ++i)
        records[i].spec = specs[i];
    if (n == 0)
        return records;

    SweepCounters cnt;
    std::mutex cntMutex;
    std::atomic<std::size_t> done{0};
    std::mutex progressMutex;
    const bool stateful = !opts.stateDir.empty();

    const auto stopRequested = [this]() {
        return opts.stop &&
               opts.stop->load(std::memory_order_relaxed);
    };

    const auto printRecord = [&](const RunRecord &rec,
                                 const std::string &note) {
        const std::size_t k =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (opts.progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            *opts.progress
                << "[" << k << "/" << n << "] " << rec.spec.label()
                << (rec.result.validated ? " ok"
                                         : " FAILED validation")
                << note << std::endl;
        }
    };

    // ---- stateless path: shared-index pull, no on-disk protocol ----
    std::atomic<std::size_t> next{0};
    auto statelessWorker = [&]() {
        while (true) {
            if (stopRequested()) {
                std::lock_guard<std::mutex> lock(cntMutex);
                cnt.interrupted = true;
                return;
            }
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            RunRecord &rec = records[i];
            RunSpec spec = rec.spec;
            spec.interrupt = opts.stop;
            try {
                rec.result = runSpec(spec);
            } catch (const RunInterrupted &) {
                rec.result.validated = false;
                rec.result.errors.push_back("interrupted");
                std::lock_guard<std::mutex> lock(cntMutex);
                cnt.interrupted = true;
                return;
            } catch (const std::exception &e) {
                // fatal() throws; keep the sweep going and surface
                // the failure through the record.
                rec.result.validated = false;
                rec.result.errors.push_back(e.what());
            } catch (...) {
                // Anything escaping a std::thread calls
                // std::terminate and loses every completed record;
                // absorb non-standard throws the same way.
                rec.result.validated = false;
                rec.result.errors.push_back(
                    "unknown error (non-standard exception)");
            }
            printRecord(rec, "");
        }
    };

    // ---- farm path: every spec is claimed through a lease file ----
    // Per-spec identity precomputed once; resolveRunConfig is pure.
    std::vector<std::string> labels(stateful ? n : 0);
    std::vector<SystemConfig> cfgs(stateful ? n : 0);
    std::vector<std::string> resultPaths(stateful ? n : 0);
    if (stateful) {
        for (std::size_t i = 0; i < n; ++i) {
            labels[i] = runStateLabel(specs[i]);
            cfgs[i] = resolveRunConfig(specs[i]);
            resultPaths[i] =
                opts.stateDir + "/RESULT_" + labels[i] + ".snap";
        }
        if (!opts.resume) {
            // Fresh campaign: stale FAILED verdicts from an earlier
            // session must not block the rerun.
            for (const std::string &label : labels)
                farm::clearFailed(opts.stateDir, label);
        }
    }

    farm::FarmConfig baseFarm;
    baseFarm.workerId = opts.workerId.empty()
                            ? "w" + std::to_string(::getpid())
                            : opts.workerId;
    baseFarm.leaseTtlMs = opts.leaseTtlMs;
    baseFarm.maxAttempts = std::max(1u, opts.maxAttempts);

    std::vector<std::atomic<bool>> settled(n);

    // Fills record i exactly once (threads may race a cache-serve
    // against the thread that just finished simulating the spec; the
    // contents are identical either way, the exchange just picks one
    // writer).  Returns false when someone else already settled it.
    const auto settle = [&](std::size_t i, RunResult r,
                            const std::string &note) {
        if (settled[i].exchange(true, std::memory_order_acq_rel))
            return false;
        records[i].result = std::move(r);
        printRecord(records[i], note);
        return true;
    };

    auto farmWorker = [&](unsigned tid, unsigned nthreads) {
        farm::FarmConfig fc = baseFarm;
        if (nthreads > 1)
            fc.workerId += "-" + std::to_string(tid);
        // Host-only jitter so colliding workers desynchronize; never
        // touches simulated state.
        std::mt19937 jitter(
            std::hash<std::string>{}(fc.workerId) ^ 0x9e3779b9u);
        unsigned backoffExp = 0;

        const auto interruptedExit = [&]() {
            std::lock_guard<std::mutex> lock(cntMutex);
            cnt.interrupted = true;
        };

        while (true) {
            bool progressed = false;
            bool busyElsewhere = false;
            bool anyUnsettled = false;

            for (std::size_t i = 0; i < n; ++i) {
                if (settled[i].load(std::memory_order_acquire))
                    continue;
                if (stopRequested())
                    return interruptedExit();
                anyUnsettled = true;
                const std::string &label = labels[i];
                const SystemConfig &cfg = cfgs[i];

                if (opts.resume) {
                    // 1. A FAILED verdict is a settled (bad) result.
                    unsigned attempts = 0;
                    std::vector<std::string> errs;
                    if (farm::loadFailed(opts.stateDir, label,
                                         attempts, errs)) {
                        RunResult r;
                        r.validated = false;
                        r.errors = std::move(errs);
                        r.errors.push_back(
                            "quarantined after " +
                            std::to_string(attempts) +
                            " attempt(s) (FAILED_" + label +
                            ".json)");
                        if (settle(i, std::move(r),
                                   " (quarantined)")) {
                            std::lock_guard<std::mutex> lock(cntMutex);
                            ++cnt.failedSpecs;
                        }
                        progressed = true;
                        continue;
                    }

                    // 2. A valid cached RESULT settles the spec.
                    RunResult cachedResult;
                    switch (loadResultCache(resultPaths[i], specs[i],
                                            cfg, cachedResult)) {
                      case CacheLoad::Ok:
                        if (settle(i, std::move(cachedResult),
                                   " (cached)")) {
                            std::lock_guard<std::mutex> lock(cntMutex);
                            ++cnt.cachedRuns;
                        }
                        progressed = true;
                        continue;
                      case CacheLoad::Corrupt: {
                        const bool moved = farm::quarantineFile(
                            opts.stateDir, resultPaths[i]);
                        {
                            std::lock_guard<std::mutex> lock(cntMutex);
                            ++cnt.corruptSnapshots;
                            if (moved)
                                ++cnt.quarantinedArtifacts;
                        }
                        if (opts.progress) {
                            std::lock_guard<std::mutex> lock(
                                progressMutex);
                            *opts.progress
                                << "sweep: cached result '"
                                << resultPaths[i]
                                << "' is corrupt"
                                << (moved ? "; quarantined" : "")
                                << "; re-simulating" << std::endl;
                        }
                        break;
                      }
                      case CacheLoad::Stale: {
                        const bool moved = farm::quarantineFile(
                            opts.stateDir, resultPaths[i]);
                        {
                            std::lock_guard<std::mutex> lock(cntMutex);
                            ++cnt.staleResults;
                            if (moved)
                                ++cnt.quarantinedArtifacts;
                        }
                        if (opts.progress) {
                            std::lock_guard<std::mutex> lock(
                                progressMutex);
                            *opts.progress
                                << "sweep: cached result '"
                                << resultPaths[i]
                                << "' belongs to a different "
                                   "configuration (edited sweep "
                                   "grid?)"
                                << (moved ? "; quarantined" : "")
                                << "; re-simulating" << std::endl;
                        }
                        break;
                      }
                      case CacheLoad::Missing:
                        break;
                    }
                }

                // 3. Claim the lease and simulate.
                const farm::ClaimResult claim =
                    farm::tryClaim(opts.stateDir, label, fc);
                if (claim.status == farm::ClaimStatus::Busy) {
                    busyElsewhere = true;
                    continue;
                }
                if (claim.status == farm::ClaimStatus::Exhausted) {
                    unsigned attempts = 0;
                    std::vector<std::string> errs;
                    if (!farm::loadFailed(opts.stateDir, label,
                                          attempts, errs)) {
                        errs = {"attempt budget exhausted"};
                    }
                    RunResult r;
                    r.validated = false;
                    r.errors = std::move(errs);
                    if (settle(i, std::move(r), " (quarantined)")) {
                        std::lock_guard<std::mutex> lock(cntMutex);
                        ++cnt.failedSpecs;
                    }
                    progressed = true;
                    continue;
                }

                {
                    std::lock_guard<std::mutex> lock(cntMutex);
                    if (claim.reclaimed)
                        ++cnt.reclaimedLeases;
                    if (claim.attempt > 1)
                        ++cnt.retriedRuns;
                }

                farm::LeaseGuard guard(opts.stateDir, label, fc,
                                       claim.attempt);
                RunSpec spec = records[i].spec;
                spec.checkpointEveryTicks = opts.checkpointEveryTicks;
                spec.checkpointDir = opts.stateDir;
                spec.interrupt = opts.stop;
                std::string note;
                if (opts.resume || claim.attempt > 1 ||
                    claim.reclaimed) {
                    // Retries and takeovers resume from the dead
                    // attempt's checkpoints just like --resume does.
                    const std::string ckpt = latestCheckpoint(
                        opts.stateDir, records[i].spec, cfg,
                        opts.progress, progressMutex, cnt, cntMutex);
                    if (!ckpt.empty()) {
                        spec.restoreFrom = ckpt;
                        note = " (resumed)";
                        std::lock_guard<std::mutex> lock(cntMutex);
                        ++cnt.resumedRuns;
                    }
                }

                std::string failure;
                try {
                    RunResult r = runSpec(spec);
                    // Cache the result BEFORE releasing the lease so
                    // a peer that sees the lease disappear always
                    // finds the artifact.
                    try {
                        saveResultCache(resultPaths[i],
                                        records[i].spec, cfg, r);
                    } catch (const SnapshotError &e) {
                        if (opts.progress) {
                            std::lock_guard<std::mutex> lock(
                                progressMutex);
                            *opts.progress
                                << "sweep: cannot cache result '"
                                << resultPaths[i] << "' ("
                                << e.reason() << ")" << std::endl;
                        }
                    }
                    guard.releaseDone();
                    settle(i, std::move(r), note);
                    progressed = true;
                    continue;
                } catch (const RunInterrupted &) {
                    // The run already dropped its final checkpoint;
                    // the interrupted attempt does not count against
                    // the budget.
                    guard.releaseInterrupted();
                    return interruptedExit();
                } catch (const std::exception &e) {
                    failure = e.what();
                } catch (...) {
                    failure = "unknown error "
                              "(non-standard exception)";
                }

                if (claim.attempt >= fc.maxAttempts) {
                    guard.releaseFailed({failure});
                    RunResult r;
                    r.validated = false;
                    r.errors.push_back(failure);
                    if (settle(i, std::move(r), " (quarantined)")) {
                        std::lock_guard<std::mutex> lock(cntMutex);
                        ++cnt.failedSpecs;
                    }
                } else {
                    // Budget remains: release for retry.  The spec
                    // stays unsettled and a later pass — ours or a
                    // peer's — claims it at attempt+1.
                    guard.releaseForRetry();
                    if (opts.progress) {
                        std::lock_guard<std::mutex> lock(
                            progressMutex);
                        *opts.progress
                            << "sweep: " << records[i].spec.label()
                            << " attempt " << claim.attempt
                            << " failed (" << failure
                            << "); released for retry" << std::endl;
                    }
                }
                progressed = true;
            }

            if (!anyUnsettled)
                return;
            if (progressed) {
                backoffExp = 0;
                continue;
            }
            if (stopRequested())
                return interruptedExit();
            // Everything left is leased to live peers (or a retry is
            // pending): back off exponentially with jitter, staying
            // responsive to the stop flag.
            (void)busyElsewhere;
            const std::uint64_t base = 25;
            const std::uint64_t cap = 1000;
            const std::uint64_t span = std::min(
                cap, base << std::min(backoffExp, 5u));
            ++backoffExp;
            std::uint64_t waitMs = span + jitter() % span;
            while (waitMs > 0 && !stopRequested()) {
                const std::uint64_t step = std::min<std::uint64_t>(
                    waitMs, 10);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(step));
                waitMs -= step;
            }
        }
    };

    const unsigned nthreads = threadsFor(n);
    if (nthreads <= 1) {
        if (stateful)
            farmWorker(0, 1);
        else
            statelessWorker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (unsigned t = 0; t < nthreads; ++t) {
            if (stateful)
                pool.emplace_back(farmWorker, t, nthreads);
            else
                pool.emplace_back(statelessWorker);
        }
        for (auto &t : pool)
            t.join();
    }

    if (stateful) {
        // An interrupted sweep leaves unsettled records; mark them so
        // no caller mistakes a default-constructed result for a pass.
        for (std::size_t i = 0; i < n; ++i) {
            if (!settled[i].load(std::memory_order_acquire)) {
                records[i].result.validated = false;
                records[i].result.errors.push_back(
                    "interrupted before completion");
            }
        }
        if (opts.progress && cnt.any()) {
            std::lock_guard<std::mutex> lock(progressMutex);
            *opts.progress
                << "sweep: recovery: cached=" << cnt.cachedRuns
                << " resumed=" << cnt.resumedRuns
                << " retried=" << cnt.retriedRuns
                << " reclaimedLeases=" << cnt.reclaimedLeases
                << " corruptSnapshots=" << cnt.corruptSnapshots
                << " staleResults=" << cnt.staleResults
                << " quarantined=" << cnt.quarantinedArtifacts
                << " failedSpecs=" << cnt.failedSpecs
                << (cnt.interrupted ? " (interrupted)" : "")
                << std::endl;
        }
    }
    if (counters)
        counters->add(cnt);
    return records;
}

} // namespace stashsim
