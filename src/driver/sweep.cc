#include "driver/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "driver/result_cache.hh"

namespace stashsim
{

void
SweepCounters::add(const SweepCounters &o)
{
    cachedRuns += o.cachedRuns;
    corruptSnapshots += o.corruptSnapshots;
    staleResults += o.staleResults;
    quarantinedArtifacts += o.quarantinedArtifacts;
    interrupted = interrupted || o.interrupted;
}

bool
SweepCounters::any() const
{
    return cachedRuns || corruptSnapshots || staleResults ||
           quarantinedArtifacts || interrupted;
}

namespace
{

/**
 * The identity a spec's on-disk state carries: the artifact-safe run
 * label plus the input scale, so a quick-scale result is never served
 * for a full-scale run of the same workload.
 */
std::string
runStateLabel(const RunSpec &spec)
{
    return artifactLabel(spec.label()) + "-" +
           workloads::scaleName(spec.scale);
}

/**
 * Moves @p path into <dir>/QUARANTINE/ (created on demand) so a
 * corrupt or stale cached result is kept for postmortem instead of
 * being silently simulated over.  Returns false when the move failed
 * (the run is simulated all the same, and its new result replaces
 * the file).
 */
bool
quarantineFile(const std::string &dir, const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path qdir = fs::path(dir) / "QUARANTINE";
    fs::create_directories(qdir, ec);
    if (ec)
        return false;
    fs::rename(path, qdir / fs::path(path).filename(), ec);
    return !ec;
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
        records[i].spec = std::move(specs[i]);
    if (n == 0)
        return records;

    // Guards the counters, the progress stream and its [k/n] count.
    std::mutex mutex;
    SweepCounters cnt;
    std::size_t done = 0;
    const bool stateful = !opts.stateDir.empty();

    const auto stopRequested = [this]() {
        return opts.stop &&
               opts.stop->load(std::memory_order_relaxed);
    };

    // Moves a cached result that may not be served into QUARANTINE/,
    // counting it in @p reason.
    const auto quarantine = [&](const std::string &path,
                                std::uint64_t &reason,
                                const std::string &why) {
        const bool moved = quarantineFile(opts.stateDir, path);
        std::lock_guard<std::mutex> lock(mutex);
        ++reason;
        if (moved)
            ++cnt.quarantinedArtifacts;
        if (opts.progress) {
            *opts.progress << "sweep: cached result '" << path << "' "
                           << why << (moved ? "; quarantined" : "")
                           << "; re-simulating" << std::endl;
        }
    };

    // Fills @p rec from its valid cached result (returning true) or
    // by simulating it.
    const auto runOne = [&](RunRecord &rec) {
        std::string path, label;
        std::uint64_t hash = 0;
        if (stateful) {
            label = runStateLabel(rec.spec);
            hash = configHash(resolveRunConfig(rec.spec));
            path = opts.stateDir + "/RESULT_" + label + ".snap";
            RunResult cached;
            switch (loadResult(path, hash, label, cached)) {
              case ResultLoad::Ok:
                // The energy breakdown is a pure function of the
                // stats, so the record does not carry it.
                cached.energy =
                    EnergyModel(rec.spec.energy).compute(cached.stats);
                rec.result = std::move(cached);
                return true;
              case ResultLoad::Corrupt:
                quarantine(path, cnt.corruptSnapshots, "is corrupt");
                break;
              case ResultLoad::Stale:
                quarantine(path, cnt.staleResults,
                           "belongs to a different configuration "
                           "(edited sweep grid?)");
                break;
              case ResultLoad::Missing:
                break;
            }
        }
        try {
            rec.result = runSpec(rec.spec);
        } catch (const std::exception &e) {
            // fatal() throws; keep the sweep going and surface the
            // failure through the record, caching nothing, so the
            // next sweep simulates the spec again.
            rec.result.validated = false;
            rec.result.errors.push_back(e.what());
            return false;
        } catch (...) {
            // Anything escaping a std::thread calls std::terminate
            // and loses every completed record; absorb non-standard
            // throws the same way.
            rec.result.validated = false;
            rec.result.errors.push_back(
                "unknown error (non-standard exception)");
            return false;
        }
        if (stateful) {
            try {
                saveResult(path, hash, label, rec.result);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mutex);
                if (opts.progress) {
                    *opts.progress << "sweep: cannot cache result '"
                                   << path << "' (" << e.what()
                                   << ")" << std::endl;
                }
            }
        }
        return false;
    };

    // Every claimed index runs to completion, so the specs below
    // next's final value ran and the rest never started.
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        while (true) {
            if (stopRequested()) {
                std::lock_guard<std::mutex> lock(mutex);
                cnt.interrupted = true;
                return;
            }
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            RunRecord &rec = records[i];
            const bool cached = runOne(rec);
            std::lock_guard<std::mutex> lock(mutex);
            if (cached)
                ++cnt.cachedRuns;
            ++done;
            if (opts.progress) {
                *opts.progress
                    << "[" << done << "/" << n << "] "
                    << rec.spec.label()
                    << (rec.result.validated ? " ok"
                                             : " FAILED validation")
                    << (cached ? " (cached)" : "") << std::endl;
            }
        }
    };

    const unsigned nthreads = threadsFor(n);
    if (nthreads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (unsigned t = 0; t < nthreads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    // A stopped sweep leaves records that never ran; mark them so no
    // caller mistakes a default-constructed result for a pass.
    for (std::size_t i = std::min(next.load(), n); i < n; ++i) {
        records[i].result.validated = false;
        records[i].result.errors.push_back(
            "interrupted before completion");
    }
    if (stateful && opts.progress && cnt.any()) {
        *opts.progress
            << "sweep: recovery: cached=" << cnt.cachedRuns
            << " corruptSnapshots=" << cnt.corruptSnapshots
            << " staleResults=" << cnt.staleResults
            << " quarantined=" << cnt.quarantinedArtifacts
            << (cnt.interrupted ? " (interrupted)" : "") << std::endl;
    }
    if (counters)
        counters->add(cnt);
    return records;
}

} // namespace stashsim
