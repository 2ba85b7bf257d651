#include "driver/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "snapshot/snapshot.hh"

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
 * Caches a completed run's RunResult to RESULT_<label>.snap so a
 * resumed sweep returns it without re-simulating.  The host time
 * (perf.hostSeconds) is deliberately dropped: only deterministic
 * counters belong in resumable state.
 */
void
saveResultCache(const std::string &path, const RunSpec &spec,
                const SystemConfig &cfg, const RunResult &r)
{
    SnapshotWriter w;
    w.configHash = snapshotConfigHash(cfg);
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
        std::string path;
        SystemConfig cfg;
        if (stateful) {
            cfg = resolveRunConfig(rec.spec);
            path = opts.stateDir + "/RESULT_" +
                   runStateLabel(rec.spec) + ".snap";
            RunResult cached;
            switch (loadResultCache(path, rec.spec, cfg, cached)) {
              case CacheLoad::Ok:
                rec.result = std::move(cached);
                return true;
              case CacheLoad::Corrupt:
                quarantine(path, cnt.corruptSnapshots, "is corrupt");
                break;
              case CacheLoad::Stale:
                quarantine(path, cnt.staleResults,
                           "belongs to a different configuration "
                           "(edited sweep grid?)");
                break;
              case CacheLoad::Missing:
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
                saveResultCache(path, rec.spec, cfg, rec.result);
            } catch (const SnapshotError &e) {
                std::lock_guard<std::mutex> lock(mutex);
                if (opts.progress) {
                    *opts.progress << "sweep: cannot cache result '"
                                   << path << "' (" << e.reason()
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
