#include "driver/farm.hh"

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <unistd.h>

#include "driver/run.hh"
#include "report/json.hh"

namespace stashsim
{
namespace farm
{

namespace
{

namespace fs = std::filesystem;

std::string
join(const std::string &dir, const std::string &name)
{
    if (dir.empty() || dir.back() == '/')
        return dir + name;
    return dir + "/" + name;
}

/** Worker ids go into file names; keep them path-safe. */
std::string
safeWorker(const std::string &worker)
{
    std::string out = artifactLabel(worker);
    for (char &c : out) {
        if (c == '.' || c == ':' || c == '\\')
            c = '_';
    }
    return out.empty() ? std::string("w") : out;
}

/**
 * Atomic publish: write to a hidden temp next to @p path, rename into
 * place.  Readers only ever observe complete files.  Returns false on
 * I/O failure (callers degrade to "not published").
 */
bool
publishFile(const std::string &path, const std::string &content,
            const std::string &worker)
{
    const fs::path p(path);
    const std::string tmp =
        (p.parent_path() / ("." + p.filename().string() + ".tmp-" +
                            safeWorker(worker)))
            .string();
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        os << content;
        if (!os.flush())
            return false;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

std::string
leaseJson(const FarmConfig &cfg, unsigned attempt, bool released)
{
    report::JsonValue doc = report::JsonValue::object();
    doc["schema"] = "stashsim-farm-lease-v1";
    doc["worker"] = cfg.workerId;
    doc["pid"] = double(::getpid());
    doc["heartbeatMs"] = double(wallMs());
    doc["attempt"] = double(attempt);
    doc["released"] = released;
    return doc.dump();
}

/**
 * Reads and parses a farm state file.  False when it is missing,
 * unparseable, or not a JSON object.
 */
bool
readJsonObject(const std::string &path, report::JsonValue &doc)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::stringstream buf;
    buf << is.rdbuf();
    std::string err;
    return report::JsonValue::parse(buf.str(), doc, err) &&
           doc.isObject();
}

/**
 * @p v as an integer in [0, @p max].  False for a missing value, a
 * non-number, or a negative, fractional, non-finite or out-of-range
 * number, none of which may be cast to an integer.
 */
bool
wholeNumber(const report::JsonValue *v, std::uint64_t max,
            std::uint64_t &out)
{
    if (!v || !v->isNumber())
        return false;
    const double d = v->asNumber();
    // 2^64: every finite double below it converts to uint64 exactly.
    if (!(d >= 0) || d >= 18446744073709551616.0 || d != std::floor(d))
        return false;
    const auto u = std::uint64_t(d);
    if (u > max)
        return false;
    out = u;
    return true;
}

} // namespace

std::uint64_t
wallMs()
{
    using namespace std::chrono;
    return std::uint64_t(duration_cast<milliseconds>(
                             system_clock::now().time_since_epoch())
                             .count());
}

std::string
leasePath(const std::string &dir, const std::string &label)
{
    return join(dir, "LEASE_" + label + ".json");
}

std::string
failedPath(const std::string &dir, const std::string &label)
{
    return join(dir, "FAILED_" + label + ".json");
}

bool
leaseExists(const std::string &dir, const std::string &label)
{
    std::error_code ec;
    return fs::exists(leasePath(dir, label), ec);
}

bool
readLease(const std::string &path, Lease &out)
{
    report::JsonValue doc;
    if (!readJsonObject(path, doc))
        return false;
    Lease l;
    std::uint64_t attempt = 0;
    const report::JsonValue *worker = doc.find("worker");
    if (!worker || !worker->isString() ||
        !wholeNumber(doc.find("heartbeatMs"), UINT64_MAX,
                     l.heartbeatMs) ||
        !wholeNumber(doc.find("attempt"), UINT_MAX, attempt))
        return false;
    l.worker = worker->asString();
    l.attempt = unsigned(attempt);
    if (const report::JsonValue *pid = doc.find("pid")) {
        if (!wholeNumber(pid, UINT64_MAX, l.pid))
            return false;
    }
    if (const report::JsonValue *rel = doc.find("released")) {
        if (!rel->isBool())
            return false;
        l.released = rel->asBool();
    }
    out = std::move(l);
    return true;
}

namespace
{

/** Fresh claim at @p attempt: publish-by-hard-link so exactly one
 *  claimant wins when several race on an absent lease. */
ClaimResult
claimFresh(const std::string &dir, const std::string &label,
           const FarmConfig &cfg, unsigned attempt, bool reclaimed)
{
    const std::string lease = leasePath(dir, label);
    const std::string tmp =
        join(dir, ".LEASE_" + label + ".claim-" +
                      safeWorker(cfg.workerId));
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return {ClaimStatus::Busy, 0, false};
        os << leaseJson(cfg, attempt, false);
        if (!os.flush())
            return {ClaimStatus::Busy, 0, false};
    }
    std::error_code ec;
    fs::create_hard_link(tmp, lease, ec);
    std::error_code ec2;
    fs::remove(tmp, ec2);
    if (ec)
        return {ClaimStatus::Busy, 0, false};
    return {ClaimStatus::Claimed, attempt, reclaimed};
}

} // namespace

ClaimResult
tryClaim(const std::string &dir, const std::string &label,
         const FarmConfig &cfg)
{
    std::error_code ec;
    if (fs::exists(failedPath(dir, label), ec))
        return {ClaimStatus::Exhausted, 0, false};

    const std::string lease = leasePath(dir, label);
    if (!fs::exists(lease, ec))
        return claimFresh(dir, label, cfg, 1, false);

    Lease l;
    if (!readLease(lease, l)) {
        // Every publish is atomic, so an unreadable lease is genuine
        // corruption, not a write in flight.  Its heartbeat can never
        // advance; move it aside so the next pass can claim fresh.
        quarantineFile(dir, lease);
        return {ClaimStatus::Busy, 0, false};
    }

    const bool stale = wallMs() > l.heartbeatMs + cfg.leaseTtlMs;
    if (!l.released && !stale)
        return {ClaimStatus::Busy, 0, false};

    // Takeover: move the lease aside first.  Only one thief can win
    // the rename; everyone else sees ENOENT and backs off.
    const std::string tk =
        join(dir,
             ".LEASE_" + label + ".tk-" + safeWorker(cfg.workerId));
    fs::rename(lease, tk, ec);
    if (ec)
        return {ClaimStatus::Busy, 0, false};
    // Re-read the file we actually stole (it may have been
    // re-published between our read and our rename).
    Lease stolen = l;
    readLease(tk, stolen);
    fs::remove(tk, ec);

    const unsigned next = stolen.attempt + 1;
    const bool was_reclaim = !stolen.released;
    if (next > cfg.maxAttempts) {
        writeFailed(dir, label, cfg, stolen.attempt,
                    {was_reclaim
                         ? "attempt " + std::to_string(stolen.attempt) +
                               " died (stale lease of worker '" +
                               stolen.worker +
                               "' taken over); attempt budget "
                               "exhausted"
                         : "attempt budget exhausted after " +
                               std::to_string(stolen.attempt) +
                               " failed attempts"});
        return {ClaimStatus::Exhausted, 0, was_reclaim};
    }
    return claimFresh(dir, label, cfg, next, was_reclaim);
}

void
writeFailed(const std::string &dir, const std::string &label,
            const FarmConfig &cfg, unsigned attempts,
            const std::vector<std::string> &errors)
{
    report::JsonValue doc = report::JsonValue::object();
    doc["schema"] = "stashsim-farm-failed-v1";
    doc["label"] = label;
    doc["worker"] = cfg.workerId;
    doc["pid"] = double(::getpid());
    doc["attempts"] = double(attempts);
    report::JsonValue errs = report::JsonValue::array();
    for (const std::string &e : errors)
        errs.push(e);
    doc["errors"] = std::move(errs);
    publishFile(failedPath(dir, label), doc.dump(), cfg.workerId);
    std::error_code ec;
    fs::remove(leasePath(dir, label), ec);
}

bool
loadFailed(const std::string &dir, const std::string &label,
           unsigned &attempts, std::vector<std::string> &errors)
{
    report::JsonValue doc;
    std::uint64_t att = 0;
    if (!readJsonObject(failedPath(dir, label), doc) ||
        !wholeNumber(doc.find("attempts"), UINT_MAX, att))
        return false;
    const report::JsonValue *errs = doc.find("errors");
    if (!errs || !errs->isArray())
        return false;
    std::vector<std::string> msgs;
    for (std::size_t i = 0; i < errs->size(); ++i) {
        if (!errs->at(i).isString())
            return false;
        msgs.push_back(errs->at(i).asString());
    }
    attempts = unsigned(att);
    errors = std::move(msgs);
    return true;
}

void
clearFailed(const std::string &dir, const std::string &label)
{
    std::error_code ec;
    fs::remove(failedPath(dir, label), ec);
}

bool
quarantineFile(const std::string &dir, const std::string &path)
{
    std::error_code ec;
    const std::string qdir = join(dir, "QUARANTINE");
    fs::create_directories(qdir, ec);
    if (ec)
        return false;
    const std::string dest =
        join(qdir, fs::path(path).filename().string());
    fs::rename(path, dest, ec);
    return !ec;
}

LeaseGuard::LeaseGuard(std::string dir, std::string label,
                       FarmConfig cfg, unsigned attempt)
    : dir(std::move(dir)), label(std::move(label)),
      cfg(std::move(cfg)), attempt(attempt)
{
    const auto interval = std::chrono::milliseconds(
        std::max<std::uint64_t>(this->cfg.leaseTtlMs / 3, 10));
    heartbeat = std::thread([this, interval]() {
        std::unique_lock<std::mutex> lock(m);
        while (!cv.wait_for(lock, interval,
                            [this]() { return stopping; })) {
            lock.unlock();
            publish(false);
            lock.lock();
        }
    });
}

LeaseGuard::~LeaseGuard()
{
    if (!settled)
        releaseForRetry();
    stopHeartbeat();
}

void
LeaseGuard::stopHeartbeat()
{
    {
        std::lock_guard<std::mutex> lock(m);
        stopping = true;
    }
    cv.notify_all();
    if (heartbeat.joinable())
        heartbeat.join();
}

void
LeaseGuard::publish(bool released_flag)
{
    publishFile(leasePath(dir, label),
                leaseJson(cfg, attempt, released_flag), cfg.workerId);
}

void
LeaseGuard::releaseDone()
{
    stopHeartbeat();
    settled = true;
    // Only remove a lease that is still ours: if it was stolen (an
    // extreme heartbeat stall), the thief's claim must survive.
    Lease l;
    const std::string path = leasePath(dir, label);
    if (readLease(path, l) && l.worker == cfg.workerId) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
}

void
LeaseGuard::releaseForRetry()
{
    stopHeartbeat();
    settled = true;
    publish(true);
}

void
LeaseGuard::releaseFailed(const std::vector<std::string> &errors)
{
    stopHeartbeat();
    settled = true;
    writeFailed(dir, label, cfg, attempt, errors);
}

} // namespace farm
} // namespace stashsim
