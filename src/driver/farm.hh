/**
 * @file
 * Farm protocol: crash-safe work stealing over a sweep state dir
 * (DESIGN.md §12).
 *
 * N independent workers — threads in one process, processes on one
 * host, or hosts on a shared filesystem — drain one sweep by claiming
 * specs through atomic lease files next to the RESULT_* result cache
 * the sweep already maintains:
 *
 *   LEASE_<label>.json   the spec is claimed (or was released for
 *                        retry after a failed attempt)
 *   FAILED_<label>.json  the spec exhausted its attempt budget; the
 *                        captured diagnostics ride in the file
 *   QUARANTINE/          corrupt or stale RESULT_* files, moved aside
 *                        instead of silently overwritten
 *
 * A claim is atomic: the lease body is written to a hidden temp file
 * and published with a hard link, which fails if the lease already
 * exists — exactly one claimant wins, and a reader never observes a
 * half-written lease.  Owners re-publish their lease (temp + rename)
 * on a heartbeat; a lease whose heartbeat is older than the TTL is
 * presumed dead and taken over by renaming it aside — again, exactly
 * one thief can win the rename.
 *
 * Safety does not depend on the lease protocol being airtight: runs
 * are deterministic and every artifact is published with an atomic
 * temp+rename, so even if two workers ever run the same spec (clock
 * skew, an extreme heartbeat stall) they write byte-identical
 * artifacts and the last rename is a no-op.  Leases only prevent
 * duplicated *work*, never corrupted *results*.
 */

#ifndef STASHSIM_DRIVER_FARM_HH
#define STASHSIM_DRIVER_FARM_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace stashsim
{
namespace farm
{

/** Exit code for "interrupted, resumable" (vs 1 = failed): wrappers
 *  re-launch the worker on this code and the sweep continues from the
 *  cached results; runs that never finished start from tick 0. */
constexpr int interruptedExitCode = 75;

/** Worker identity and lease policy shared by every farm call. */
struct FarmConfig
{
    /** Unique worker id (goes into lease files and takeover names). */
    std::string workerId = "w0";
    /** Lease heartbeat time-to-live; owners re-publish every TTL/3,
     *  and a lease this stale is presumed dead and stolen. */
    std::uint64_t leaseTtlMs = 30'000;
    /** Attempts a spec gets before it is quarantined as FAILED. */
    unsigned maxAttempts = 3;
};

/** One parsed lease file. */
struct Lease
{
    std::string worker;
    std::uint64_t pid = 0;
    std::uint64_t heartbeatMs = 0; //!< wall clock, ms since epoch
    unsigned attempt = 0;          //!< 1-based attempt this lease covers
    bool released = false;         //!< failed attempt, claimable now
};

/** Wall clock in ms since the epoch (lease heartbeats only — nothing
 *  deterministic ever reads this). */
std::uint64_t wallMs();

/** @{ State-dir file names for spec @p label (an artifact-safe run
 *  label, e.g. "Reuse_Stash-smoke"). */
std::string leasePath(const std::string &dir, const std::string &label);
std::string failedPath(const std::string &dir, const std::string &label);
/** @} */

/** True when LEASE_<label>.json exists (held or released). */
bool leaseExists(const std::string &dir, const std::string &label);

/**
 * Parses a lease file.  False, with @p out untouched, when the file
 * is missing or is not an object with a string `worker` and integer
 * `heartbeatMs` and `attempt` in range (plus, when present, an
 * integer `pid` and a boolean `released`).
 */
bool readLease(const std::string &path, Lease &out);

enum class ClaimStatus
{
    Claimed,  //!< this worker owns the spec; run it
    Busy,     //!< another live worker holds it; come back later
    Exhausted //!< attempt budget spent; FAILED_<label>.json has why
};

struct ClaimResult
{
    ClaimStatus status = ClaimStatus::Busy;
    unsigned attempt = 0; //!< 1-based attempt number when Claimed
    bool reclaimed = false; //!< won by stealing a stale lease
};

/**
 * Tries to claim spec @p label in @p dir.  Handles every lease state:
 * absent (fresh claim, attempt 1), released (retry claim, attempt+1),
 * stale (takeover, attempt+1), live (Busy).  When the next attempt
 * would exceed cfg.maxAttempts the spec is quarantined as FAILED
 * instead and Exhausted is returned.
 */
ClaimResult tryClaim(const std::string &dir, const std::string &label,
                     const FarmConfig &cfg);

/**
 * Publishes FAILED_<label>.json with the captured diagnostics and
 * removes the lease.  Atomic (temp + rename), so readers never see a
 * partial marker.
 */
void writeFailed(const std::string &dir, const std::string &label,
                 const FarmConfig &cfg, unsigned attempts,
                 const std::vector<std::string> &errors);

/**
 * Reads FAILED_<label>.json.  False, with the outputs untouched, when
 * it is absent or is not an object with an integer `attempts` in
 * range and an array of strings `errors`.
 */
bool loadFailed(const std::string &dir, const std::string &label,
                unsigned &attempts, std::vector<std::string> &errors);

/** Removes a FAILED marker (fresh campaigns clear stale verdicts). */
void clearFailed(const std::string &dir, const std::string &label);

/**
 * Moves @p path into <dir>/QUARANTINE/ (created on demand) so a
 * corrupt or stale artifact is preserved for postmortem instead of
 * being silently rerun over.  Returns false when the move failed (the
 * caller falls back to ignoring the file).
 */
bool quarantineFile(const std::string &dir, const std::string &path);

/**
 * Owns one claimed lease for the duration of a run: a background
 * thread re-publishes the lease every TTL/3 so other workers can tell
 * a live owner from a dead one.  Exactly one release method must be
 * called; the destructor falls back to releaseForRetry() (crash-ish
 * unwind: the attempt counts, the spec stays claimable).
 */
class LeaseGuard
{
  public:
    LeaseGuard(std::string dir, std::string label, FarmConfig cfg,
               unsigned attempt);
    ~LeaseGuard();

    LeaseGuard(const LeaseGuard &) = delete;
    LeaseGuard &operator=(const LeaseGuard &) = delete;

    /** Run finished and its RESULT artifact is on disk: the lease is
     *  removed (only if still ours — a thief's lease is left alone). */
    void releaseDone();

    /** Attempt failed but budget remains: the lease is re-published
     *  released=true with this attempt number, claimable by anyone. */
    void releaseForRetry();

    /** Budget exhausted: writes FAILED_<label>.json + removes lease. */
    void releaseFailed(const std::vector<std::string> &errors);

  private:
    void stopHeartbeat();
    void publish(bool released_flag);

    std::string dir;
    std::string label;
    FarmConfig cfg;
    unsigned attempt;
    bool settled = false;

    std::mutex m;
    std::condition_variable cv;
    bool stopping = false;
    std::thread heartbeat;
};

} // namespace farm
} // namespace stashsim

#endif // STASHSIM_DRIVER_FARM_HH
