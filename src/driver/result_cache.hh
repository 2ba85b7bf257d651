/**
 * @file
 * The RESULT cache's on-disk record (DESIGN.md §11): one finished
 * run's RunResult, kept so that a resumed sweep serves it instead of
 * simulating the run again.
 *
 * A record is one flat image.  Every multi-byte value is
 * little-endian and fixed-width, so the same result always writes
 * the same bytes:
 *
 *   magic       8 bytes  "STASHSNP"
 *   version     u32      resultVersion
 *   configHash  u64      configHash() of the run's resolved config
 *   run         str      u32 length + bytes: the run label and scale
 *   validated   u8
 *   gpuCycles   u64
 *   perf        6 x u64  events, simTicks, peakLiveEvents,
 *                        poolChunks, wheelInserts, farInserts
 *   errors      u32 count, then one str per error
 *   stats       u64 per SystemStats counter in visit() order, then
 *               gpuCycles and numGpuCus
 *   crc         u32      CRC32 over every byte above
 *
 * Host timings are not stored, and the energy breakdown is left for
 * the caller to recompute from the stats.
 */

#ifndef STASHSIM_DRIVER_RESULT_CACHE_HH
#define STASHSIM_DRIVER_RESULT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "driver/system.hh"

namespace stashsim
{

/** Format version written into every record. */
constexpr std::uint32_t resultVersion = 3;

/** IEEE CRC32 (reflected, 0xEDB88320) over @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n);

/**
 * Hash of every SystemConfig field, `verify` included: the checker,
 * the watchdog and above all the fault injector change what a run
 * reports, so a result cached under one setting is never served
 * under another.
 */
std::uint64_t configHash(const SystemConfig &cfg);

/** What loadResult() found; the caller reacts per outcome. */
enum class ResultLoad
{
    Ok,      //!< served: the out-parameter holds the cached result
    Missing, //!< no file: simulate
    Stale,   //!< config hash or run label differs: an edited grid
    Corrupt  //!< damaged or foreign bytes: quarantine, then simulate
};

/**
 * Writes @p r's record to @p path atomically (a temp file renamed
 * over @p path), so no reader sees a half-written record.  Throws
 * std::runtime_error naming the failing step on I/O failure.
 */
void saveResult(const std::string &path, std::uint64_t hash,
                const std::string &run, const RunResult &r);

/**
 * Reads the record at @p path.  A bad magic, another version, a CRC
 * mismatch, a field running past the end or a byte left over makes
 * it Corrupt; a valid record under another @p hash or @p run label
 * is Stale.  @p out is written only on Ok, with its energy left
 * zero.
 */
ResultLoad loadResult(const std::string &path, std::uint64_t hash,
                      const std::string &run, RunResult &out);

} // namespace stashsim

#endif // STASHSIM_DRIVER_RESULT_CACHE_HH
