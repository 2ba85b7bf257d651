/**
 * @file
 * Functional backing store plus a fixed-latency DRAM timing model.
 *
 * The LLC banks are the only clients: an LLC miss fetches a full line
 * after `dramCycles`, and dirty LLC evictions write lines back.  The
 * store is word-addressed and sparse (lines materialize zero-filled
 * on first touch), so arbitrarily placed workload data costs only
 * what it uses.
 *
 * DRAM traffic does not cross the mesh in this model (the paper's
 * Figure 5d counts NoC flit crossings; memory-controller links are
 * outside that accounting), and DRAM access energy is likewise
 * outside the paper's five-way energy breakdown.
 */

#ifndef STASHSIM_MEM_MAIN_MEMORY_HH
#define STASHSIM_MEM_MAIN_MEMORY_HH

#include <unordered_map>

#include "mem/line.hh"
#include "sim/types.hh"

namespace stashsim
{

class SnapshotWriter;
class SnapshotReader;

/**
 * The physical memory image.
 */
class MainMemory
{
  public:
    MainMemory();

    /** Serializes the sparse image, sorted by line address. */
    void snapshot(SnapshotWriter &w) const;

    /** Replaces the image with a checkpointed one. */
    void restore(SnapshotReader &r);

    /** Reads the full line at physical line address @p line_pa. */
    LineData readLine(PhysAddr line_pa) const;

    /** Writes words selected by @p mask of the line at @p line_pa. */
    void writeLine(PhysAddr line_pa, WordMask mask, const LineData &d);

    /** Reads one word. */
    std::uint32_t readWord(PhysAddr pa) const;

    /** Writes one word. */
    void writeWord(PhysAddr pa, std::uint32_t value);

    /** Number of distinct lines touched (for tests/telemetry). */
    std::size_t linesTouched() const;

  private:
    std::unordered_map<PhysAddr, LineData> lines;
};

} // namespace stashsim

#endif // STASHSIM_MEM_MAIN_MEMORY_HH
