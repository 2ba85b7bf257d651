/**
 * @file
 * Scratchpad (CUDA "shared memory") model.
 *
 * A 16 KB directly-addressed SRAM private to one GPU CU (Table 2).
 * It has no tags, no TLB port, no coherence state — which is exactly
 * why its per-access energy (55.3 pJ, Table 3) is 29% of an L1 hit —
 * and equally why all data movement between it and the global address
 * space must be performed by explicit program instructions (the
 * global-unmapped usage mode of Section 1.2.1) or by a DMA engine.
 * Timing (1 cycle, conflict-free banking) is applied by the CU.
 */

#ifndef STASHSIM_MEM_SCRATCHPAD_HH
#define STASHSIM_MEM_SCRATCHPAD_HH

#include <cstdint>
#include <vector>

#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace stashsim
{

/**
 * Per-CU scratchpad storage.
 */
class Scratchpad
{
  public:
    explicit Scratchpad(unsigned bytes) : data(bytes / wordBytes, 0) {}

    unsigned sizeBytes() const
    {
        return unsigned(data.size()) * wordBytes;
    }

    /** Reads the word at byte address @p a. */
    std::uint32_t
    read(LocalAddr a)
    {
        ++_stats.reads;
        return data.at(a / wordBytes);
    }

    /** Writes the word at byte address @p a. */
    void
    write(LocalAddr a, std::uint32_t v)
    {
        ++_stats.writes;
        data.at(a / wordBytes) = v;
    }

    const ScratchpadStats &stats() const { return _stats; }

  private:
    std::vector<std::uint32_t> data;
    ScratchpadStats _stats;
};

} // namespace stashsim

#endif // STASHSIM_MEM_SCRATCHPAD_HH
