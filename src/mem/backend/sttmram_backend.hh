/**
 * @file
 * STT-MRAM backing store with asymmetric read/write latency and
 * write-pausing, after FUSE (Zhang, Jung, Kandemir — see PAPERS.md).
 *
 * STT-MRAM reads are DRAM-competitive but writes take several times
 * longer.  FUSE's key scheduling trick is *write-pausing*: a read
 * arriving while writes are in flight preempts them — the pending
 * writes are suspended for the read's service time and resume after
 * — so the long writes hurt only when the write queue backs up far
 * enough to block the read port entirely.
 *
 * Timing is pure arithmetic on a queue of absolute write-completion
 * ticks: writes serialize behind each other on the write port, reads
 * shift every pending completion by their own service time (the
 * pause), and a read that finds the queue full must first wait out
 * the head write.  No write ever schedules an event, so the whole
 * model is a deque of ticks, and deterministic.
 */

#ifndef STASHSIM_MEM_BACKEND_STTMRAM_BACKEND_HH
#define STASHSIM_MEM_BACKEND_STTMRAM_BACKEND_HH

#include <deque>

#include "mem/backend/mem_backend.hh"

namespace stashsim
{

class SttMramBackend : public MemBackend
{
  public:
    SttMramBackend(const MemBackendConfig &cfg, EventQueue &eq,
                   MainMemory &mem, Tick clock_period);

    void readLine(PhysAddr line_pa, ReadCallback done) override;
    void writeLine(PhysAddr line_pa, WordMask mask,
                   const LineData &d) override;

    /** Writes still draining (after completed ones age out). */
    std::size_t pendingWrites() const;

  private:
    /** Drops completions that have passed. */
    void prune(Tick now);

    const Tick readTicks;
    const Tick writeTicks;
    const unsigned writeQueueDepth;

    /** Absolute completion ticks of in-flight writes, ascending. */
    std::deque<Tick> writeDone;
};

} // namespace stashsim

#endif // STASHSIM_MEM_BACKEND_STTMRAM_BACKEND_HH
