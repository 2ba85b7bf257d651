/**
 * @file
 * The paper's memory system: a flat, fixed-latency DRAM.
 *
 * Every fill completes after `dramCycles` regardless of load, and
 * writebacks are free — byte-identical by construction to the
 * pre-backend inline model (one event per miss, scheduled at the
 * same tick from the same call site).
 */

#ifndef STASHSIM_MEM_BACKEND_FIXED_BACKEND_HH
#define STASHSIM_MEM_BACKEND_FIXED_BACKEND_HH

#include "mem/backend/mem_backend.hh"

namespace stashsim
{

class FixedBackend : public MemBackend
{
  public:
    FixedBackend(const MemBackendConfig &cfg, EventQueue &eq,
                 MainMemory &mem, Tick clock_period);

    void readLine(PhysAddr line_pa, ReadCallback done) override;
    void writeLine(PhysAddr line_pa, WordMask mask,
                   const LineData &d) override;

  private:
    const Tick readTicks;
};

} // namespace stashsim

#endif // STASHSIM_MEM_BACKEND_FIXED_BACKEND_HH
