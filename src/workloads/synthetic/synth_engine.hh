/**
 * @file
 * Seeded address-stream generator for the synthetic workloads.
 *
 * A thin mt19937_64 wrapper whose whole point is reproducibility: a
 * workload generated from (spec, seed) is bit-identical no matter
 * which process or sweep thread builds it.
 */

#ifndef STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_ENGINE_HH
#define STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_ENGINE_HH

#include <cstdint>
#include <random>

namespace stashsim
{

namespace workloads
{

/**
 * Deterministic random stream; see file comment.
 */
class SynthEngine
{
  public:
    explicit SynthEngine(std::uint64_t seed) : rng(seed) {}

    /** The next raw 64-bit draw. */
    std::uint64_t next() { return rng(); }

    /** A draw reduced to [0, bound); bound must be nonzero. */
    std::uint32_t
    range(std::uint32_t bound)
    {
        return std::uint32_t(next() % bound);
    }

    /** True with probability pct/100. */
    bool
    pct(unsigned p)
    {
        return range(100) < p;
    }

  private:
    std::mt19937_64 rng;
};

} // namespace workloads
} // namespace stashsim

#endif // STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_ENGINE_HH
