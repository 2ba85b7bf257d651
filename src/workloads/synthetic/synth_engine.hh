/**
 * @file
 * Seeded address-stream generator for the synthetic workloads.
 *
 * A thin mt19937_64 wrapper whose whole point is reproducibility:
 * every draw is counted, and the stream position serializes into
 * snapshots exactly like the fault injector's RNG (DESIGN.md §11), so
 * a workload generated from (spec, seed) is bit-identical no matter
 * where — fresh, restored mid-sweep, or on a farm worker.
 */

#ifndef STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_ENGINE_HH
#define STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_ENGINE_HH

#include <cstdint>
#include <random>

namespace stashsim
{

class SnapshotWriter;
class SnapshotReader;

namespace workloads
{

/**
 * Deterministic random stream; see file comment.
 */
class SynthEngine
{
  public:
    explicit SynthEngine(std::uint64_t seed)
        : _seed(seed), rng(seed)
    {
    }

    /** The next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        ++_draws;
        return rng();
    }

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

    std::uint64_t seedValue() const { return _seed; }
    std::uint64_t draws() const { return _draws; }

    /** Serializes seed, draw count, and the mt19937_64 stream. */
    void snapshot(SnapshotWriter &w) const;
    /** Restores snapshot(); requires the seed to match. */
    void restore(SnapshotReader &r);

  private:
    std::uint64_t _seed;
    std::uint64_t _draws = 0;
    std::mt19937_64 rng;
};

} // namespace workloads
} // namespace stashsim

#endif // STASHSIM_WORKLOADS_SYNTHETIC_SYNTH_ENGINE_HH
