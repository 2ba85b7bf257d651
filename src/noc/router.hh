/**
 * @file
 * Mesh router model.
 *
 * Each router owns the five output links of its node (north, south,
 * east, west, and the local ejection port).  Contention is modelled as
 * per-link channel reservations: a packet crossing a link reserves it
 * for its serialization time, and later packets wait for the channel
 * to free.  This is a wormhole approximation that captures the
 * first-order queueing effects (bursty DMA/writeback traffic slowing
 * the network) without per-flit simulation.
 */

#ifndef STASHSIM_NOC_ROUTER_HH
#define STASHSIM_NOC_ROUTER_HH

#include <array>

#include "sim/types.hh"

namespace stashsim
{

/** Output port directions of a mesh router. */
enum class Direction : unsigned
{
    North = 0,
    South = 1,
    East = 2,
    West = 3,
    Local = 4,
    NumDirections = 5
};

/**
 * A single mesh router: per-output-link channel reservation state.
 */
class Router
{
  public:
    /**
     * Reserves the output link @p dir starting no earlier than
     * @p earliest for @p duration ticks.
     *
     * @return the tick at which the reservation ends (i.e., when the
     *         packet's tail flit has crossed the link).
     */
    Tick reserve(Direction dir, Tick earliest, Tick duration);

    /** Next tick at which @p dir is free (for tests/telemetry). */
    Tick
    busyUntil(Direction dir) const
    {
        return _busyUntil[unsigned(dir)];
    }

    /** Clears all channel reservations. */
    void reset() { _busyUntil.fill(0); }

  private:
    std::array<Tick, unsigned(Direction::NumDirections)> _busyUntil{};
};

} // namespace stashsim

#endif // STASHSIM_NOC_ROUTER_HH
