/**
 * @file
 * NoC fault injector: seeded, deterministic message perturbation.
 *
 * Sits between the Fabric and the Mesh.  Every message may be delayed
 * by a random (bounded) number of cycles, and idempotent response
 * types may additionally be duplicated.  The perturbations stay
 * within what the protocol is specified to tolerate:
 *
 *  - Per-(src,dst) FIFO order is preserved for primary deliveries: a
 *    delayed message holds back later messages on the same pair
 *    (DeNovo relies on a store's RegReq reaching the directory before
 *    any later writeback of the same words).  Cross-pair reordering
 *    arises naturally from independent delays.
 *  - Only ReadResp/RegAck/WbAck are duplicated.  Receivers drop late
 *    duplicates of these (no MSHR / no pending fill / acks ignored);
 *    duplicating a RegReq or InvReq would genuinely corrupt the
 *    directory, and the DMA engine asserts on unexpected responses.
 *
 * All randomness comes from one seeded mt19937_64 consulted in
 * simulation order, so a given (seed, workload) run is exactly
 * reproducible.
 */

#ifndef STASHSIM_VERIFY_FAULT_INJECTOR_HH
#define STASHSIM_VERIFY_FAULT_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <utility>

#include "config/system_config.hh"
#include "mem/coherence/msg.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace stashsim
{

/**
 * Deterministic NoC fault injector.
 */
class FaultInjector
{
  public:
    /** The actual mesh dispatch; safe to invoke more than once. */
    using DispatchFn = std::function<void()>;

    struct Stats
    {
        std::uint64_t messages = 0;   //!< messages seen
        std::uint64_t delayed = 0;    //!< primary deliveries delayed
        std::uint64_t duplicated = 0; //!< extra duplicate deliveries
    };

    FaultInjector(EventQueue &eq, const VerifyConfig &cfg);

    /** True when @p t tolerates duplicate delivery at every receiver. */
    static bool duplicableType(MsgType t);

    /**
     * Routes one message: dispatches immediately, or schedules the
     * dispatch (and possibly a duplicate) at perturbed times.
     */
    void inject(NodeId src, NodeId dst, const Msg &msg,
                DispatchFn dispatch);

    const Stats &stats() const { return _stats; }

    /** Total injected faults (delays + duplicates). */
    std::uint64_t faults() const
    {
        return _stats.delayed + _stats.duplicated;
    }

  private:
    /** One permille draw against @p permille (deterministic). */
    bool roll(unsigned permille);

    EventQueue &eq;
    VerifyConfig cfg;
    std::mt19937_64 rng;
    /** Last primary release tick per (src,dst): the FIFO clamp. */
    std::map<std::pair<NodeId, NodeId>, Tick> lastRelease;
    Stats _stats;
};

} // namespace stashsim

#endif // STASHSIM_VERIFY_FAULT_INJECTOR_HH
