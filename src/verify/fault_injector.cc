#include "verify/fault_injector.hh"

#include <algorithm>

namespace stashsim
{

FaultInjector::FaultInjector(EventQueue &eq, const VerifyConfig &cfg)
    : eq(eq), cfg(cfg), rng(cfg.faultSeed)
{
}

bool
FaultInjector::duplicableType(MsgType t)
{
    switch (t) {
      case MsgType::ReadResp:
      case MsgType::RegAck:
      case MsgType::WbAck:
        return true;
      default:
        return false;
    }
}

bool
FaultInjector::roll(unsigned permille)
{
    if (permille == 0)
        return false;
    return rng() % 1000 < permille;
}

void
FaultInjector::inject(NodeId src, NodeId dst, const Msg &msg,
                      DispatchFn dispatch)
{
    ++_stats.messages;

    Tick release = eq.curTick();
    if (roll(cfg.faultDelayPermille)) {
        const Cycles cycles = rng() % (cfg.faultMaxDelayCycles + 1);
        release += cycles * gpuClockPeriod;
        ++_stats.delayed;
    }

    // FIFO clamp: never release before an earlier message on the same
    // pair.  The mesh preserves pair order for sends at non-decreasing
    // ticks (link reservations are monotonic; equal-tick events run in
    // insertion order), so clamping the release tick is sufficient.
    Tick &last = lastRelease[{src, dst}];
    release = std::max(release, last);
    last = release;

    if (release == eq.curTick())
        dispatch();
    else
        eq.schedule(release, dispatch, EventQueue::PriDelivery);

    // requesterUnit names the receiver of a response; the DMA engine
    // matches responses against a one-shot pending table, so a
    // duplicate there is a protocol-illegal fault, not a tolerated
    // one.
    const bool dma_bound = msg.requesterUnit == Unit::Dma;
    if (!dma_bound && duplicableType(msg.type) &&
        roll(cfg.faultDupPermille)) {
        const Tick span =
            std::max<Tick>(cfg.faultDupDelayCycles * gpuClockPeriod, 1);
        const Tick extra = 1 + rng() % span;
        ++_stats.duplicated;
        // The duplicate is deliberately outside the FIFO clamp: late
        // duplicates of these types are exactly the fault being
        // injected, and every receiver discards them.
        eq.schedule(release + extra, std::move(dispatch),
                    EventQueue::PriDelivery);
    }
}

} // namespace stashsim
