#include "gpu/kernel.hh"

#include <limits>
#include <optional>

#include "sim/log.hh"

namespace stashsim
{

const char *
opKindName(OpKind k)
{
    switch (k) {
      case OpKind::Compute:
        return "Compute";
      case OpKind::GlobalLd:
        return "GlobalLd";
      case OpKind::GlobalSt:
        return "GlobalSt";
      case OpKind::LocalLd:
        return "LocalLd";
      case OpKind::LocalSt:
        return "LocalSt";
      case OpKind::StashLd:
        return "StashLd";
      case OpKind::StashSt:
        return "StashSt";
      case OpKind::Barrier:
        return "Barrier";
      case OpKind::Remap:
        return "Remap";
      case OpKind::DmaXfer:
        return "DmaXfer";
      default:
        return "?";
    }
}

WarpOp
computeOp(std::uint16_t cycles, std::int32_t acc_delta)
{
    WarpOp op;
    op.kind = OpKind::Compute;
    op.cycles = cycles;
    op.accDelta = acc_delta;
    return op;
}

WarpOp
barrierOp()
{
    WarpOp op;
    op.kind = OpKind::Barrier;
    return op;
}

namespace
{

/**
 * The one signed 32-bit distance, modulo 2^64, between every two
 * neighbouring lanes of @p a (0 for a single lane), if there is one.
 */
std::optional<std::int32_t>
constantStep(std::span<const Addr> a)
{
    if (a.empty())
        return std::nullopt;
    if (a.size() == 1)
        return 0;
    const Addr d = a[1] - a[0];
    const std::int64_t s = std::int64_t(d);
    if (s < std::numeric_limits<std::int32_t>::min() ||
        s > std::numeric_limits<std::int32_t>::max()) {
        return std::nullopt;
    }
    for (std::size_t i = 2; i < a.size(); ++i) {
        if (a[i] - a[i - 1] != d)
            return std::nullopt;
    }
    return std::int32_t(s);
}

} // namespace

WarpOp
ThreadBlock::memOp(OpKind kind, std::span<const Addr> lane_addrs,
                   std::uint8_t map_slot)
{
    sim_assert(lane_addrs.size() <= warpLanes);
    WarpOp op;
    op.kind = kind;
    op.mapSlot = map_slot;
    op.lanes = std::uint8_t(lane_addrs.size());
    op.index = std::uint32_t(addrs.size());
    if (const auto step = constantStep(lane_addrs)) {
        op.strided = true;
        op.step = *step;
        addrs.push_back(lane_addrs.front());
    } else {
        addrs.insert(addrs.end(), lane_addrs.begin(), lane_addrs.end());
    }
    return op;
}

WarpOp
ThreadBlock::storeValueOp(OpKind kind, std::span<const Addr> lane_addrs,
                          std::uint32_t value, std::uint8_t map_slot)
{
    WarpOp op = memOp(kind, lane_addrs, map_slot);
    op.value = value;
    return op;
}

WarpOp
ThreadBlock::storeAccOp(OpKind kind, std::span<const Addr> lane_addrs,
                        std::uint8_t map_slot)
{
    WarpOp op = memOp(kind, lane_addrs, map_slot);
    op.storeAcc = true;
    return op;
}

std::uint64_t
ThreadBlock::dynamicInstructions() const
{
    std::uint64_t n = addMaps.size() + dmaLoads.size() +
                      dmaStores.size();
    for (const auto &w : warps)
        n += w.size();
    return n;
}

std::uint64_t
Kernel::dynamicInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &b : blocks)
        n += b.dynamicInstructions();
    return n;
}

} // namespace stashsim
