/**
 * @file
 * SlotPool: per-request records recycled through a free list and
 * named by index, so a component's request path costs no allocation
 * once its pool has grown to its peak (DESIGN.md §9.6).  Each pool
 * belongs to one component.
 *
 * A released record keeps its storage (a vector member keeps its
 * capacity) for the next take().  An index stays valid while its
 * record is live; a reference does not survive the next take().
 * Naming or releasing a record that is not live panics: the sanitizers
 * cannot see a use after recycling, so these checks are the guard.
 */

#ifndef STASHSIM_SIM_SLOT_POOL_HH
#define STASHSIM_SIM_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/log.hh"

namespace stashsim
{

template <class T>
class SlotPool
{
  public:
    /** Takes a free record, growing the pool when none is free. */
    std::uint32_t
    take()
    {
        if (freeSlots.empty()) {
            freeSlots.push_back(std::uint32_t(slots.size()));
            slots.emplace_back();
        }
        const std::uint32_t i = freeSlots.back();
        freeSlots.pop_back();
        slots[i].live = true;
        return i;
    }

    /** Returns live record @p i to the free list. */
    void
    release(std::uint32_t i)
    {
        sim_assert(i < slots.size() && slots[i].live);
        slots[i].live = false;
        freeSlots.push_back(i);
    }

    /** Live record @p i. */
    T &
    operator[](std::uint32_t i)
    {
        sim_assert(i < slots.size() && slots[i].live);
        return slots[i].record;
    }

    /** Records taken and not released. */
    std::size_t live() const { return slots.size() - freeSlots.size(); }

  private:
    struct Slot
    {
        T record{};
        bool live = false;
    };

    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
};

} // namespace stashsim

#endif // STASHSIM_SIM_SLOT_POOL_HH
