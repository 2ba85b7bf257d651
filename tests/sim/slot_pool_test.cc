/**
 * @file
 * SlotPool: a released record is handed out again with its storage,
 * and the live count covers exactly the records taken and not
 * released (the drain-point checks rely on it).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/slot_pool.hh"

namespace stashsim
{
namespace
{

TEST(SlotPoolTest, ReleasedRecordIsReusedWithItsStorage)
{
    SlotPool<std::vector<int>> pool;
    const std::uint32_t a = pool.take();
    pool[a].assign(100, 1);
    const std::uint32_t b = pool.take();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.live(), 2u);

    pool[a].clear();
    pool.release(a);
    EXPECT_EQ(pool.live(), 1u);
    const std::uint32_t c = pool.take();
    EXPECT_EQ(c, a);
    EXPECT_GE(pool[c].capacity(), 100u) << "the record kept its storage";

    pool.release(b);
    pool.release(c);
    EXPECT_EQ(pool.live(), 0u);
}

} // namespace
} // namespace stashsim
