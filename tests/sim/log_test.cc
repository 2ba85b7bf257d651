/**
 * @file
 * Tests for the diagnostic-hook machinery and fatal() semantics.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/log.hh"

namespace stashsim
{
namespace
{

TEST(LogTest, FatalThrowsWithMessage)
{
    try {
        fatal("broken ", 42);
        FAIL() << "fatal() returned";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("broken 42"),
                  std::string::npos);
    }
}

TEST(DiagnosticHookTest, FlushRunsHooksInRegistrationOrder)
{
    std::vector<int> order;
    const std::size_t a = registerDiagnosticHook(
        [&order]() { order.push_back(1); });
    const std::size_t b = registerDiagnosticHook(
        [&order]() { order.push_back(2); });
    flushDiagnosticHooks();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    unregisterDiagnosticHook(a);
    unregisterDiagnosticHook(b);
}

TEST(DiagnosticHookTest, UnregisteredHookNoLongerRuns)
{
    int fired = 0;
    const std::size_t id =
        registerDiagnosticHook([&fired]() { ++fired; });
    unregisterDiagnosticHook(id);
    flushDiagnosticHooks();
    EXPECT_EQ(fired, 0);
}

TEST(DiagnosticHookTest, FatalFlushesHooksExactlyOnce)
{
    int fired = 0;
    const std::size_t id =
        registerDiagnosticHook([&fired]() { ++fired; });
    EXPECT_THROW(fatal("with hooks"), std::runtime_error);
    EXPECT_EQ(fired, 1);
    unregisterDiagnosticHook(id);
}

TEST(DiagnosticHookTest, ReentrantFlushDoesNotRecurse)
{
    int fired = 0;
    const std::size_t id = registerDiagnosticHook([&fired]() {
        ++fired;
        // A hook that itself fails would re-enter the flush; the
        // guard must make this a no-op instead of infinite recursion.
        flushDiagnosticHooks();
    });
    flushDiagnosticHooks();
    EXPECT_EQ(fired, 1);
    unregisterDiagnosticHook(id);
}

TEST(DiagnosticHookTest, HookMayRegisterAnotherHookDuringFlush)
{
    int late = 0;
    std::size_t late_id = 0;
    const std::size_t id = registerDiagnosticHook([&]() {
        late_id = registerDiagnosticHook([&late]() { ++late; });
    });
    // The index-based flush loop also runs hooks appended mid-flush.
    flushDiagnosticHooks();
    EXPECT_EQ(late, 1);
    unregisterDiagnosticHook(id);
    unregisterDiagnosticHook(late_id);
}

/**
 * A hook that fails by calling fatal() must neither replace the
 * failure being reported nor stop this thread's later failures from
 * flushing.
 */
TEST(DiagnosticHookTest, ThrowingHookNeitherMasksFatalNorDisablesFlush)
{
    int after = 0;
    const std::size_t failing =
        registerDiagnosticHook([]() { fatal("hook failed"); });
    const std::size_t later =
        registerDiagnosticHook([&after]() { ++after; });
    try {
        fatal("first");
        ADD_FAILURE() << "fatal() returned";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("first"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(after, 1) << "a hook after the failing one did not run";
    unregisterDiagnosticHook(failing);
    unregisterDiagnosticHook(later);

    int registered_afterwards = 0;
    const std::size_t id = registerDiagnosticHook(
        [&registered_afterwards]() { ++registered_afterwards; });
    EXPECT_THROW(fatal("second"), std::runtime_error);
    EXPECT_EQ(registered_afterwards, 1)
        << "the guard stayed set after the failing hook";
    unregisterDiagnosticHook(id);
}

/**
 * In a `--jobs N` sweep each thread runs its own System: a fatal()
 * on one thread must dump that thread's state only, never run a hook
 * whose System another thread is still changing.
 */
TEST(DiagnosticHookTest, FatalRunsOnlyItsOwnThreadsHooks)
{
    int mine = 0;
    int theirs = 0;
    const std::size_t id =
        registerDiagnosticHook([&mine]() { ++mine; });
    std::thread([&theirs]() {
        const std::size_t other =
            registerDiagnosticHook([&theirs]() { ++theirs; });
        EXPECT_THROW(fatal("failure on another thread"),
                     std::runtime_error);
        unregisterDiagnosticHook(other);
    }).join();
    EXPECT_EQ(theirs, 1) << "the failing thread's hook must run";
    EXPECT_EQ(mine, 0) << "another thread's hook ran";
    unregisterDiagnosticHook(id);
}

} // namespace
} // namespace stashsim
