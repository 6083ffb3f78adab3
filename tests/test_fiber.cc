/**
 * @file
 * Fiber lifecycle tests: processes run as fibers on pooled, guarded
 * stacks that are recycled on exit; deep stacks, kills while blocked
 * and machines torn down before they run are all clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "kernel/system.hh"

using namespace vg;
using namespace vg::kern;

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.memFrames = 4096;  // 16 MB
    cfg.diskBlocks = 4096; // 16 MB
    cfg.rsaBits = 384;
    return cfg;
}

/** Recurse @p depth frames of 4 KB each; returns a checksum so the
 *  frames cannot be folded away. */
__attribute__((noinline)) uint64_t
deepStack(unsigned depth)
{
    volatile uint8_t frame[4096];
    for (size_t i = 0; i < sizeof(frame); i += 512)
        frame[i] = uint8_t(depth + i);
    uint64_t below = depth ? deepStack(depth - 1) : 0;
    return below + frame[0] + frame[4095];
}

/** Sets @p flag when destroyed (the RAII witness for unwinding). */
struct Witness
{
    bool &flag;
    bool *stillAlive;
    Kernel &kernel;
    uint64_t pid;

    ~Witness()
    {
        // Unwinding happens on the process fiber, before the exit path
        // turns the process into a zombie.
        *stillAlive = kernel.process(pid)->alive();
        flag = true;
    }
};

} // namespace

TEST(Fiber, SequentialForksRecycleStacks)
{
    System sys(smallConfig());
    sys.boot();
    constexpr int children = 2000;
    int mismatches = 0;
    size_t max_table = 0;
    int code = sys.runProcess("parent", [&](UserApi &api) {
        for (int i = 0; i < children; i++) {
            uint64_t pid = api.fork([i](UserApi &) { return i % 251; });
            max_table = std::max(max_table,
                                 api.kernel().processTableSize());
            int status = -1;
            if (api.waitpid(pid, status) != 0 || status != i % 251)
                mismatches++;
            // Reaped: gone from the table, its code still answers.
            if (api.kernel().process(pid) != nullptr ||
                api.waitpid(pid, status) != 0 || status != i % 251)
                mismatches++;
        }
        return 0;
    });
    EXPECT_EQ(code, 0);
    EXPECT_EQ(mismatches, 0);
    // The table held the parent and one child at a time, not every
    // fork ever made.
    EXPECT_LE(max_table, 2u);
    EXPECT_EQ(sys.kernel().exitCodes().size(), size_t(children + 1));
    // At most the parent and one child were ever running at once.
    EXPECT_LE(sys.kernel().fiberStacksMapped(), 2u);
}

TEST(Fiber, ConcurrentChildrenMapOneStackEach)
{
    System sys(smallConfig());
    sys.boot();
    constexpr int children = 8;
    int code = sys.runProcess("parent", [&](UserApi &api) {
        std::vector<uint64_t> pids;
        for (int i = 0; i < children; i++)
            pids.push_back(api.fork([](UserApi &capi) {
                capi.yield();
                return 7;
            }));
        int sum = 0;
        for (uint64_t pid : pids) {
            int status = 0;
            api.waitpid(pid, status);
            sum += status;
        }
        return sum;
    });
    EXPECT_EQ(code, 7 * children);
    EXPECT_LE(sys.kernel().fiberStacksMapped(), size_t(children + 1));
}

TEST(Fiber, MegabyteOfStackCompletes)
{
    System sys(smallConfig());
    sys.boot();
    uint64_t sum = 0;
    int code = sys.runProcess("deep", [&](UserApi &api) {
        api.yield(); // suspend and resume with the deep frames to come
        sum = deepStack(256); // 256 x 4 KB = 1 MB of frames
        api.yield();
        return 5;
    });
    EXPECT_EQ(code, 5);
    EXPECT_NE(sum, 0u);
}

TEST(Fiber, KillWhileBlockedUnwindsRaii)
{
    System sys(smallConfig());
    sys.boot();
    bool destroyed = false;
    bool alive_at_unwind = false;
    int code = sys.runProcess("killer", [&](UserApi &api) {
        uint64_t victim = api.fork([&](UserApi &capi) {
            Witness w{destroyed, &alive_at_unwind, capi.kernel(),
                      capi.pid()};
            int ls = capi.socket();
            capi.bind(ls, 9090);
            capi.listen(ls);
            capi.accept(ls); // nobody connects: blocks until killed
            return 0;
        });
        while (api.kernel().process(victim)->state != ProcState::Blocked)
            api.yield();
        if (destroyed)
            return 1;
        api.kill(victim, 9);
        int status = 0;
        api.waitpid(victim, status);
        return status;
    });
    EXPECT_EQ(code, 137);
    EXPECT_TRUE(destroyed);
    EXPECT_TRUE(alive_at_unwind);
    EXPECT_EQ(sys.kernel().fiberStacksMapped(), 2u);
}

TEST(Fiber, SystemDestroyedBeforeRunIsClean)
{
    // Processes spawned but never run hold no stack; destroying the
    // machine frees their bodies and captured state (checked under
    // AddressSanitizer/LeakSanitizer in the sanitizer build).
    auto payload = std::make_shared<std::vector<uint8_t>>(1 << 16, 0x5a);
    {
        System sys(smallConfig());
        sys.boot();
        sys.kernel().spawn("never-a", [payload](UserApi &) {
            return int(payload->size());
        });
        sys.kernel().spawn("never-b", [](UserApi &) { return 0; });
        EXPECT_EQ(payload.use_count(), 2);
        EXPECT_EQ(sys.kernel().fiberStacksMapped(), 0u);
    }
    EXPECT_EQ(payload.use_count(), 1);

    // Same after a completed run() followed by a spawn that never runs.
    System sys(smallConfig());
    sys.boot();
    EXPECT_EQ(sys.runProcess("first", [](UserApi &) { return 3; }), 3);
    sys.kernel().spawn("late", [payload](UserApi &) { return 0; });
    EXPECT_EQ(sys.kernel().fiberStacksMapped(), 1u);
}

TEST(FiberDeathTest, StackOverflowHitsGuardPage)
{
    EXPECT_DEATH(
        {
            System sys(smallConfig());
            sys.boot();
            // 4096 x 4 KB = 16 MB: twice the fiber stack.
            sys.runProcess("overflow", [](UserApi &) {
                return int(deepStack(4096));
            });
        },
        "");
}

TEST(Fiber, EscapingExceptionReachesRunCaller)
{
    System sys(smallConfig());
    sys.boot();
    sys.kernel().spawn("thrower", [](UserApi &api) -> int {
        api.yield();
        throw std::runtime_error("escaped the process body");
    });
    EXPECT_THROW(sys.kernel().run(), std::runtime_error);
    EXPECT_EQ(sys.kernel().fiberStacksMapped(), 1u);
}
