/**
 * @file
 * Fibers: the host execution vehicle of simulated processes.
 *
 * Every simulated process runs its host code (the application main and
 * the kernel work it triggers) on a Fiber, a ucontext coroutine that
 * shares the scheduler's host thread. Switching is a swapcontext: the
 * scheduler resumes a fiber, which runs until it blocks, yields or
 * exits and then suspends back. No host thread, lock or condition
 * variable is involved, so handing the CPU to a simulated process never
 * costs a host context switch.
 *
 * Stacks come from a StackPool: 8 MB MAP_NORESERVE mappings (host
 * memory is committed only as the stack grows) with a PROT_NONE guard
 * page below each, so an overflow faults instead of silently corrupting
 * a neighbour. A finished fiber's stack goes back to the pool, so the
 * number of stacks ever mapped is the peak number of processes that
 * were running at once.
 *
 * Under AddressSanitizer every switch is announced with
 * __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so
 * stack-use and exception unwinding checks follow the fiber.
 */

#ifndef VG_KERNEL_FIBER_HH
#define VG_KERNEL_FIBER_HH

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

namespace vg::kern
{

/** One usable fiber stack (the guard page lies just below base). */
struct FiberStack
{
    void *base = nullptr;
    size_t size = 0;
};

/** Maps fiber stacks on demand and recycles them. */
class StackPool
{
  public:
    /** Usable bytes per stack (the host's default thread stack). */
    static constexpr size_t stackBytes = size_t(8) << 20;

    StackPool() = default;
    ~StackPool();

    StackPool(const StackPool &) = delete;
    StackPool &operator=(const StackPool &) = delete;

    /** A recycled stack if one is free, else a freshly mapped one. */
    FiberStack acquire();

    /** Return @p stack for reuse. */
    void release(FiberStack stack);

    /** Stacks mapped so far (in use plus free). */
    size_t mapped() const { return _mapped; }

  private:
    std::vector<FiberStack> _free;
    size_t _mapped = 0;
};

/**
 * A coroutine running one body on a pooled stack. The stack is taken
 * at the first resume() and returned as soon as the body finishes, so
 * a fiber that never runs costs no stack at all.
 */
class Fiber
{
  public:
    Fiber() = default;
    /** A fiber abandoned mid-body gives its stack back unwound. */
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Set the body; it first runs at the next resume(). */
    void init(StackPool &pool, std::function<void()> body);

    /** Caller side: run the fiber until it suspends or finishes. An
     *  exception that escapes the body is rethrown here. */
    void resume();

    /** Fiber side: switch back to the caller of resume(). */
    void suspend();

  private:
    static void trampoline(unsigned lo, unsigned hi);

    StackPool *_pool = nullptr;
    std::function<void()> _body;
    FiberStack _stack;
    bool _finished = false;
    std::exception_ptr _escaped;

    ucontext_t _self{};
    ucontext_t _caller{};

    // AddressSanitizer bookkeeping: the fiber's fake-stack handle while
    // suspended and the caller's stack bounds to switch back to.
    void *_fakeStack = nullptr;
    const void *_callerBottom = nullptr;
    size_t _callerSize = 0;
};

} // namespace vg::kern

#endif // VG_KERNEL_FIBER_HH
