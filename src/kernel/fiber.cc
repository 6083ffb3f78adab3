#include "kernel/fiber.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "sim/log.hh"

#if defined(__SANITIZE_ADDRESS__)
#define VG_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VG_FIBER_ASAN 1
#endif
#endif

#ifdef VG_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace vg::kern
{

namespace
{

void
startSwitch(void **fake_stack_save, const void *bottom, size_t size)
{
#ifdef VG_FIBER_ASAN
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
    (void)fake_stack_save;
    (void)bottom;
    (void)size;
#endif
}

void
finishSwitch(void *fake_stack, const void **old_bottom, size_t *old_size)
{
#ifdef VG_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fake_stack, old_bottom, old_size);
#else
    (void)fake_stack;
    (void)old_bottom;
    (void)old_size;
#endif
}

/** Clear ASan's stack redzones from a fiber stack before it goes back
 *  to the host: the shadow outlives munmap, and a later mapping at the
 *  same address (machine storage, hw/zeroed.hh) would inherit them. */
void
unpoison(void *base, size_t size)
{
#ifdef VG_FIBER_ASAN
    __asan_unpoison_memory_region(base, size);
#else
    (void)base;
    (void)size;
#endif
}

size_t
guardBytes()
{
    static const size_t page = size_t(sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace

// --------------------------------------------------------------------
// StackPool
// --------------------------------------------------------------------

StackPool::~StackPool()
{
    for (const FiberStack &s : _free) {
        unpoison(s.base, s.size);
        munmap(static_cast<char *>(s.base) - guardBytes(),
               s.size + guardBytes());
    }
}

FiberStack
StackPool::acquire()
{
    if (!_free.empty()) {
        FiberStack s = _free.back();
        _free.pop_back();
        return s;
    }
    size_t guard = guardBytes();
    void *map = mmap(nullptr, stackBytes + guard, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                         MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED)
        sim::fatal("fiber: cannot map a %zu-byte stack", stackBytes);
    if (mprotect(map, guard, PROT_NONE) != 0)
        sim::fatal("fiber: cannot protect the stack guard page");
    _mapped++;
    return {static_cast<char *>(map) + guard, stackBytes};
}

void
StackPool::release(FiberStack stack)
{
    _free.push_back(stack);
}

// --------------------------------------------------------------------
// Fiber
// --------------------------------------------------------------------

Fiber::~Fiber()
{
    if (_stack.base)
        _pool->release(_stack);
}

void
Fiber::init(StackPool &pool, std::function<void()> body)
{
    _pool = &pool;
    _body = std::move(body);
}

void
Fiber::resume()
{
    if (_finished)
        sim::panic("fiber: resume after the body finished");
    if (!_stack.base) {
        _stack = _pool->acquire();
        getcontext(&_self);
        _self.uc_stack.ss_sp = _stack.base;
        _self.uc_stack.ss_size = _stack.size;
        _self.uc_link = nullptr;
        // makecontext passes int arguments: split the pointer.
        auto bits = reinterpret_cast<uintptr_t>(this);
        makecontext(&_self, reinterpret_cast<void (*)()>(&trampoline), 2,
                    unsigned(bits), unsigned(uint64_t(bits) >> 32));
    }
    void *fake_stack = nullptr;
    startSwitch(&fake_stack, _stack.base, _stack.size);
    swapcontext(&_caller, &_self);
    finishSwitch(fake_stack, nullptr, nullptr);
    if (_finished) {
        // Off the fiber's stack now: it can go back to the pool.
        _pool->release(_stack);
        _stack = {};
        if (_escaped)
            std::rethrow_exception(std::exchange(_escaped, nullptr));
    }
}

void
Fiber::suspend()
{
    startSwitch(&_fakeStack, _callerBottom, _callerSize);
    swapcontext(&_self, &_caller);
    finishSwitch(_fakeStack, &_callerBottom, &_callerSize);
}

void
Fiber::trampoline(unsigned lo, unsigned hi)
{
    auto *f = reinterpret_cast<Fiber *>(uintptr_t(lo) |
                                        (uintptr_t(hi) << 32));
    finishSwitch(nullptr, &f->_callerBottom, &f->_callerSize);
    // Unwinding cannot cross the fiber's first frame: carry an escaping
    // exception over to the caller instead.
    try {
        f->_body();
    } catch (...) {
        f->_escaped = std::current_exception();
    }
    f->_finished = true;
    // Final switch: a null save slot lets ASan drop the fake stack.
    startSwitch(nullptr, f->_callerBottom, f->_callerSize);
    setcontext(&f->_caller);
}

} // namespace vg::kern
