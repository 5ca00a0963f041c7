/**
 * @file
 * Stackful fibers (cooperative coroutines).
 *
 * Each simulated cell runs its SPMD program body on a fiber. The
 * event kernel resumes a fiber when its next action is due (a compute
 * delay elapsed, a flag reached its target, a barrier released); the
 * fiber yields back whenever it blocks. This is the classic
 * parallel-machine-simulator structure and keeps user-facing example
 * code straight-line.
 *
 * A switch is a hand-written x86-64 SysV routine (fiber.cc): it saves
 * the callee-saved registers, MXCSR and the x87 control word on the
 * old stack and swaps stack pointers, with no syscall. Exceptions
 * work inside a fiber body but must not escape it.
 *
 * Stacks are fixed-size anonymous mappings with a PROT_NONE guard
 * page below, so a body that overflows its stack faults instead of
 * overwriting other memory. A destroyed fiber's stack is parked in a
 * process-wide MappingCache, and the next fiber, of this machine or
 * the next one, takes it back without a syscall or a page fault.
 */

#ifndef AP_SIM_FIBER_HH
#define AP_SIM_FIBER_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace ap::sim
{

/**
 * A cooperatively scheduled coroutine with its own stack.
 *
 * Only the scheduler may call resume(); only code running on the
 * fiber may call Fiber::yield(). A fiber whose body returned is
 * finished and must not be resumed again.
 */
class Fiber
{
  public:
    /** Stack size of every fiber; generous because app kernels
     *  recurse. */
    static constexpr std::size_t stack_bytes = 256 * 1024;

    /** Create a fiber that will run @p body on first resume. */
    explicit Fiber(std::function<void()> body);

    ~Fiber();

    /** Process-wide stack-cache hits (recycled stacks). */
    static std::uint64_t stack_cache_hits();

    /** Process-wide stack-cache misses (freshly mapped stacks). */
    static std::uint64_t stack_cache_misses();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Switch from the scheduler into the fiber until it yields. */
    void resume();

    /** Switch from the running fiber back to the scheduler. */
    static void yield();

    /** @return the fiber currently executing, or nullptr. */
    static Fiber *current();

    /** @return true once the body has returned. */
    bool finished() const { return done; }

  private:
    [[noreturn]] static void trampoline();

    std::function<void()> body;
    /** Lowest byte of the stack, never zeroed: only the initial
     *  switch frame at its top is written. */
    unsigned char *stack;
    /** Saved stack pointers: the fiber's while it is parked, the
     *  resumer's while the fiber runs. */
    void *fiberSp = nullptr;
    void *callerSp = nullptr;
    bool started = false;
    bool done = false;
    /** ThreadSanitizer fiber-context handles; null outside TSan
     *  builds (see the annotation block in fiber.cc). */
    void *tsanFiber = nullptr;
    void *tsanCaller = nullptr;
    /** AddressSanitizer fake-stack handle + resumer stack bounds;
     *  unused outside ASan builds (see fiber.cc). Without these
     *  annotations ASan leaves stale redzone poison on a fiber stack
     *  after an exception unwinds across it, and a later frame at the
     *  same depth trips a phantom stack-buffer-overflow. */
    void *asanFake = nullptr;
    const void *asanCallerBottom = nullptr;
    std::size_t asanCallerSize = 0;
};

} // namespace ap::sim

#endif // AP_SIM_FIBER_HH
