#include "sim/fiber.hh"

#include "base/logging.hh"
#include "base/mapcache.hh"

#if !defined(__x86_64__) || !defined(__ELF__)
#error "ap_sim_fiber_switch in sim/fiber.cc must be ported to this target"
#endif

// The context switch, x86-64 SysV ELF. Saves what the ABI makes
// callee-saved — rbp rbx r12-r15, the MXCSR and the x87 control word
// — on the current stack, stores rsp to *save_sp (rdi), loads rsp
// from load_sp (rsi), restores the same set from the new stack and
// returns into it. Everything else is caller-saved, so the compiler
// has already spilled it around the call. The signal mask and the
// rest of the FP environment are left alone, so a switch makes no
// syscall.
//
// Frame left on a parked stack, lowest address first (InitialFrame
// below): x87 CW (4 bytes), MXCSR (4), r15 r14 r13 r12 rbx rbp,
// return address.
extern "C" void ap_sim_fiber_switch(void **save_sp, void *load_sp);

asm(R"(
    .pushsection .text
    .globl  ap_sim_fiber_switch
    .hidden ap_sim_fiber_switch
    .type   ap_sim_fiber_switch, @function
    .p2align 4
ap_sim_fiber_switch:
    .cfi_startproc
    pushq   %rbp
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbp, 0
    pushq   %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq   %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq   %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    pushq   %r14
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r14, 0
    pushq   %r15
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r15, 0
    subq    $8, %rsp
    .cfi_adjust_cfa_offset 8
    fnstcw  (%rsp)
    stmxcsr 4(%rsp)
    movq    %rsp, (%rdi)
    movq    %rsi, %rsp
    fldcw   (%rsp)
    ldmxcsr 4(%rsp)
    addq    $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq    %r15
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r15
    popq    %r14
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r14
    popq    %r13
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r13
    popq    %r12
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r12
    popq    %rbx
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbx
    popq    %rbp
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbp
    ret
    .cfi_endproc
    .size   ap_sim_fiber_switch, .-ap_sim_fiber_switch
    .popsection
)");

// ThreadSanitizer must be told about fiber switches: without the
// fiber annotations it sees one OS thread's shadow stack jumping
// between unrelated stacks and reports phantom races. Worker threads
// of the sharded kernel resume cell fibers, so the TSan CI job runs
// fiber-based workloads through these hooks.
#if defined(__SANITIZE_THREAD__)
#define AP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AP_TSAN_FIBERS 1
#endif
#endif

#ifdef AP_TSAN_FIBERS
extern "C" {
void *__tsan_get_current_fiber(void);
void *__tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void *fiber);
void __tsan_switch_to_fiber(void *fiber, unsigned flags);
}
#endif

// AddressSanitizer likewise needs the switches announced: it keeps
// one fake stack + poison map per stack region, and an exception
// unwinding on a fiber stack it was not told about unpoisons the
// wrong region — leaving stale redzones on the fiber stack that a
// later frame at the same depth trips over as a phantom
// stack-buffer-overflow.
#if defined(__SANITIZE_ADDRESS__)
#define AP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AP_ASAN_FIBERS 1
#endif
#endif

#ifdef AP_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void **fake_stack_save,
                                    const void *bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void *fake_stack_save,
                                     const void **bottom_old,
                                     std::size_t *size_old);
void __asan_unpoison_memory_region(const volatile void *addr,
                                   std::size_t size);
void __lsan_register_root_region(const void *p, std::size_t size);
}
#endif

namespace ap::sim
{

namespace
{

thread_local Fiber *current_fiber = nullptr;

/** A new fiber's stack top, lowest address first: what
 *  ap_sim_fiber_switch pops, then trampoline's return address. The
 *  FP control values are the ABI's process-start defaults. */
struct InitialFrame
{
    std::uint32_t x87cw = 0x037F;
    std::uint32_t mxcsr = 0x1F80;
    void *r15 = nullptr, *r14 = nullptr, *r13 = nullptr, *r12 = nullptr,
         *rbx = nullptr, *rbp = nullptr;
    void (*entry)() = nullptr;
    void *entryReturn = nullptr;
};
static_assert(sizeof(InitialFrame) == 72);

/** Retired stacks, each above a PROT_NONE guard page. The bounds
 *  hold every stack of a 1024-cell machine twice over, so building
 *  machines in a loop maps no stack after the first. */
MappingCache &
stack_cache()
{
    static auto *cache = new MappingCache(
        {.mappings = 2048, .resident = 2048 * Fiber::stack_bytes}, 4096);
    return *cache;
}

} // namespace

Fiber::Fiber(std::function<void()> body)
    : body(std::move(body)),
      stack(static_cast<unsigned char *>(
          stack_cache().acquire(stack_bytes)))
{
}

Fiber::~Fiber()
{
    bool abandoned = started && !done;
    if (abandoned)
        warn("destroying unfinished fiber; its stack is abandoned");
#ifdef AP_TSAN_FIBERS
    if (tsanFiber)
        __tsan_destroy_fiber(tsanFiber);
#endif
#ifdef AP_ASAN_FIBERS
    if (abandoned) {
        // Its frames never ran their destructors: their redzones
        // would trip the stack's next user, and objects only they
        // point to are abandoned by design (deadlock tests park
        // fibers on purpose). Keep the stack mapped and out of the
        // cache, and let the leak scanner follow its references.
        __lsan_register_root_region(stack, stack_bytes);
        return;
    }
    // The trampoline's frame never returns; clear its poison for the
    // stack's next user.
    __asan_unpoison_memory_region(stack, stack_bytes);
#endif
    // A stack is never cleaned, so all of it counts as resident.
    stack_cache().release(stack, stack_bytes, stack_bytes, [] {});
}

std::uint64_t
Fiber::stack_cache_hits()
{
    return stack_cache().hits();
}

std::uint64_t
Fiber::stack_cache_misses()
{
    return stack_cache().misses();
}

Fiber *
Fiber::current()
{
    return current_fiber;
}

void
Fiber::trampoline()
{
    Fiber *self = current_fiber;
#ifdef AP_ASAN_FIBERS
    // First time on this stack: no fake stack to restore (nullptr);
    // record the resumer's stack bounds for the switch back.
    __sanitizer_finish_switch_fiber(nullptr, &self->asanCallerBottom,
                                    &self->asanCallerSize);
#endif
    self->body();
    self->done = true;
    // Final switch back to the resumer; there is nothing to return
    // to. Under TSan nothing instrumented may run between
    // __tsan_switch_to_fiber and the stack switch, so the switch is
    // the last thing this function does.
#ifdef AP_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsanCaller, 0);
#endif
#ifdef AP_ASAN_FIBERS
    // Dying fiber: a null save slot tells ASan to free its fake
    // stack rather than park it for a resume that never comes.
    __sanitizer_start_switch_fiber(nullptr, self->asanCallerBottom,
                                   self->asanCallerSize);
#endif
    ap_sim_fiber_switch(&self->fiberSp, self->callerSp);
    __builtin_unreachable();
}

void
Fiber::resume()
{
    if (done)
        panic("resuming a finished fiber");
    if (current_fiber)
        panic("nested fiber resume (fibers must not resume fibers)");

    current_fiber = this;
    if (!started) {
        started = true;
        // The first switch "returns" into trampoline with the stack
        // as a call would leave it: rsp + 8 16-byte aligned, the
        // default MXCSR and x87 control word, and a null return
        // address above, where unwinders stop.
        auto top = reinterpret_cast<std::uintptr_t>(stack) + stack_bytes;
        auto *frame =
            reinterpret_cast<InitialFrame *>(top - sizeof(InitialFrame));
        *frame = InitialFrame{.entry = &trampoline};
        fiberSp = frame;
#ifdef AP_TSAN_FIBERS
        tsanFiber = __tsan_create_fiber(0);
#endif
    }
#ifdef AP_TSAN_FIBERS
    tsanCaller = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber, 0);
#endif
#ifdef AP_ASAN_FIBERS
    void *fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, stack, stack_bytes);
#endif
    ap_sim_fiber_switch(&callerSp, fiberSp);
#ifdef AP_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
    current_fiber = nullptr;
}

void
Fiber::yield()
{
    Fiber *self = current_fiber;
    if (!self)
        panic("Fiber::yield called outside a fiber");
#ifdef AP_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsanCaller, 0);
#endif
#ifdef AP_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&self->asanFake,
                                   self->asanCallerBottom,
                                   self->asanCallerSize);
#endif
    ap_sim_fiber_switch(&self->fiberSp, self->callerSp);
#ifdef AP_ASAN_FIBERS
    // Back on the fiber: restore its fake stack and refresh the
    // resumer bounds — the sharded kernel may resume from a
    // different worker thread each time.
    __sanitizer_finish_switch_fiber(self->asanFake,
                                    &self->asanCallerBottom,
                                    &self->asanCallerSize);
#endif
}

} // namespace ap::sim
