/**
 * @file
 * Unit tests of fibers, processes and conditions.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/fiber.hh"
#include "sim/process.hh"

using namespace ap;
using namespace ap::sim;

namespace
{

/** 1/3 divided at run time, so the MXCSR rounding mode decides it. */
double
third()
{
    volatile double one = 1.0, three = 3.0;
    return one / three;
}

/** Rounding mode as both the x87 unit and SSE see it. */
struct Rounding
{
    int x87;      ///< fegetround(): the x87 control word
    unsigned sse; ///< MXCSR RC bits
    double third; ///< an SSE division under that mode
};

Rounding
rounding()
{
    return {std::fegetround(), _mm_getcsr() & 0x6000u, third()};
}

/** Address of a 16-byte-aligned local, passed through a volatile so
 *  the compiler cannot fold the check to the alignment it assumes.
 *  Left uninitialized: zeroing it would be an aligned SSE store that
 *  faults on a misaligned stack before the check could report it. */
[[gnu::noinline]] std::uintptr_t
aligned_local_address()
{
    alignas(16) unsigned char local[16];
    volatile std::uintptr_t addr =
        reinterpret_cast<std::uintptr_t>(&local[0]);
    return addr;
}

/** Mixing step for the register-resident accumulators below. */
inline std::uint64_t
mix(std::uint64_t x, std::uint64_t k)
{
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull + 2 * k;
    return x ^ (x >> 32);
}

/**
 * Six accumulators and a loop counter, live across every call of
 * @p step: more than the six callee-saved registers, so a yielding
 * step needs the switch to preserve all of them. A step that does
 * nothing gives the expected checksum.
 */
template <typename Step>
std::uint64_t
accumulate(std::uint64_t seed, int rounds, Step step)
{
    std::uint64_t a = seed, b = seed * 3 + 1, c = seed * 5 + 2,
                  d = seed * 7 + 3, e = seed * 11 + 4, f = seed * 13 + 5;
    for (int i = 0; i < rounds; ++i) {
        a = mix(a + f, 1);
        b = mix(b + a, 2);
        c = mix(c + b, 3);
        d = mix(d + c, 4);
        e = mix(e + d, 5);
        f = mix(f + e, static_cast<std::uint64_t>(i));
        step();
    }
    return a ^ b ^ c ^ d ^ e ^ f;
}

void
yield()
{
    Fiber::yield();
}

void
no_yield()
{
}

[[gnu::noinline]] void
throw_at_depth(int depth)
{
    if (depth == 0)
        throw std::runtime_error("deep");
    throw_at_depth(depth - 1);
}

/** A depth recurse() never reaches, read at run time so the compiler
 *  keeps every frame. */
volatile int never = -1;

[[gnu::noinline]] int
recurse(int depth)
{
    volatile char pad[512];
    pad[0] = static_cast<char>(depth);
    if (depth == never)
        return 0;
    return recurse(depth + 1) + pad[0];
}

/** The guard page's address range, as the overflowing fiber sees it
 *  from its first frame. */
std::uintptr_t guardLo = 0, guardHi = 0;

void
report_overflow(int, siginfo_t *info, void *)
{
    auto at = reinterpret_cast<std::uintptr_t>(info->si_addr);
    bool guard = info->si_code == SEGV_ACCERR && at >= guardLo &&
                 at < guardHi;
    const char *msg = guard ? "fault on the guard page\n"
                            : "fault outside the guard page\n";
    ssize_t ignored = write(2, msg, std::strlen(msg));
    (void)ignored;
    _exit(1);
}

/** Recurse on a fiber until its stack overflows; the SIGSEGV handler,
 *  on its own stack, names where the fault hit. */
void
overflow_a_fiber()
{
    static char altStack[64 * 1024];
    stack_t ss{};
    ss.ss_sp = altStack;
    ss.ss_size = sizeof altStack;
    sigaltstack(&ss, nullptr);
    struct sigaction sa{};
    sa.sa_sigaction = report_overflow;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigaction(SIGSEGV, &sa, nullptr);

    Fiber f([]() {
        // The stack top is within a page above this frame, and the
        // guard page is the page below the stack.
        char here = 0;
        auto top = reinterpret_cast<std::uintptr_t>(&here);
        guardLo = top - Fiber::stack_bytes - 4096;
        guardHi = top - Fiber::stack_bytes + 4096;
        recurse(here);
    });
    f.resume();
}

} // namespace

TEST(FiberDeathTest, OverflowFaultsOnTheGuardPage)
{
    EXPECT_DEATH(overflow_a_fiber(), "fault on the guard page");
}

TEST(Fiber, RunsBodyOnResume)
{
    bool ran = false;
    Fiber f([&]() { ran = true; });
    EXPECT_FALSE(ran);
    f.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber f([&]() {
        order.push_back(1);
        Fiber::yield();
        order.push_back(3);
    });
    f.resume();
    order.push_back(2);
    f.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksRunningFiber)
{
    Fiber *seen = nullptr;
    Fiber f([&]() { seen = Fiber::current(); });
    EXPECT_EQ(Fiber::current(), nullptr);
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, RoundingModeStaysWithItsFiber)
{
    const int outer = std::fegetround();
    const Rounding nearest = rounding();
    Rounding inFiber{}, afterYield{}, afterResume{};
    Fiber f([&]() {
        std::fesetround(FE_UPWARD);
        inFiber = rounding();
        Fiber::yield();
        afterResume = rounding();
        std::fesetround(FE_TONEAREST);
    });
    f.resume();
    afterYield = rounding();
    // The resumer runs under another mode while the fiber is parked.
    std::fesetround(FE_DOWNWARD);
    f.resume();
    std::fesetround(outer);
    ASSERT_TRUE(f.finished());

    EXPECT_EQ(inFiber.x87, FE_UPWARD);
    EXPECT_EQ(inFiber.sse, 0x4000u);
    EXPECT_GT(inFiber.third, nearest.third);

    EXPECT_EQ(afterYield.x87, nearest.x87);
    EXPECT_EQ(afterYield.sse, nearest.sse);
    EXPECT_EQ(afterYield.third, nearest.third);

    EXPECT_EQ(afterResume.x87, FE_UPWARD);
    EXPECT_EQ(afterResume.sse, 0x4000u);
    EXPECT_EQ(afterResume.third, inFiber.third);
}

TEST(Fiber, StackAlignedAtEntryAndAfterResume)
{
    std::uintptr_t atEntry = 1, afterResume = 1;
    Fiber f([&]() {
        atEntry = aligned_local_address();
        Fiber::yield();
        afterResume = aligned_local_address();
    });
    f.resume();
    f.resume();
    ASSERT_TRUE(f.finished());
    EXPECT_EQ(atEntry % 16, 0u);
    EXPECT_EQ(afterResume % 16, 0u);
}

TEST(Fiber, ManyFibersKeepRegisterLocals)
{
    constexpr int fibers = 256;
    constexpr int rounds = 1000;
    std::vector<std::uint64_t> got(fibers, 0);
    std::vector<std::unique_ptr<Fiber>> fs;
    for (int i = 0; i < fibers; ++i)
        fs.push_back(std::make_unique<Fiber>([&got, i]() {
            got[static_cast<std::size_t>(i)] = accumulate(
                static_cast<std::uint64_t>(i) + 1, rounds, yield);
        }));
    // Round-robin: every fiber is parked while all the others run.
    for (int r = 0; r <= rounds; ++r)
        for (auto &f : fs)
            f->resume();
    for (int i = 0; i < fibers; ++i) {
        ASSERT_TRUE(fs[static_cast<std::size_t>(i)]->finished());
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  accumulate(static_cast<std::uint64_t>(i) + 1, rounds,
                             no_yield))
            << "fiber " << i;
    }
}

TEST(Fiber, ResumedAlternatelyFromTwoThreads)
{
    // The sharded kernel resumes a cell's fiber from whichever worker
    // owns the window, so a fiber must survive changing threads.
    constexpr int rounds = 200;
    std::uint64_t got = 0;
    int selfSeen = 0;
    std::unique_ptr<Fiber> f;
    f = std::make_unique<Fiber>([&]() {
        got = accumulate(1, rounds, [&]() {
            // Fiber::current() reads the resuming thread's slot. (The
            // thread id cannot be read in here: pthread_self() is
            // declared const, so the compiler may hoist it out of
            // the loop.)
            selfSeen += Fiber::current() == f.get();
            Fiber::yield();
        });
    });

    // Hand the fiber back and forth: thread t resumes on even/odd
    // turns; acquire/release on `turn` orders each handoff.
    std::atomic<int> turn{0};
    int resumes[2] = {0, 0};
    auto worker = [&](int parity) {
        for (;;) {
            int t = turn.load(std::memory_order_acquire);
            if (t > rounds)
                return;
            if (t % 2 != parity) {
                std::this_thread::yield();
                continue;
            }
            f->resume();
            ++resumes[parity];
            turn.store(t + 1, std::memory_order_release);
        }
    };
    std::thread t0(worker, 0), t1(worker, 1);
    t0.join();
    t1.join();

    ASSERT_TRUE(f->finished());
    EXPECT_EQ(got, accumulate(1, rounds, no_yield));
    EXPECT_EQ(selfSeen, rounds);
    EXPECT_EQ(resumes[0], rounds / 2 + 1);
    EXPECT_EQ(resumes[1], rounds / 2);
}

TEST(Fiber, ExceptionCaughtInsideBodyAfterYields)
{
    std::string caught;
    std::uint64_t kept = 0;
    Fiber f([&]() {
        std::uint64_t live = accumulate(7, 4, yield);
        try {
            Fiber::yield();
            throw_at_depth(8);
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        Fiber::yield();
        kept = live;
    });
    while (!f.finished())
        f.resume();
    EXPECT_EQ(caught, "deep");
    EXPECT_EQ(kept, accumulate(7, 4, no_yield));
}

TEST(Fiber, RecycledStacksMapNothing)
{
    constexpr int n = 64;
    auto run_batch = []() {
        std::vector<std::unique_ptr<Fiber>> fs;
        for (int i = 0; i < n; ++i)
            fs.push_back(std::make_unique<Fiber>([]() {
                Fiber::yield();
            }));
        for (auto &f : fs)
            while (!f->finished())
                f->resume();
    };
    run_batch();
    std::uint64_t hits = Fiber::stack_cache_hits();
    std::uint64_t misses = Fiber::stack_cache_misses();
    // The first batch's stacks are parked; the second takes them
    // all back.
    run_batch();
    EXPECT_EQ(Fiber::stack_cache_misses(), misses);
    EXPECT_EQ(Fiber::stack_cache_hits(), hits + n);
}

TEST(Fiber, CreatedAndDestroyedOnTwoThreadsAtOnce)
{
    // Each thread takes stacks from and parks them in the one
    // process-wide cache while the other does the same.
    constexpr int rounds = 100;
    constexpr int batch = 8;
    auto worker = [](std::uint64_t seed, int &good) {
        for (int r = 0; r < rounds; ++r) {
            std::uint64_t got[batch] = {};
            std::vector<std::unique_ptr<Fiber>> fs;
            for (std::uint64_t i = 0; i < batch; ++i)
                fs.push_back(std::make_unique<Fiber>([&got, i, seed]() {
                    got[i] = accumulate(seed + i, 4, yield);
                }));
            for (auto &f : fs)
                while (!f->finished())
                    f->resume();
            for (std::uint64_t i = 0; i < batch; ++i)
                good += got[i] == accumulate(seed + i, 4, no_yield);
        }
    };
    int good[2] = {0, 0};
    std::thread t0(worker, 1, std::ref(good[0]));
    std::thread t1(worker, 1000, std::ref(good[1]));
    t0.join();
    t1.join();
    EXPECT_EQ(good[0], rounds * batch);
    EXPECT_EQ(good[1], rounds * batch);
}

TEST(Process, DelayAdvancesSimulatedTime)
{
    Simulator sim;
    Tick seen = 0;
    Process p(sim, "p", [&](Process &self) {
        self.delay(100);
        seen = sim.now();
        self.delay(50);
    });
    p.start(0);
    sim.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(sim.now(), 150u);
    EXPECT_TRUE(p.finished());
    EXPECT_EQ(p.delayed_ticks(), 150u);
}

TEST(Process, WaitBlocksUntilNotify)
{
    Simulator sim;
    Condition cond;
    bool woke = false;
    Process waiter(sim, "waiter", [&](Process &self) {
        self.wait(cond);
        woke = true;
    });
    Process notifier(sim, "notifier", [&](Process &self) {
        self.delay(500);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(sim.now(), 500u);
    EXPECT_EQ(waiter.blocked_ticks(), 500u);
}

TEST(Process, NotifiedWaitCancelsItsTimeout)
{
    // A wait that a notification ends cancels its deadline: the run
    // ends at the notification, and the timeout never executes.
    Simulator sim;
    Condition cond;
    bool notified = false;
    Process waiter(sim, "waiter", [&](Process &self) {
        notified = self.wait_until(cond, 10000);
    });
    Process notifier(sim, "notifier", [&](Process &self) {
        self.delay(500);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    EXPECT_TRUE(notified);
    EXPECT_EQ(sim.now(), 500u);
    // Two starts, the notifier's delay, the waiter's resume.
    EXPECT_EQ(sim.executed(), 4u);
}

TEST(Process, DestroyedWhileParkedCancelsItsTimeout)
{
    Simulator sim;
    Condition cond;
    auto waiter = std::make_unique<Process>(
        sim, "waiter",
        [&](Process &self) { self.wait_until(cond, 10000); });
    waiter->start(0);
    sim.run_until(100);
    EXPECT_TRUE(waiter->blocked());
    EXPECT_EQ(sim.pending(), 1u);
    waiter.reset();
    EXPECT_TRUE(sim.empty());
    EXPECT_EQ(sim.run(), 0u);
    EXPECT_EQ(sim.executed(), 1u);
}

TEST(Process, NotifyWakesAllWaitersInOrder)
{
    Simulator sim;
    Condition cond;
    std::vector<int> order;
    std::vector<std::unique_ptr<Process>> procs;
    for (int i = 0; i < 4; ++i) {
        procs.push_back(std::make_unique<Process>(
            sim, "w", [&, i](Process &self) {
                self.wait(cond);
                order.push_back(i);
            }));
        procs.back()->start(0);
    }
    Process kicker(sim, "k", [&](Process &self) {
        self.delay(10);
        cond.notify_all();
    });
    kicker.start(0);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Process, UnfinishedProcessDetectable)
{
    Simulator sim;
    Condition never;
    Process p(sim, "stuck", [&](Process &self) { self.wait(never); });
    p.start(0);
    sim.run();
    EXPECT_FALSE(p.finished());
    EXPECT_TRUE(p.blocked());
}

TEST(Process, TwoProcessesInterleaveDeterministically)
{
    Simulator sim;
    std::vector<std::pair<int, Tick>> log;
    Process a(sim, "a", [&](Process &self) {
        for (int i = 0; i < 3; ++i) {
            log.emplace_back(0, sim.now());
            self.delay(10);
        }
    });
    Process b(sim, "b", [&](Process &self) {
        for (int i = 0; i < 3; ++i) {
            log.emplace_back(1, sim.now());
            self.delay(15);
        }
    });
    a.start(0);
    b.start(0);
    sim.run();
    std::vector<std::pair<int, Tick>> expect = {
        {0, 0}, {1, 0}, {0, 10}, {1, 15}, {0, 20}, {1, 30},
    };
    EXPECT_EQ(log, expect);
}
