/**
 * @file
 * Unit tests of the fault-injection subsystem.
 *
 * Covers the FaultPlan presets, the injector's keyed decisions (a
 * decision depends only on its key, never on call order or on the
 * other mechanisms), the inertness guarantee of a
 * zero plan (machine-level: a default plan must not change a run at
 * all), the command-line kill parser, and the Process::wait_until
 * timeout primitive that the runtime hardening is built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/ap1000p.hh"
#include "sim/fault.hh"
#include "sim/process.hh"

using namespace ap;
using namespace ap::sim;

namespace
{

/** Record @p n drop decisions of cell @p cell's sends. */
std::vector<bool>
drop_stream(FaultInjector &inj, CellId cell, int n)
{
    std::vector<bool> out;
    for (int i = 0; i < n; ++i)
        out.push_back(inj.on_send(cell).drop);
    return out;
}

} // namespace

TEST(FaultPlan, ZeroPlanIsInert)
{
    FaultPlan zero;
    EXPECT_FALSE(zero.any());
    EXPECT_EQ(zero.describe(), "none");

    FaultInjector inj(zero, 2);
    EXPECT_FALSE(inj.active());
    for (int i = 0; i < 100; ++i) {
        FaultInjector::SendFaults f = inj.on_send(1);
        EXPECT_FALSE(f.drop || f.duplicate || f.reorder || f.corrupt);
        EXPECT_EQ(f.jitter, 0u);
        EXPECT_FALSE(inj.force_overflow(1));
        EXPECT_FALSE(inj.inject_page_fault(1));
        EXPECT_EQ(inj.jitter(1), 0u);
    }
    EXPECT_EQ(inj.stats().total(), 0u);
    EXPECT_EQ(inj.stats().jitteredEvents, 0u);
}

TEST(FaultPlan, PresetsEnableExactlyOneMechanism)
{
    EXPECT_GT(FaultPlan::drops(1).dropProb, 0.0);
    EXPECT_GT(FaultPlan::duplicates(1).dupProb, 0.0);
    EXPECT_GT(FaultPlan::reorders(1).reorderProb, 0.0);
    EXPECT_GT(FaultPlan::overflows(1).overflowProb, 0.0);
    EXPECT_GT(FaultPlan::pageFaults(1).pageFaultProb, 0.0);
    EXPECT_GT(FaultPlan::jitter(1).jitterMaxUs, 0.0);
    for (const FaultPlan &p :
         {FaultPlan::drops(7), FaultPlan::duplicates(7),
          FaultPlan::reorders(7), FaultPlan::overflows(7),
          FaultPlan::pageFaults(7), FaultPlan::jitter(7),
          FaultPlan::chaos(7)}) {
        EXPECT_TRUE(p.any()) << p.describe();
        EXPECT_EQ(p.seed, 7u);
        EXPECT_NE(p.describe(), "none");
    }
    FaultPlan c = FaultPlan::chaos(3);
    EXPECT_GT(c.dropProb, 0.0);
    EXPECT_GT(c.dupProb, 0.0);
    EXPECT_GT(c.reorderProb, 0.0);
    EXPECT_GT(c.overflowProb, 0.0);
    EXPECT_GT(c.pageFaultProb, 0.0);
    EXPECT_GT(c.jitterMaxUs, 0.0);
}

TEST(CellKillDeathTest, ParseAcceptsOnlyACellAndAReachableTime)
{
    // The one parser behind ap_run's and ap_serve's --kill=CELL@US.
    FaultPlan::CellKill k = FaultPlan::CellKill::parse("5@30.5", 16);
    EXPECT_EQ(k.cell, 5);
    EXPECT_EQ(k.atUs, 30.5);
    // Each rejection exits 1 naming the argument; none aborts.
    for (const char *bad : {"99@30", "16@30", "-1@30", "5@-10", "5@inf",
                            "5@nan", "5@abc", "5@", "@30", "5@30x",
                            "5x@30", "5@1e300"})
        EXPECT_EXIT(FaultPlan::CellKill::parse(bad, 16),
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: --kill=") + bad + ":")
            << bad;
}

TEST(FaultInjector, DecisionDependsOnlyOnItsKey)
{
    // A decision is a hash of (seed, point, cell, event count): the
    // same key gives the same draw in any injector, and different
    // keys give independent draws.
    FaultInjector a(FaultPlan::chaos(99), 5);
    FaultInjector b(FaultPlan::chaos(99), 5);
    FaultInjector other(FaultPlan::chaos(100), 5);
    using P = FaultInjector::Point;
    int sameAcrossSeeds = 0;
    for (std::uint64_t n = 0; n < 200; ++n) {
        for (P p : {P::drop, P::overflow, P::kernel_jitter}) {
            EXPECT_EQ(a.draw(p, 3, n), b.draw(p, 3, n));
            double d = a.draw(p, 3, n);
            EXPECT_GE(d, 0.0);
            EXPECT_LT(d, 1.0);
            sameAcrossSeeds += a.draw(p, 3, n) == other.draw(p, 3, n);
        }
        EXPECT_NE(a.draw(P::drop, 3, n), a.draw(P::drop, 4, n));
        EXPECT_NE(a.draw(P::drop, 3, n), a.draw(P::duplicate, 3, n));
        EXPECT_NE(a.draw(P::drop, 3, n), a.draw(P::drop, 3, n + 1));
    }
    EXPECT_EQ(sameAcrossSeeds, 0);
}

TEST(FaultInjector, DecisionsIgnoreCallOrderAcrossCells)
{
    // Cell 0's N-th send drops or not whatever other cells did
    // before it: interleaving two cells' sends differently leaves
    // each cell's decision sequence unchanged.
    FaultPlan plan = FaultPlan::drops(42, 0.3);
    FaultInjector alone(plan, 2);
    std::vector<bool> expect0 = drop_stream(alone, 0, 200);
    std::vector<bool> expect1 = drop_stream(alone, 1, 200);

    FaultInjector mixed(plan, 2);
    std::vector<bool> got0, got1;
    // Cell 1 runs ahead in bursts of three, cell 0 one at a time.
    while (got0.size() < 200 || got1.size() < 200) {
        for (int k = 0; k < 3 && got1.size() < 200; ++k)
            got1.push_back(mixed.on_send(1).drop);
        if (got0.size() < 200)
            got0.push_back(mixed.on_send(0).drop);
    }
    EXPECT_EQ(got0, expect0);
    EXPECT_EQ(got1, expect1);
    EXPECT_EQ(mixed.stats().drops, alone.stats().drops);
}

TEST(FaultInjector, DecisionsIgnoreOtherMechanisms)
{
    // Enabling other mechanisms, and consulting them, leaves a
    // drop-only plan's drop pattern untouched: each decision point
    // hashes its own key, and each hardware event has its own count.
    FaultInjector pure(FaultPlan::drops(42, 0.3), 1);
    std::vector<bool> expect = drop_stream(pure, 0, 200);

    FaultPlan busy = FaultPlan::chaos(42);
    busy.dropProb = 0.3;
    FaultInjector mixed(busy, 1);
    std::vector<bool> got;
    for (int i = 0; i < 200; ++i) {
        mixed.force_overflow(0);
        mixed.inject_page_fault(0);
        mixed.jitter(0);
        got.push_back(mixed.on_send(0).drop);
    }
    EXPECT_EQ(got, expect);
    EXPECT_GT(mixed.stats().forcedSpills, 0u);
}

TEST(FaultInjector, JitterIsBounded)
{
    FaultPlan p = FaultPlan::jitter(11, 20.0);
    FaultInjector inj(p, 4);
    Tick bound = us_to_ticks(p.jitterMaxUs);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LE(inj.jitter(i % 4), bound);
        EXPECT_LE(inj.jitter(-1), bound);
    }
    EXPECT_GT(inj.stats().jitteredEvents, 0u);
    EXPECT_GT(inj.stats().jitterTicks, 0u);
}

TEST(FaultMachine, DefaultPlanDoesNotPerturbARun)
{
    // Machine-level inertness: a zero plan (any seed) leaves the run
    // byte-identical — same finish tick, same data, zero injections.
    auto run_once = [](std::uint64_t plan_seed) {
        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
        cfg.memBytesPerCell = 1 << 20;
        cfg.faults = sim::FaultPlan{};
        cfg.faults.seed = plan_seed;
        hw::Machine m(cfg);
        int errors = 0;
        auto result = core::run_spmd(m, [&](core::Context &ctx) {
            Addr data = ctx.alloc(4096);
            Addr flag = ctx.alloc_flag();
            int me = ctx.id();
            int p = ctx.nprocs();
            for (int round = 0; round < 4; ++round) {
                ctx.poke_u32(data, static_cast<std::uint32_t>(
                                       me * 100 + round));
                ctx.put((me + 1) % p, data + 512, data, 256, no_flag,
                        flag);
                ctx.wait_flag(flag, static_cast<std::uint32_t>(
                                        round + 1));
                std::uint32_t want = static_cast<std::uint32_t>(
                    ((me - 1 + p) % p) * 100 + round);
                if (ctx.peek_u32(data + 512) != want)
                    ++errors;
                ctx.barrier();
            }
        });
        EXPECT_FALSE(result.deadlock);
        EXPECT_EQ(errors, 0);
        EXPECT_EQ(m.faults().stats().total(), 0u);
        return result.finishTick;
    };
    Tick a = run_once(1);
    Tick b = run_once(987654321);
    EXPECT_EQ(a, b) << "zero plan must be inert regardless of seed";
}

TEST(WaitUntil, TimesOutWhenNeverNotified)
{
    Simulator sim;
    Condition cond;
    bool notified = true;
    Process p(sim, "p", [&](Process &self) {
        notified = self.wait_until(cond, 100);
    });
    p.start(0);
    sim.run();
    EXPECT_TRUE(p.finished());
    EXPECT_FALSE(notified);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(WaitUntil, NotificationBeforeDeadlineWins)
{
    Simulator sim;
    Condition cond;
    bool notified = false;
    Tick woke_at = 0;
    Process waiter(sim, "w", [&](Process &self) {
        notified = self.wait_until(cond, 100);
        woke_at = sim.now();
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(50);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    EXPECT_TRUE(notified);
    EXPECT_EQ(woke_at, 50u);
}

TEST(WaitUntil, NotificationAfterDeadlineIsATimeout)
{
    Simulator sim;
    Condition cond;
    bool notified = true;
    Tick woke_at = 0;
    Process waiter(sim, "w", [&](Process &self) {
        notified = self.wait_until(cond, 100);
        woke_at = sim.now();
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(150);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    EXPECT_FALSE(notified);
    EXPECT_EQ(woke_at, 100u);
}

TEST(WaitUntil, StaleTimeoutDoesNotWakeALaterWait)
{
    // First wait is notified before its deadline; its pending timeout
    // event (tick 100) must not spuriously resume the second wait.
    Simulator sim;
    Condition cond;
    std::vector<std::pair<bool, Tick>> waits;
    Process waiter(sim, "w", [&](Process &self) {
        bool a = self.wait_until(cond, 100);
        waits.emplace_back(a, sim.now());
        bool b = self.wait_until(cond, 500);
        waits.emplace_back(b, sim.now());
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(50);
        cond.notify_all();
        self.delay(350); // to 400, past the stale 100-tick deadline
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    ASSERT_EQ(waits.size(), 2u);
    EXPECT_TRUE(waits[0].first);
    EXPECT_EQ(waits[0].second, 50u);
    EXPECT_TRUE(waits[1].first);
    EXPECT_EQ(waits[1].second, 400u);
}

TEST(WaitUntil, PlainWaitStillWorksAfterTimedWaits)
{
    Simulator sim;
    Condition cond;
    std::vector<Tick> wakes;
    Process waiter(sim, "w", [&](Process &self) {
        self.wait_until(cond, 10); // times out at 10
        self.wait(cond);           // untimed park
        wakes.push_back(sim.now());
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(80);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0], 80u);
}
