/**
 * @file
 * RetryPolicy edge cases: zero-retry budgets, exponential backoff
 * saturation at the cap, and that a successful attempt never triggers
 * further retries.
 */

#include <gtest/gtest.h>

#include "core/program.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "sim/fault.hh"

using namespace ap;

TEST(RetryPolicy, DisabledByDefault)
{
    hw::RetryPolicy p;
    EXPECT_FALSE(p.enabled());
    EXPECT_FALSE(p.watchdog_enabled());
}

TEST(RetryPolicy, FirstAttemptUsesTheBaseTimeout)
{
    hw::RetryPolicy p;
    p.timeoutUs = 100.0;
    EXPECT_DOUBLE_EQ(p.attempt_timeout_us(0), 100.0);
}

TEST(RetryPolicy, BackoffGrowsAndSaturatesAtTheCap)
{
    hw::RetryPolicy p;
    p.timeoutUs = 100.0; // cap = 8x = 800
    EXPECT_DOUBLE_EQ(p.attempt_timeout_us(1), 200.0);
    EXPECT_DOUBLE_EQ(p.attempt_timeout_us(2), 400.0);
    EXPECT_DOUBLE_EQ(p.attempt_timeout_us(3), 800.0);
    // Far past the knee the timeout must stay pinned at the cap, not
    // overflow or keep doubling.
    EXPECT_DOUBLE_EQ(p.attempt_timeout_us(10), 800.0);
    EXPECT_DOUBLE_EQ(p.attempt_timeout_us(1000), 800.0);
}

TEST(RetryPolicy, ZeroRetryBudgetFailsAfterExactlyOneAttempt)
{
    // Total blackout with maxRetries = 0: one attempt, one typed
    // error — no second PUT ever leaves the cell.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.faults = sim::FaultPlan::drops(21, 1.0);
    cfg.retry.timeoutUs = 200.0;
    cfg.retry.maxRetries = 0;
    hw::Machine m(cfg);

    std::uint64_t puts = 0;
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        if (ctx.id() != 0)
            return;
        Addr buf = ctx.alloc(64);
        ctx.poke_u32(buf, 0xdead);
        ctx.write_remote(1, 0x800, buf, 64);
        puts = 0xffff; // unreachable: the write cannot succeed
    });
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_NE(r.errors.front().find("1 attempts"), std::string::npos)
        << r.errors.front();
    EXPECT_EQ(puts, 0u);
    EXPECT_FALSE(r.deadlock);
}

TEST(RetryPolicy, GiveUpIncrementsTheRegistryCounter)
{
    // Every exhausted retry budget must leave a fleet-visible mark:
    // the CommError can be swallowed by a caller (the serve layer
    // retries the whole job), but `comm.retry.giveup` cannot.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.faults = sim::FaultPlan::drops(33, 1.0);
    cfg.retry.timeoutUs = 150.0;
    cfg.retry.maxRetries = 1;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        if (ctx.id() != 0)
            return;
        Addr buf = ctx.alloc(64);
        ctx.poke_u32(buf, 0xabcd);
        ctx.write_remote(1, 0x800, buf, 64);
    });
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(m.stats_registry().value("comm.retry.giveup"), 1u);

    // The counter accumulates across runs on the same machine: a
    // read_remote give-up on the same blackout adds a second one.
    core::run_spmd(m, [&](core::Context &ctx) {
        if (ctx.id() != 0)
            return;
        Addr buf = ctx.alloc(64);
        ctx.read_remote(1, 0x800, buf, 64);
    });
    EXPECT_EQ(m.stats_registry().value("comm.retry.giveup"), 2u);
}

TEST(RetryPolicy, NoGiveUpOnAHealthyMachine)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.retry.timeoutUs = 2000.0;
    cfg.retry.maxRetries = 2;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        if (ctx.id() != 0)
            return;
        Addr buf = ctx.alloc(64);
        ctx.poke_u32(buf, 0x1234);
        ctx.write_remote(1, 0x800, buf, 64);
        ctx.read_remote(1, 0x800, buf, 64);
    });
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(m.stats_registry().value("comm.retry.giveup"), 0u);
}

TEST(RetryPolicy, SuccessfulAttemptStopsTheRetryLoop)
{
    // Fault-free machine with an armed retry policy: the hardened
    // write path must do its single PUT (plus read-back verification)
    // and never reissue.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.retry.timeoutUs = 2000.0;
    cfg.retry.maxRetries = 8;
    hw::Machine m(cfg);

    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        if (ctx.id() != 0)
            return;
        Addr buf = ctx.alloc(64);
        ctx.poke_u32(buf, 0xbeef);
        ctx.write_remote(1, 0x800, buf, 64);
        puts = ctx.stats().puts;
        gets = ctx.stats().gets;
    });
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(puts, 1u) << "retry loop reissued a successful write";
    EXPECT_EQ(gets, 1u) << "exactly one read-back verification";
}
