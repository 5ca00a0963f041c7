/**
 * @file
 * Flag-wait watchdog and cell-failure degradation tests.
 *
 * A blocked completion wait past the watchdog deadline must surface a
 * typed CommError carrying a machine-wide wait-graph dump — never
 * hang (a CTest TIMEOUT guards the whole binary). Killing a cell via
 * the fault plan must let the survivors reconfigure: barriers release
 * without the dead member and reductions run over the live group with
 * the degraded-result marker set. A kill issued at run time must stop
 * the dead cell's traffic exactly like a planned one.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/program.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "sim/fault.hh"

using namespace ap;

TEST(Watchdog, DroppedFlagUpdateRaisesTypedErrorWithWaitGraph)
{
    // Pinned seed, total loss, no retries: the receiver's flag can
    // never arrive. Without the watchdog this wait_flag blocks until
    // the event queue drains and the run reports deadlock; with it
    // the wait converts into a CommError whose message embeds the
    // wait graph naming the blocked cell, flag address and target.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.faults = sim::FaultPlan::drops(31, 1.0);
    cfg.retry.watchdogUs = 500.0;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        if (ctx.id() == 0) {
            Addr buf = ctx.alloc(64);
            ctx.poke_u32(buf, 7);
            ctx.put(1, 0x800, buf, 64, no_flag, flag, false);
            return; // fire-and-forget sender
        }
        ctx.wait_flag(flag, 1); // the update was dropped
    });

    EXPECT_FALSE(r.deadlock) << "watchdog failed to unblock the wait";
    ASSERT_EQ(r.errors.size(), 1u);
    const std::string &err = r.errors.front();
    EXPECT_NE(err.find("watchdog expired"), std::string::npos) << err;
    EXPECT_NE(err.find("wait_flag"), std::string::npos) << err;
    // The wait-graph dump lists every cell's state.
    EXPECT_NE(err.find("cell 0"), std::string::npos) << err;
    EXPECT_NE(err.find("cell 1"), std::string::npos) << err;
    EXPECT_NE(err.find("blocked"), std::string::npos) << err;
}

TEST(Watchdog, AckWaitIsGuardedToo)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.faults = sim::FaultPlan::drops(33, 1.0);
    cfg.retry.watchdogUs = 500.0;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        if (ctx.id() != 0)
            return;
        Addr buf = ctx.alloc(64);
        ctx.put(1, 0x800, buf, 64, no_flag, no_flag, true);
        ctx.wait_all_acks(); // the GET-reply ack was dropped
    });

    EXPECT_FALSE(r.deadlock);
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_NE(r.errors.front().find("wait_acks"), std::string::npos)
        << r.errors.front();
}

TEST(Watchdog, CommRegisterLoadIsGuarded)
{
    // Total loss: each cell's store into its partner's communication
    // register is dropped, so the scalar allreduce's register load
    // finds the p-bit clear for good. The watchdog must cover that
    // hardware stall like any other wait: both cells unwind with a
    // typed error naming the register load, and nothing hangs.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.faults = sim::FaultPlan::drops(31, 1.0);
    cfg.retry.watchdogUs = 500.0;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        ctx.allreduce(1.0, core::ReduceOp::sum);
    });

    EXPECT_FALSE(r.deadlock) << "a register load outlived the watchdog";
    ASSERT_EQ(r.errors.size(), 2u);
    for (const std::string &err : r.errors) {
        EXPECT_NE(err.find("watchdog expired"), std::string::npos)
            << err;
        EXPECT_NE(err.find("blocked in commreg_load"), std::string::npos)
            << err;
    }
}

namespace
{

/** What a run leaves for the count rule below. */
struct ArmedRun
{
    std::uint64_t executed = 0;
    Tick end = 0;
    std::string stats; ///< the registry outside "sim."
};

/** A completing 16-cell program (ring PUTs with flag waits, GETs,
 *  barriers, reductions) under the lossy plan and the reliable
 *  layer, with the watchdog at @p watchdogUs (0: off). */
ArmedRun
lossy_reliable_run(double watchdogUs, int threads)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(16);
    cfg.memBytesPerCell = 1 << 20;
    cfg.faults = sim::FaultPlan::lossy(1);
    cfg.reliableNet = true;
    cfg.retry.watchdogUs = watchdogUs;
    cfg.threads = threads;
    hw::Machine m(cfg);
    core::SpmdResult r = core::run_spmd(m, [](core::Context &ctx) {
        int p = ctx.nprocs();
        CellId right = (ctx.id() + 1) % p;
        Addr buf = ctx.alloc(256);
        Addr flag = ctx.alloc_flag();
        Addr got = ctx.alloc_flag();
        for (int round = 0; round < 6; ++round) {
            ctx.poke_u32(buf, static_cast<std::uint32_t>(round));
            ctx.put(right, buf + 128, buf, 64, no_flag, flag);
            ctx.wait_flag(flag, static_cast<std::uint64_t>(round) + 1);
            ctx.get(right, buf, buf + 192, 32, no_flag, got);
            ctx.wait_flag(got, static_cast<std::uint64_t>(round) + 1);
            ctx.allreduce(1.0, core::ReduceOp::sum);
            ctx.barrier();
        }
    });
    EXPECT_FALSE(r.deadlock);
    EXPECT_TRUE(r.errors.empty());
    return {m.sim().executed(), m.sim().now(),
            m.stats_registry().dump_json(false, "sim.")};
}

} // namespace

TEST(Watchdog, ArmedDeadlinesThatDoNotExpireCostNoEvents)
{
    // Every wait of this run ends before its 100 ms deadline, and a
    // wait that ends cancels its deadline: the armed run executes
    // exactly the unarmed run's events and ends at the same tick.
    for (int threads : {1, 4}) {
        ArmedRun armed = lossy_reliable_run(100000.0, threads);
        ArmedRun unarmed = lossy_reliable_run(0.0, threads);
        EXPECT_EQ(armed.executed, unarmed.executed)
            << threads << " threads";
        EXPECT_EQ(armed.end, unarmed.end) << threads << " threads";
        EXPECT_EQ(armed.stats, unarmed.stats) << threads << " threads";
    }
}

TEST(CellFailure, SurvivorsFinishBarrierAndReductionsDegraded)
{
    // Kill cell 3 at t=100us while everyone computes. The survivors
    // must cross the next barrier (the S-net releases without the
    // dead member), and both the scalar and the vector reduction must
    // reconfigure to the live group — flagged degraded, with values
    // folded over the survivors only.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.faults.seed = 41;
    cfg.faults.kills.push_back({3, 100.0});
    cfg.retry.watchdogUs = 100000.0;
    hw::Machine m(cfg);

    int degradedMarks = 0;
    int wrongScalar = 0;
    int wrongVector = 0;
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        CellId me = ctx.id();
        ctx.compute_us(200.0); // the kill lands inside this
        if (ctx.owner().cell_failed(me))
            return; // a dead cell's body bows out

        ctx.barrier();
        double s = ctx.allreduce(static_cast<double>(me + 1),
                                 core::ReduceOp::sum);
        if (!ctx.last_collective_degraded())
            ++degradedMarks; // inverted below: must be degraded
        if (s != 1.0 + 2.0 + 3.0) // survivors 0,1,2 contribute
            ++wrongScalar;

        Addr vec = ctx.alloc(2 * 8);
        ctx.poke_f64(vec, static_cast<double>(me));
        ctx.poke_f64(vec + 8, 10.0);
        ctx.allreduce_vector(vec, 2, core::ReduceOp::sum);
        if (!ctx.last_collective_degraded())
            ++degradedMarks;
        if (ctx.peek_f64(vec) != 0.0 + 1.0 + 2.0)
            ++wrongVector;
        if (ctx.peek_f64(vec + 8) != 30.0)
            ++wrongVector;

        ctx.barrier();
        EXPECT_TRUE(ctx.last_collective_degraded());
        EXPECT_GT(ctx.stats().degradedCollectives, 0u);
    });

    EXPECT_FALSE(r.failed()) << (r.errors.empty()
                                     ? "deadlock"
                                     : r.errors.front());
    ASSERT_EQ(r.failedCells.size(), 1u);
    EXPECT_EQ(r.failedCells.front(), 3);
    EXPECT_EQ(degradedMarks, 0) << "a survivor's collective was not "
                                   "marked degraded";
    EXPECT_EQ(wrongScalar, 0);
    EXPECT_EQ(wrongVector, 0);
    EXPECT_TRUE(m.any_failed());
    EXPECT_TRUE(m.cell_failed(3));
}

TEST(CellFailure, DeadCellBlockedInWaitIsExcusedNotAnError)
{
    // Cell 3 is parked in a wait that can never complete when the
    // kill lands. The watchdog converts its wait into a cell_failed
    // CommError, which run_spmd files under failedCells — the run
    // itself still passes.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.faults.seed = 43;
    cfg.faults.kills.push_back({3, 100.0});
    cfg.retry.watchdogUs = 1000.0;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        CellId me = ctx.id();
        if (me == 3) {
            Addr flag = ctx.alloc_flag();
            ctx.wait_flag(flag, 1); // nobody will ever bump this
            return;
        }
        ctx.compute_us(200.0);
        ctx.barrier();
    });

    EXPECT_FALSE(r.failed()) << (r.errors.empty()
                                     ? "deadlock"
                                     : r.errors.front());
    ASSERT_EQ(r.failedCells.size(), 1u);
    EXPECT_EQ(r.failedCells.front(), 3);
}

TEST(CellFailure, GroupReduceFiltersDeadMembers)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.faults.seed = 47;
    cfg.faults.kills.push_back({1, 50.0});
    cfg.retry.watchdogUs = 100000.0;
    hw::Machine m(cfg);

    int wrong = 0;
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        CellId me = ctx.id();
        ctx.compute_us(100.0);
        if (ctx.owner().cell_failed(me))
            return;
        core::Group g = core::Group::all(ctx.nprocs());
        double s = ctx.allreduce_group(
            g, static_cast<double>(me + 1), core::ReduceOp::sum);
        // Dead member 1 contributes nothing: 1 + 3 + 4.
        if (s != 8.0)
            ++wrong;
        EXPECT_TRUE(ctx.last_collective_degraded());
    });

    EXPECT_FALSE(r.failed()) << (r.errors.empty()
                                     ? "deadlock"
                                     : r.errors.front());
    EXPECT_EQ(wrong, 0);
}

TEST(CellFailure, KillInsideScalarAllreduceNeverHangs)
{
    // Cell 1 dies at one of 109 ticks spread over back-to-back
    // scalar reductions, so some kills land after a survivor started
    // loading a register the dead cell was to fill. That survivor
    // must unwind through the watchdog: no kill tick may deadlock,
    // and 1 and 4 kernel threads must agree on the outcome.
    for (int k = 0; k <= 108; ++k) {
        double atUs = 20.0 + 0.37 * k;
        std::vector<std::string> outcome;
        for (int threads : {1, 4}) {
            hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
            cfg.faults.kills.push_back({1, atUs});
            cfg.retry.watchdogUs = 1000.0;
            cfg.threads = threads;
            hw::Machine m(cfg);

            core::SpmdResult r =
                core::run_spmd(m, [](core::Context &ctx) {
                    for (int i = 0; i < 40; ++i) {
                        ctx.allreduce(1.0, core::ReduceOp::sum);
                        ctx.compute_us(0.3);
                    }
                });

            EXPECT_FALSE(r.deadlock) << "kill at " << atUs
                                     << " us, " << threads
                                     << " threads: " << r.stuck.size()
                                     << " cells stuck";
            ASSERT_EQ(r.failedCells, std::vector<CellId>{1});
            std::string o = std::to_string(r.finishTick);
            for (const std::string &e : r.errors)
                o += "\n" + e;
            outcome.push_back(std::move(o));
        }
        EXPECT_EQ(outcome[0], outcome[1]) << "kill at " << atUs << " us";
    }
}

namespace
{

/** What cell 0 received from the doomed sender, and the T-net's
 *  message count. */
struct KillOutcome
{
    std::uint32_t flag = 0;
    std::uint64_t messages = 0;
};

/**
 * Cell 1 queues 200 4 KB PUTs to cell 0 and dies at 1000 us, long
 * before its MSC+ has sent them all. With @p runTime the kill is
 * issued from a machine-timeline event at 500 us through
 * Machine::kill_cell(); otherwise the fault plan lists it. The kernel
 * runs on @p threads shards.
 */
KillOutcome
kill_sender(bool reliable, bool runTime, int threads)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.reliableNet = reliable;
    cfg.threads = threads;
    cfg.retry.watchdogUs = 1000.0;
    if (!runTime)
        cfg.faults.kills.push_back({1, 1000.0});
    hw::Machine m(cfg);
    if (runTime)
        m.sim().schedule_for(-1, us_to_ticks(500.0), [&m] {
            m.kill_cell(1, us_to_ticks(1000.0));
        });

    KillOutcome out;
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr rf = ctx.alloc_flag();
        Addr buf = ctx.alloc(4096);
        if (ctx.id() == 1)
            for (int i = 0; i < 200; ++i)
                ctx.put(0, buf, buf, 4096, no_flag, rf);
        if (ctx.id() == 0) {
            ctx.compute_us(40000.0); // all 200 would have landed
            out.flag = ctx.flag(rf);
        }
    });
    EXPECT_FALSE(r.deadlock);
    out.messages = m.tnet().stats().messages;
    return out;
}

/** (reliable layer on, kernel threads). */
class RunTimeKill
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

} // namespace

TEST_P(RunTimeKill, StopsTheCellsTrafficLikeAPlannedKill)
{
    // A kill issued during the run is as fail-stop as one the plan
    // lists: the dead sender's queued PUTs stop at its kill tick, and
    // under the reliable layer it stops acknowledging too. On four
    // shards the dead cell's reliable-layer row is flushed on its own
    // shard while the live cells run on theirs.
    auto [reliable, threads] = GetParam();
    KillOutcome planned = kill_sender(reliable, false, threads);
    KillOutcome runTime = kill_sender(reliable, true, threads);
    // Six PUTs land before the kill; the reliable layer adds their
    // four acks.
    EXPECT_EQ(planned.flag, 6u);
    EXPECT_EQ(planned.messages, reliable ? 10u : 6u);
    EXPECT_EQ(runTime.flag, planned.flag);
    EXPECT_EQ(runTime.messages, planned.messages);
}

INSTANTIATE_TEST_SUITE_P(
    CellFailure, RunTimeKill,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>> &p) {
        std::string name = std::get<0>(p.param) ? "reliable" : "raw";
        if (int threads = std::get<1>(p.param); threads > 1)
            name += "_threads" + std::to_string(threads);
        return name;
    });

TEST(CellFailure, KillOnlyPlanLeavesTheInjectorOff)
{
    // Kills live in the machine's kill table. A plan with nothing
    // else arms no injector, so no T-net send consults it and no
    // always-zero cellN.fault rows are bound; one probabilistic
    // mechanism binds them for every cell.
    auto fault_paths = [](const hw::Machine &m) {
        std::size_t n = 0;
        for (const std::string &p : m.stats_registry().paths())
            n += p.find(".fault.") != std::string::npos;
        return n;
    };
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(16);
    cfg.memBytesPerCell = 1 << 20;
    cfg.faults.kills.push_back({5, 30.0});
    {
        hw::Machine m(cfg);
        EXPECT_FALSE(m.faults().active());
        EXPECT_EQ(fault_paths(m), 0u);
    }
    cfg.faults.dropProb = 0.01;
    hw::Machine m(cfg);
    EXPECT_TRUE(m.faults().active());
    EXPECT_EQ(fault_paths(m), 16u * 3);
}
