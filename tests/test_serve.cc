/**
 * @file
 * Serving-layer tests: partitioner, admission control, deadlines,
 * and failure-driven rescheduling.
 *
 * The acceptance property mirrors the ap_serve fault drill: a seeded
 * kill mid-fleet must doom the gangs holding that cell, quarantine
 * their partitions, and reschedule the jobs onto live cells until
 * they complete or exhaust their retry budgets — while the rest of
 * the fleet finishes untouched and every job lands in a terminal
 * state.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "base/logging.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "serve/job.hh"
#include "serve/partition.hh"
#include "serve/scheduler.hh"

using namespace ap;
using serve::GangScheduler;
using serve::JobSpec;
using serve::JobState;
using serve::Partitioner;
using serve::Placement;
using serve::ServeConfig;

// ---------------------------------------------------------------- //
// Partitioner unit tests
// ---------------------------------------------------------------- //

TEST(Partitioner, FirstFitPlacesRowMajorAndExhausts)
{
    Partitioner p(4, 4);
    auto a = p.allocate(2, 2);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->x0, 0);
    EXPECT_EQ(a->y0, 0);
    EXPECT_EQ(a->cells, (std::vector<CellId>{0, 1, 4, 5}));

    auto b = p.allocate(2, 2);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->x0, 2); // next anchor in row-major order
    EXPECT_EQ(b->y0, 0);

    auto c = p.allocate(4, 2);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->y0, 2);

    EXPECT_EQ(p.free_cells(), 0);
    EXPECT_FALSE(p.allocate(1, 1).has_value());

    p.release(*b);
    EXPECT_EQ(p.free_cells(), 4);
    auto again = p.allocate(2, 2);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->x0, 2);
    EXPECT_EQ(again->y0, 0);
}

TEST(Partitioner, TriesTransposeWhenRequestedShapeCannotFit)
{
    Partitioner p(4, 2);
    auto a = p.allocate(2, 4); // only fits as 4x2
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->w, 4);
    EXPECT_EQ(a->h, 2);
    EXPECT_TRUE(p.could_ever_fit(2, 4));
    EXPECT_FALSE(p.could_ever_fit(3, 3));
}

TEST(Partitioner, QuarantinedCellsAreNeverReused)
{
    Partitioner p(2, 2);
    auto a = p.allocate(2, 1);
    ASSERT_TRUE(a.has_value());
    p.quarantine(*a);
    EXPECT_EQ(p.quarantined_cells(), 2);
    // Only the bottom row remains; a 2x1 still fits there, a 2x2
    // never will again.
    auto b = p.allocate(2, 1);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->y0, 1);
    EXPECT_FALSE(p.allocate(1, 1).has_value());
    p.release(*b);
    EXPECT_FALSE(p.allocate(2, 2).has_value());
}

TEST(Partitioner, DeadCellBlocksRectanglesCoveringIt)
{
    Partitioner p(2, 2);
    p.mark_dead(0);
    EXPECT_EQ(p.dead_cells(), 1);
    EXPECT_FALSE(p.allocate(2, 2).has_value());
    auto a = p.allocate(2, 1); // bottom row is clear
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->y0, 1);
    EXPECT_EQ(p.busy_list(), (std::vector<CellId>{2, 3}));
}

// ---------------------------------------------------------------- //
// Scheduler integration tests
// ---------------------------------------------------------------- //

namespace
{

hw::MachineConfig
serve_machine(int cells, double watchdogUs = 3000.0)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.retry.watchdogUs = watchdogUs;
    return cfg;
}

JobSpec
small_job(int id, serve::JobKind kind = serve::JobKind::gen)
{
    JobSpec s;
    s.id = id;
    s.kind = kind;
    s.pw = 2;
    s.ph = 2;
    s.iters = 3;
    s.bytes = 512;
    s.computeUs = 30.0;
    s.deadline = serve::DeadlineClass::batch;
    s.retryBudget = 2;
    s.arrivalUs = 20.0 + 10.0 * id;
    s.seed = 1000 + static_cast<std::uint64_t>(id);
    return s;
}

} // namespace

TEST(GangScheduler, SingleJobRunsToCompletionWithStats)
{
    hw::Machine m(serve_machine(4));
    GangScheduler sched(m, ServeConfig{});
    sched.schedule_stream({small_job(0, serve::JobKind::matmul)});
    m.run_to_completion();
    sched.finalize();

    ASSERT_EQ(sched.jobs().size(), 1u);
    const serve::JobRecord &r = sched.jobs().front();
    EXPECT_EQ(r.state, JobState::completed);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_GT(r.serviceTicks, 0u);
    EXPECT_TRUE(sched.all_terminal());
    EXPECT_EQ(sched.totals().completed, 1u);
    EXPECT_EQ(sched.partitioner().busy_cells(), 0);

    // The per-job stats subtree exists while the scheduler lives.
    auto snap = m.stats_registry().snapshot();
    bool sawJob = false;
    for (const auto &kv : snap)
        if (kv.first == "serve.job.0.attempts") {
            sawJob = true;
            EXPECT_EQ(kv.second, 1u);
        }
    EXPECT_TRUE(sawJob);
}

TEST(GangScheduler, EveryWorkloadKindCompletes)
{
    hw::Machine m(serve_machine(16));
    GangScheduler sched(m, ServeConfig{});
    std::vector<JobSpec> stream;
    for (int k = 0; k < 6; ++k)
        stream.push_back(
            small_job(k, static_cast<serve::JobKind>(k)));
    sched.schedule_stream(stream);
    m.run_to_completion();
    sched.finalize();

    EXPECT_TRUE(sched.all_terminal());
    EXPECT_EQ(sched.totals().completed, 6u);
    EXPECT_EQ(sched.totals().failedTerminal, 0u);
}

TEST(GangScheduler, ShedsOnQueueFullAndTooLarge)
{
    hw::Machine m(serve_machine(4));
    ServeConfig cfg;
    cfg.queueDepth = 1;
    cfg.maxInflight = 1;
    GangScheduler sched(m, cfg);

    std::vector<JobSpec> stream;
    for (int i = 0; i < 4; ++i) {
        JobSpec s = small_job(i);
        s.arrivalUs = 20.0 + 1.0 * i; // burst: one runs, one queues
        stream.push_back(s);
    }
    JobSpec giant = small_job(4);
    giant.pw = 8; // can never fit a 2x2 torus
    giant.ph = 8;
    stream.push_back(giant);
    sched.schedule_stream(stream);
    m.run_to_completion();
    sched.finalize();

    EXPECT_TRUE(sched.all_terminal());
    EXPECT_EQ(sched.totals().shedTooLarge, 1u);
    EXPECT_GE(sched.totals().shedQueueFull, 1u);
    EXPECT_GE(sched.totals().completed, 2u);
    bool sawReason = false;
    for (const serve::JobRecord &r : sched.jobs())
        if (r.state == JobState::shed &&
            r.reason.find("queue_full") != std::string::npos)
            sawReason = true;
    EXPECT_TRUE(sawReason);
}

TEST(GangScheduler, UrgentDeadlineCancelsLongJobCleanly)
{
    hw::Machine m(serve_machine(4));
    ServeConfig cfg;
    cfg.urgentDeadlineUs = 300.0; // far below the job's run time
    GangScheduler sched(m, cfg);

    JobSpec s = small_job(0);
    s.deadline = serve::DeadlineClass::urgent;
    s.iters = 200;
    s.computeUs = 50.0;
    sched.schedule_stream({s});
    m.run_to_completion();
    sched.finalize();

    ASSERT_EQ(sched.jobs().size(), 1u);
    const serve::JobRecord &r = sched.jobs().front();
    EXPECT_EQ(r.state, JobState::deadline_cancelled) << r.reason;
    EXPECT_EQ(sched.totals().deadlineCancelled, 1u);
    // Clean cooperative exit: the partition is released, not
    // quarantined.
    EXPECT_EQ(sched.partitioner().quarantined_cells(), 0);
    EXPECT_EQ(sched.partitioner().free_cells(), 4);
}

TEST(GangScheduler, KillDrillReschedulesOntoFreshPartition)
{
    // The acceptance drill: 16 cells, a steady stream, one cell shot
    // mid-run. The hit job must retry on a live partition and every
    // job must reach a terminal state.
    hw::Machine m(serve_machine(16));
    GangScheduler sched(m, ServeConfig{});

    std::vector<JobSpec> stream;
    for (int i = 0; i < 12; ++i) {
        JobSpec s = small_job(i, static_cast<serve::JobKind>(i % 6));
        s.iters = 6;
        s.arrivalUs = 20.0 + 40.0 * i;
        stream.push_back(s);
    }
    sched.schedule_stream(stream);

    // Aim the kill at a cell a running gang actually holds.
    m.sim().schedule_for(-1, us_to_ticks(300.0), [&] {
        CellId victim = sched.pick_busy_cell(7);
        ASSERT_GE(victim, 0) << "fleet idle at kill time";
        m.kill_cell(victim, m.sim().now() + us_to_ticks(5.0));
    });

    m.run_to_completion();
    sched.finalize();

    const serve::ServeTotals &t = sched.totals();
    EXPECT_TRUE(sched.all_terminal());
    EXPECT_GE(t.attemptsKilled, 1u);
    EXPECT_GE(t.partitionsQuarantined, 1u);
    EXPECT_GE(t.retried, 1u);
    EXPECT_EQ(t.failedTerminal, 0u);
    EXPECT_EQ(t.completed, 12u);
    EXPECT_EQ(sched.partitioner().dead_cells(), 1);

    // The retried job's second attempt avoided the quarantined
    // rectangle: its record shows >1 attempts and a completed state.
    bool sawRetry = false;
    for (const serve::JobRecord &r : sched.jobs())
        if (r.attempts > 1) {
            sawRetry = true;
            EXPECT_EQ(r.state, JobState::completed) << r.reason;
            EXPECT_GE(r.retries, 1u);
        }
    EXPECT_TRUE(sawRetry);
}

TEST(GangScheduler, ExhaustedRetryBudgetReportsTerminalFailure)
{
    // One job, retry budget 0, and a kill guaranteed to land inside
    // its service time: the loss must be terminal, with the first
    // error preserved in the reason — and must not crash the fleet.
    hw::Machine m(serve_machine(4));
    GangScheduler sched(m, ServeConfig{});

    JobSpec s = small_job(0);
    s.retryBudget = 0;
    s.iters = 50;
    s.computeUs = 50.0;
    sched.schedule_stream({s});

    m.sim().schedule_for(-1, us_to_ticks(200.0), [&] {
        CellId victim = sched.pick_busy_cell(0);
        ASSERT_GE(victim, 0);
        m.kill_cell(victim, m.sim().now() + us_to_ticks(5.0));
    });

    m.run_to_completion();
    sched.finalize();

    ASSERT_EQ(sched.jobs().size(), 1u);
    const serve::JobRecord &r = sched.jobs().front();
    EXPECT_EQ(r.state, JobState::failed) << r.reason;
    EXPECT_NE(r.reason.find("retry budget exhausted"),
              std::string::npos)
        << r.reason;
    EXPECT_EQ(sched.totals().retried, 0u);
    EXPECT_EQ(sched.totals().failedTerminal, 1u);
    EXPECT_GE(sched.totals().partitionsQuarantined, 1u);
}

TEST(GangScheduler, UtilizationCoversAttemptsOfJobsThatStarve)
{
    // A quick 1x1 job completes; then a whole-machine job is killed,
    // its partition is quarantined and its retry starves. The killed
    // attempt held every cell until after the last terminal job, so
    // the makespan must run to that attempt's finish for its
    // cell-ticks to fit.
    hw::Machine m(serve_machine(4));
    GangScheduler sched(m, ServeConfig{});

    JobSpec quick = small_job(0);
    quick.pw = 1;
    quick.ph = 1;
    quick.iters = 1;
    JobSpec whole = small_job(1);
    whole.arrivalUs = 400.0;
    whole.iters = 50;
    whole.computeUs = 50.0;
    sched.schedule_stream({quick, whole});

    m.sim().schedule_for(-1, us_to_ticks(1000.0), [&] {
        CellId victim = sched.pick_busy_cell(0);
        ASSERT_GE(victim, 0);
        m.kill_cell(victim, m.sim().now() + us_to_ticks(5.0));
    });

    m.run_to_completion();
    sched.finalize();

    ASSERT_EQ(sched.jobs().size(), 2u);
    EXPECT_EQ(sched.jobs()[0].state, JobState::completed);
    EXPECT_EQ(sched.jobs()[1].state, JobState::starved)
        << sched.jobs()[1].reason;
    EXPECT_GT(sched.utilization(), 0.0);
    EXPECT_LE(sched.utilization(), 1.0);
}

TEST(GangScheduler, JobsWithNoFeasiblePartitionStarve)
{
    // Kill a cell before the stream starts: the 2x2 torus can never
    // host a 2x2 job again, so the job must come out starved (not
    // hang the run, not crash finalize).
    hw::Machine m(serve_machine(4));
    GangScheduler sched(m, ServeConfig{});

    m.kill_cell(0, us_to_ticks(5.0));
    JobSpec s = small_job(0);
    s.arrivalUs = 100.0;
    sched.schedule_stream({s});
    m.run_to_completion();
    sched.finalize();

    ASSERT_EQ(sched.jobs().size(), 1u);
    const serve::JobRecord &r = sched.jobs().front();
    EXPECT_EQ(r.state, JobState::starved) << r.reason;
    EXPECT_NE(r.reason.find("no feasible partition"),
              std::string::npos);
    EXPECT_EQ(sched.totals().starved, 1u);
    EXPECT_TRUE(sched.all_terminal());
}

TEST(GangScheduler, StatsSubtreeRemovedWithScheduler)
{
    hw::Machine m(serve_machine(4));
    {
        GangScheduler sched(m, ServeConfig{});
        sched.schedule_stream({small_job(0)});
        m.run_to_completion();
        sched.finalize();
        bool sawServe = false;
        for (const auto &kv : m.stats_registry().snapshot())
            if (kv.first.rfind("serve.", 0) == 0)
                sawServe = true;
        EXPECT_TRUE(sawServe);
    }
    for (const auto &kv : m.stats_registry().snapshot())
        EXPECT_NE(kv.first.rfind("serve.", 0), 0u)
            << "stale stat " << kv.first;
}

TEST(TrafficGenerator, DeterministicSortedAndClipped)
{
    serve::TrafficConfig cfg;
    cfg.jobs = 24;
    cfg.seed = 9;
    cfg.maxW = 2;
    cfg.maxH = 2;
    auto a = serve::generate_stream(cfg);
    auto b = serve::generate_stream(cfg);
    ASSERT_EQ(a.size(), 24u);
    std::set<int> tenants;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int>(i));
        EXPECT_EQ(a[i].arrivalUs, b[i].arrivalUs);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_LE(a[i].pw, 2);
        EXPECT_LE(a[i].ph, 2);
        if (i > 0) {
            EXPECT_GE(a[i].arrivalUs, a[i - 1].arrivalUs);
        }
        tenants.insert(a[i].tenant);
    }
    EXPECT_GT(tenants.size(), 1u);
}

TEST(GangScheduler, GangFinishIsThreadCountIndependent)
{
    // A 1x4 gang on cells 0, 4, 8 and 12 — one per shard at four
    // threads — that votes out at its deadline, a 3x4 gang beside it,
    // and a 4x4 job that can only start once both finished. The
    // finish ticks, the admission they trigger and everything
    // downstream must not depend on which member's shard the host
    // ran last.
    auto run = [](int threads) {
        hw::MachineConfig cfg = serve_machine(16);
        cfg.threads = threads;
        hw::Machine m(cfg);
        sim::TickHistory hist;
        m.sim().set_history(&hist);
        ServeConfig scfg;
        scfg.urgentDeadlineUs = 300.0;
        GangScheduler sched(m, scfg);
        JobSpec tall = small_job(0, serve::JobKind::cg);
        tall.pw = 1;
        tall.ph = 4;
        tall.iters = 50;
        tall.deadline = serve::DeadlineClass::urgent;
        JobSpec wide = small_job(1);
        wide.pw = 3;
        wide.ph = 4;
        wide.iters = 2;
        JobSpec full = small_job(2);
        full.pw = 4;
        full.ph = 4;
        sched.schedule_stream({tall, wide, full});
        m.run_to_completion();
        sched.finalize();
        std::string out = hist.digest() + "\n" +
                          m.stats_registry().dump_json(false, "sim.");
        for (const serve::JobRecord &r : sched.jobs())
            out += strprintf("\njob %d %s %llu %llu %llu", r.spec.id,
                             serve::state_name(r.state),
                             static_cast<unsigned long long>(
                                 r.firstStartTick),
                             static_cast<unsigned long long>(
                                 r.finishTick),
                             static_cast<unsigned long long>(
                                 r.queuedTicks));
        EXPECT_TRUE(sched.all_terminal());
        EXPECT_EQ(sched.totals().completed, 2u);
        EXPECT_EQ(sched.totals().deadlineCancelled, 1u);
        return out;
    };
    std::string seq = run(1);
    for (int threads : {2, 4, 8})
        EXPECT_EQ(seq, run(threads)) << threads << " threads";
}

TEST(GangScheduler, SimultaneousFinishesKeepBothAttemptsUntilTheirFinish)
{
    // Two identical one-cell gangs launched together leave at the same
    // tick, so both finishes are pending at once: the first finish's
    // reap must not free the second attempt before its own finish
    // event has run.
    hw::Machine m(serve_machine(4));
    GangScheduler sched(m, ServeConfig{});
    JobSpec a = small_job(0);
    a.pw = 1;
    a.ph = 1;
    JobSpec b = a;
    b.id = 1;
    sched.schedule_stream({a, b});
    m.run_to_completion();
    sched.finalize();
    ASSERT_EQ(sched.jobs().size(), 2u);
    EXPECT_EQ(sched.totals().completed, 2u);
    EXPECT_EQ(sched.jobs()[0].finishTick, sched.jobs()[1].finishTick);
}
