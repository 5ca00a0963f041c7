/**
 * @file
 * Unit tests of the event kernel (sim/eventq.hh) with more than one
 * shard: equality with one shard at several shard counts, the window
 * arithmetic (including saturation at max_tick), the contiguous-block
 * timeline map, cross-shard handoffs, safe-horizon execution, the
 * lookahead contract, window telemetry, the kill path under worker
 * threads (SpmdResult::failedCells), and S-net deaths against
 * arrivals under both host interleavings of one window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/program.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "mlsim/params.hh"
#include "net/kills.hh"
#include "net/snet.hh"
#include "obs/span.hh"
#include "phold_workload.hh"
#include "sim/eventq.hh"

using namespace ap;
using namespace ap::sim;
using test::kLookahead;
using test::Workload;

namespace
{

constexpr int kTimelines = 16;

} // namespace

TEST(EventKernelParallel, ParallelMatchesOneShardAcrossShardCounts)
{
    const int cells = 12, hops = 40;

    Simulator one;
    TickHistory oneHist;
    one.set_history(&oneHist);
    Workload wone(cells);
    wone.start(one, cells, hops);
    one.run();

    for (int shards : {2, 3, 4, 8}) {
        Simulator sh(shards, cells, kLookahead);
        TickHistory hist;
        sh.set_history(&hist);
        Workload w(cells);
        w.start(sh, cells, hops);
        sh.run();

        EXPECT_EQ(oneHist.digest(), hist.digest())
            << "shards=" << shards;
        EXPECT_EQ(wone.digest(), w.digest()) << "shards=" << shards;
        EXPECT_EQ(one.executed(), sh.executed());
        EXPECT_GT(sh.window_stats().windows, 0u);
    }
}

TEST(EventKernelParallel, WindowIsMinPendingPlusLookahead)
{
    // Four timelines, one per shard. Each window starts at the
    // globally earliest pending tick and ends one lookahead later,
    // or just past a run_until() limit.
    Simulator sim(4, 4, kLookahead);
    std::vector<WindowRecord> recs;
    sim.set_window_hook(
        [&](const WindowRecord &w) { recs.push_back(w); });
    sim.schedule_for(0, 500, [] {});
    sim.schedule_for(1, 300, [] {});
    sim.schedule_for(2, 900, [] {});
    sim.schedule_for(3, 350, [] {});
    sim.run_until(320);
    sim.run();

    ASSERT_EQ(recs.size(), 4u);
    const Tick starts[] = {300, 350, 500, 900};
    const Tick ends[] = {321, 350 + kLookahead, 500 + kLookahead,
                         900 + kLookahead};
    const Tick advances[] = {0, 50, 150, 400};
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].index, i);
        EXPECT_EQ(recs[i].start, starts[i]) << "window " << i;
        EXPECT_EQ(recs[i].end, ends[i]) << "window " << i;
        EXPECT_EQ(recs[i].advance, advances[i]) << "window " << i;
        EXPECT_EQ(recs[i].events, 1u) << "window " << i;
    }
    // The first window ran timeline 1's event on shard 1 only.
    ASSERT_EQ(recs[0].shards.size(), 4u);
    EXPECT_EQ(recs[0].shards[1].events, 1u);
    EXPECT_EQ(recs[0].shards[1].last, 300u);
    EXPECT_EQ(recs[0].shards[0].events, 0u);
    EXPECT_EQ(recs[0].shards[0].last, 0u);
    EXPECT_EQ(recs[0].imbalanceX1000, 4000u);
}

TEST(EventKernelParallel, HorizonSaturatesAtMaxTick)
{
    std::vector<WindowRecord> recs;
    auto hook = [&](const WindowRecord &w) { recs.push_back(w); };

    Simulator huge(2, 2, max_tick);
    huge.set_window_hook(hook);
    huge.schedule_for(0, 10, [] {});
    huge.run();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].end, max_tick);

    recs.clear();
    Simulator late(2, 2, kLookahead);
    late.set_window_hook(hook);
    late.schedule_for(1, max_tick - 10, [] {});
    late.run();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].end, max_tick);
    EXPECT_EQ(late.now(), max_tick - 10);
}

TEST(EventKernelParallel, BlockMapRoutesContiguousBlocks)
{
    Simulator sim(2, kTimelines, kLookahead);
    EXPECT_EQ(sim.shards(), 2);
    EXPECT_EQ(sim.shard_of(-1), 0);
    EXPECT_EQ(sim.shard_of(7), 0);
    EXPECT_EQ(sim.shard_of(8), 1);
    EXPECT_EQ(sim.shard_of(kTimelines), 1); // past the end: last

    // Uneven blocks: 8 timelines over 3 shards.
    Simulator three(3, 8, kLookahead);
    std::vector<int> got;
    for (int a = 0; a < 8; ++a)
        got.push_back(three.shard_of(a));
    EXPECT_EQ(got, (std::vector<int>{0, 0, 0, 1, 1, 1, 2, 2}));

    // More threads than timelines: one shard per timeline.
    EXPECT_EQ(Simulator(8, 3, kLookahead).shards(), 3);

    // Same-tick events on different shards drain concurrently.
    std::atomic<int> ran{0};
    sim.schedule_for(9, 5, [&] { ++ran; });
    sim.schedule_for(3, 5, [&] { ++ran; });
    sim.run();
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(sim.shard_stats(0).executed, 1u);
    EXPECT_EQ(sim.shard_stats(1).executed, 1u);
}

TEST(EventKernelParallel, CrossShardHandoffCountsBothSides)
{
    Simulator sh(2, 2, kLookahead);
    sh.schedule_for(0, 0, [&] {
        // Executes on shard 0; schedules onto shard 1.
        sh.schedule_after_for(1, kLookahead, [] {});
    });
    sh.run();
    EXPECT_EQ(sh.shard_stats(0).handoffsOut, 1u);
    EXPECT_EQ(sh.shard_stats(1).handoffsIn, 1u);
    EXPECT_EQ(sh.executed(), 2u);
}

TEST(EventKernelParallel, CurrentAffinityIsTheExecutingTimelineOnWorkers)
{
    // Keyed kernel jitter reads the executing timeline: on a worker
    // thread it must be the event's affinity, not the idle value.
    Simulator sh(2, 8, kLookahead);
    std::atomic<int> seen{-99};
    std::atomic<bool> inside{false};
    sh.schedule_for(5, 10, [&] {
        seen = sh.current_affinity();
        inside = sh.executing();
    });
    sh.schedule_for(0, 10, [] {});
    sh.run();
    EXPECT_EQ(seen.load(), 5);
    EXPECT_TRUE(inside.load());
    EXPECT_EQ(sh.current_affinity(), 0); // at rest
    EXPECT_FALSE(sh.executing());
}

TEST(EventKernelParallel, NoEventFiresBeforeItsShardsSafeHorizon)
{
    // Every cross-shard event must execute exactly at its scheduled
    // tick, at least one lookahead after the tick that created it,
    // and per-shard execution must be time-monotonic.
    Simulator sh(4, 4, kLookahead);

    struct Probe
    {
        Tick created, scheduled, executed;
    };
    std::vector<Probe> probes(64);
    std::atomic<int> bad{0};
    std::vector<Tick> lastOnShard(4, 0);

    for (int i = 0; i < 64; ++i) {
        int src = i % 4;
        int dst = (i + 1) % 4;
        Tick start = static_cast<Tick>(10 * i);
        sh.schedule_for(src, start, [&, i, dst, start] {
            Tick fire = start + kLookahead +
                        static_cast<Tick>(i % 50);
            probes[static_cast<std::size_t>(i)].created = start;
            probes[static_cast<std::size_t>(i)].scheduled = fire;
            sh.schedule_for(dst, fire, [&, i, dst] {
                Tick t = sh.now();
                probes[static_cast<std::size_t>(i)].executed = t;
                auto d = static_cast<std::size_t>(dst);
                if (t < lastOnShard[d])
                    bad.fetch_add(1);
                lastOnShard[d] = t;
            });
        });
    }
    sh.run();

    EXPECT_EQ(bad.load(), 0) << "per-shard time order broken";
    for (const Probe &p : probes) {
        EXPECT_EQ(p.executed, p.scheduled);
        EXPECT_GE(p.executed, p.created + kLookahead);
    }
}

TEST(EventKernelParallelDeath, StrictLookaheadViolationPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            Simulator sh(2, 2, kLookahead);
            sh.schedule_for(0, 10, [&] {
                // Cross-shard with a delay below the lookahead.
                sh.schedule_after_for(1, kLookahead / 2, [] {});
            });
            sh.run();
        },
        "lookahead violation");
}

TEST(EventKernelParallel, ReportNamesShardsAndWindows)
{
    Simulator sh(2, 2, kLookahead);
    sh.schedule_for(0, 1, [] {});
    sh.schedule_for(1, 2, [] {});
    sh.run();
    std::string r = sh.report();
    EXPECT_NE(r.find("2 shards"), std::string::npos);
    EXPECT_NE(r.find("shard 0"), std::string::npos);
    EXPECT_NE(r.find("shard 1"), std::string::npos);
    EXPECT_NE(r.find("windows"), std::string::npos);
}

TEST(EventKernelParallel, ParallelRunRecordsWindowTelemetry)
{
    const int cells = 16, hops = 40;
    Simulator sh(2, cells, kLookahead);
    std::vector<WindowRecord> recs;
    sh.set_window_hook(
        [&](const WindowRecord &w) { recs.push_back(w); });
    Workload w(cells);
    w.start(sh, cells, hops);
    sh.run();

    // The hook saw every window, in order, and the records add up to
    // the aggregate and to the run.
    const WindowAgg &agg = sh.window_stats();
    ASSERT_GT(agg.windows, 0u);
    ASSERT_EQ(recs.size(), agg.windows);
    std::uint64_t events = 0;
    Tick advance = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const WindowRecord &r = recs[i];
        EXPECT_EQ(r.index, i);
        if (i > 0) {
            EXPECT_GT(r.start, recs[i - 1].start);
            EXPECT_EQ(r.advance, r.start - recs[i - 1].start);
        }
        EXPECT_EQ(r.end, r.start + kLookahead);
        ASSERT_EQ(r.shards.size(), 2u);
        std::uint64_t inWindow = 0, maxShard = 0;
        for (const WindowShard &ws : r.shards) {
            inWindow += ws.events;
            maxShard = std::max(maxShard, ws.events);
            if (ws.events > 0) {
                EXPECT_GE(ws.last, r.start);
                EXPECT_LT(ws.last, r.end);
            }
        }
        EXPECT_EQ(inWindow, r.events);
        EXPECT_EQ(maxShard, r.maxShardEvents);
        // Imbalance is max/mean x1000, so >= 1000 whenever the
        // window executed events.
        if (r.events > 0) {
            EXPECT_EQ(r.imbalanceX1000,
                      maxShard * 2 * 1000 / r.events);
        }
        events += r.events;
        advance += r.advance;
    }
    EXPECT_EQ(events, sh.executed());
    EXPECT_EQ(agg.events, sh.executed());
    EXPECT_EQ(agg.horizonAdvance, advance);
    EXPECT_GT(agg.horizonAdvance, 0u);
    EXPECT_GE(agg.imbalanceMaxX1000, 1000u);
    EXPECT_GE(agg.imbalanceSumX1000, 1000u);

    // Both shards ran events and the registry-facing per-shard
    // counters saw them.
    for (int s = 0; s < 2; ++s)
        EXPECT_GT(sh.shard_stats(s).executed, 0u);
}

TEST(EventKernelParallel, SingleShardHasNoWindowTelemetry)
{
    // One shard drains inline: the windowed machinery (and its
    // bookkeeping) must not run at all.
    Simulator sh(1, 8, kLookahead);
    int windows = 0;
    sh.set_window_hook([&](const WindowRecord &) { ++windows; });
    Workload w(8);
    w.start(sh, 8, 20);
    sh.run();

    EXPECT_GT(sh.executed(), 0u);
    EXPECT_EQ(sh.shard_stats(0).executed, sh.executed());
    EXPECT_EQ(windows, 0);
    EXPECT_EQ(sh.window_stats().windows, 0u);
    EXPECT_EQ(sh.shard_stats(0).barrierWaitNs, 0u);
    EXPECT_EQ(sh.shard_stats(0).handoffsOut, 0u);
}

namespace
{

/**
 * Kill cell 3 at t=100us on a machine driven by worker threads and
 * assert the full failure contract: survivors cross the barrier
 * degraded, the dead cell lands in SpmdResult::failedCells, and the
 * run itself still passes. Mirrors the single-threaded
 * CellFailure.SurvivorsFinishBarrierAndReductionsDegraded — this is
 * the threads x kill-path combination nothing else covered.
 */
void
run_threaded_kill(int threads)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.threads = threads;
    cfg.faults.seed = 47;
    cfg.faults.kills.push_back({3, 100.0});
    cfg.retry.watchdogUs = 100000.0;
    hw::Machine m(cfg);

    std::atomic<int> degradedMarks{0};
    std::atomic<int> wrongScalar{0};
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        CellId me = ctx.id();
        ctx.compute_us(200.0); // the kill lands inside this
        if (ctx.owner().cell_failed(me))
            return; // a dead cell's body bows out

        ctx.barrier();
        double s = ctx.allreduce(static_cast<double>(me + 1),
                                 core::ReduceOp::sum);
        if (!ctx.last_collective_degraded())
            degradedMarks.fetch_add(1); // must be degraded
        if (s != 1.0 + 2.0 + 3.0) // survivors 0,1,2 contribute
            wrongScalar.fetch_add(1);
    });

    EXPECT_FALSE(r.failed()) << (r.errors.empty()
                                     ? "deadlock"
                                     : r.errors.front());
    ASSERT_EQ(r.failedCells.size(), 1u)
        << "kill not filed under failedCells";
    EXPECT_EQ(r.failedCells.front(), 3);
    EXPECT_EQ(degradedMarks.load(), 0)
        << "a survivor's collective was not marked degraded";
    EXPECT_EQ(wrongScalar.load(), 0);
    EXPECT_TRUE(m.cell_failed(3));
    EXPECT_FALSE(m.cell_failed(0));
}

} // namespace

TEST(ThreadedKill, FailedCellsSurvivesTwoWorkerThreads)
{
    run_threaded_kill(2);
}

TEST(ThreadedKill, FailedCellsSurvivesFourWorkerThreads)
{
    run_threaded_kill(4);
}

namespace
{

/** Block the calling shard until @p flag is set by another shard's
 *  event in the same window (bounded). @return whether it was. */
bool
wait_for_other_shard(const std::atomic<bool> &flag)
{
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
    return flag.load();
}

/** Barrier members 0 (shard 0) and 3 (shard 1) of a two-shard
 *  kernel whose windows are 500 ticks; cell 3 dies at @p killAt. */
struct SnetRace
{
    Simulator sim{2, 4, 500};
    net::KillTable kills{4};
    obs::SpanLayer spans{4, 16};
    net::Snet snet{sim, 4, mlsim::Params::ap1000_plus(), kills, spans};
    net::Snet::ContextId ctx = snet.create_context({0, 3});
    /** Per cell, its release tick (0: none); each is written on its
     *  own cell's timeline. */
    std::vector<Tick> released = std::vector<Tick>(4, 0);
    std::atomic<bool> flag{false};

    explicit SnetRace(Tick killAt)
    {
        kills.record(3, killAt);
        sim.schedule_for(3, killAt, [this] { snet.fail_cell(3); });
    }

    void
    arrive(CellId cell)
    {
        snet.arrive(ctx, cell, [this, cell] {
            released[static_cast<std::size_t>(cell)] = sim.now();
        });
    }
};

} // namespace

TEST(SnetParallel, DeathBeforeAnEarlierArrivalInHostTimeStillReleases)
{
    // Cell 3 dies at 1300 without arriving; cell 0 arrives at 1200.
    // Shard 0 holds its 1000 event until shard 1 has run the kill, so
    // the death reaches the S-net first: the barrier must still
    // release at the kill tick plus the latency, as in one shard.
    SnetRace r(1300);
    bool seen = false;
    r.sim.schedule_for(0, 1000, [&] { seen = wait_for_other_shard(r.flag); });
    r.sim.schedule_for(0, 1200, [&] { r.arrive(0); });
    r.sim.schedule_for(3, 1300, [&] { r.flag = true; });
    r.sim.run();

    ASSERT_TRUE(seen) << "the shards did not run concurrently";
    EXPECT_EQ(r.released[0], 1300 + us_to_ticks(1.0));
    EXPECT_EQ(r.released[3], 0u);
}

TEST(SnetParallel, ArrivalAfterTheKillTickWaitsForTheDeadCellsArrival)
{
    // Cell 3 arrives at 1100 and dies at 1200; cell 0 arrives at
    // 1300. Shard 1 holds its 1000 event until shard 0 has run that
    // arrival, so the S-net sees cell 0 before cell 3's earlier
    // arrival: it must not count cell 3 dead yet, and releases both
    // at the last arrival plus the latency, as in one shard.
    SnetRace r(1200);
    bool seen = false;
    r.sim.schedule_for(3, 1000, [&] { seen = wait_for_other_shard(r.flag); });
    r.sim.schedule_for(3, 1100, [&] { r.arrive(3); });
    r.sim.schedule_for(0, 1300, [&] {
        r.arrive(0);
        r.flag = true;
    });
    r.sim.run();

    ASSERT_TRUE(seen) << "the shards did not run concurrently";
    EXPECT_EQ(r.released[0], 1300 + us_to_ticks(1.0));
    EXPECT_EQ(r.released[3], 1300 + us_to_ticks(1.0));
    EXPECT_EQ(r.snet.episodes(r.ctx), 1u);
}
