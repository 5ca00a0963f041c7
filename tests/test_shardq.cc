/**
 * @file
 * Unit tests of the sharded parallel event kernel (sim/shardq.hh):
 * lookahead/horizon math, cross-shard handoffs, the one same-tick
 * order (tick, source timeline, source sequence) at every shard
 * count, safe-horizon execution, equality with the sequential
 * kernel, the lookahead contract, current_affinity() on workers, the
 * per-timeline tick digest, and the kill path under worker threads
 * (SpmdResult::failedCells).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/program.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "sim/eventq.hh"
#include "sim/shardq.hh"

using namespace ap;
using namespace ap::sim;

namespace
{

constexpr Tick kLookahead = 100;

/** xorshift64 — a deterministic per-test value stream. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * A PHOLD-style workload over @p cells logical timelines: every cell
 * starts one event chain; each firing updates the cell's private
 * state and reschedules onto a pseudo-random cell with a delay of at
 * least the lookahead (self-sends may be shorter). Order-sensitive
 * per-cell digests make any mis-ordering visible.
 */
struct Workload
{
    explicit Workload(int cells)
        : state(static_cast<std::size_t>(cells)),
          fired(static_cast<std::size_t>(cells))
    {
    }

    void
    start(Simulator &sim, int cells, int hops)
    {
        for (int c = 0; c < cells; ++c)
            sim.schedule_for(
                c, static_cast<Tick>(c % 7),
                [this, &sim, c, cells, hops] {
                    step(sim, c, cells, hops);
                });
    }

    void
    step(Simulator &sim, int c, int cells, int hops)
    {
        auto idx = static_cast<std::size_t>(c);
        state[idx] =
            mix(state[idx] + sim.now() * 31 +
                static_cast<std::uint64_t>(c) + 1);
        if (++fired[idx] >= hops)
            return;
        std::uint64_t r = state[idx];
        int next = static_cast<int>(
            r % static_cast<std::uint64_t>(cells));
        Tick delay = next == c
                         ? 1 + (r >> 8) % 40
                         : kLookahead + (r >> 8) % 200;
        sim.schedule_after_for(next, delay, [this, &sim, next,
                                             cells, hops] {
            step(sim, next, cells, hops);
        });
    }

    std::uint64_t
    digest() const
    {
        std::uint64_t d = 0xcbf29ce484222325ull;
        for (std::uint64_t s : state)
            d = mix(d ^ s);
        return d;
    }

    std::vector<std::uint64_t> state;
    std::vector<int> fired;
};

} // namespace

TEST(ShardQ, SingleShardMatchesSequentialBitForBit)
{
    const int cells = 8, hops = 50;

    Simulator seq;
    TickHistory seqHist;
    seq.set_history(&seqHist);
    Workload wseq(cells);
    wseq.start(seq, cells, hops);
    Tick seqEnd = seq.run();

    ShardConfig cfg;
    cfg.shards = 1;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);
    TickHistory shHist;
    sh.set_history(&shHist);
    Workload wsh(cells);
    wsh.start(sh, cells, hops);
    Tick shEnd = sh.run();

    EXPECT_EQ(seqEnd, shEnd);
    EXPECT_EQ(seq.executed(), sh.executed());
    EXPECT_EQ(seqHist.digest(), shHist.digest());
    EXPECT_EQ(wseq.digest(), wsh.digest());
}

TEST(ShardQ, ParallelMatchesSequentialAcrossShardCounts)
{
    const int cells = 12, hops = 40;

    Simulator seq;
    TickHistory seqHist;
    seq.set_history(&seqHist);
    Workload wseq(cells);
    wseq.start(seq, cells, hops);
    seq.run();

    for (int shards : {2, 3, 4, 8}) {
        ShardConfig cfg;
        cfg.shards = shards;
        cfg.lookahead = kLookahead;
        ShardedSimulator sh(cfg);
        TickHistory hist;
        sh.set_history(&hist);
        Workload w(cells);
        w.start(sh, cells, hops);
        sh.run();

        EXPECT_EQ(seqHist.digest(), hist.digest())
            << "shards=" << shards;
        EXPECT_EQ(wseq.digest(), w.digest()) << "shards=" << shards;
        EXPECT_EQ(seq.executed(), sh.executed());
        EXPECT_GT(sh.windows(), 0u);
    }
}

TEST(ShardQ, SafeHorizonIsMinPendingPlusLookahead)
{
    ShardConfig cfg;
    cfg.shards = 4;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);

    EXPECT_EQ(sh.safe_horizon(0), max_tick); // idle: no bound
    sh.schedule_for(0, 500, [] {});
    sh.schedule_for(1, 300, [] {});
    sh.schedule_for(2, 900, [] {});
    EXPECT_EQ(sh.shard_next(0), 500u);
    EXPECT_EQ(sh.shard_next(1), 300u);
    EXPECT_EQ(sh.shard_next(3), max_tick);
    for (int s = 0; s < 4; ++s)
        EXPECT_EQ(sh.safe_horizon(s), 300u + kLookahead);
}

TEST(ShardQ, HorizonSaturatesAtMaxTick)
{
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = max_tick;
    ShardedSimulator sh(cfg);
    sh.schedule_for(0, 10, [] {});
    EXPECT_EQ(sh.safe_horizon(0), max_tick);
}

TEST(ShardQ, DefaultAffinityMapIsModuloWithNegativesOnShardZero)
{
    ShardConfig cfg;
    cfg.shards = 3;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);
    EXPECT_EQ(sh.shard_of(0), 0);
    EXPECT_EQ(sh.shard_of(4), 1);
    EXPECT_EQ(sh.shard_of(5), 2);
    EXPECT_EQ(sh.shard_of(-1), 0);
}

TEST(ShardQ, CustomAffinityMapRoutesContiguousBlocks)
{
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = kLookahead;
    cfg.affinityMap = [](int a) { return a < 8 ? 0 : 1; };
    ShardedSimulator sh(cfg);
    EXPECT_EQ(sh.shard_of(7), 0);
    EXPECT_EQ(sh.shard_of(8), 1);

    // Same-tick events on different shards drain concurrently.
    std::atomic<int> ran{0};
    sh.schedule_for(9, 5, [&] { ++ran; });
    sh.schedule_for(3, 5, [&] { ++ran; });
    sh.run();
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(sh.shard_stats(0).executed, 1u);
    EXPECT_EQ(sh.shard_stats(1).executed, 1u);
}

TEST(ShardQ, CrossShardHandoffCountsBothSides)
{
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);

    sh.schedule_for(0, 0, [&] {
        // Executes on shard 0; schedules onto shard 1.
        sh.schedule_after_for(1, kLookahead, [] {});
    });
    sh.run();
    EXPECT_EQ(sh.shard_stats(0).handoffsOut, 1u);
    EXPECT_EQ(sh.shard_stats(1).handoffsIn, 1u);
    EXPECT_EQ(sh.executed(), 2u);
}

TEST(ShardQ, SameTickEventsRunInSourceSequenceOrderAtAnyShardCount)
{
    // Four sources schedule same-tick events for one cell: the
    // outside source (setup), the cell itself, and cells 2 and 5 —
    // which sit on other shards at 2 and 4 shards. Cell 5 schedules
    // first in model time, yet the order is (source, sequence):
    // outside, cell 0, cell 2, cell 5, each in issue order, on the
    // sequential kernel and at every shard count.
    const Tick target = 1000;
    auto run = [&](Simulator &sim) {
        std::vector<int> order; // appended on cell 0's shard only
        auto at = [&](int tag) {
            return [&order, tag] { order.push_back(tag); };
        };
        sim.schedule_for(5, 1, [&] {
            sim.schedule_for(0, target, at(50));
            sim.schedule_for(0, target, at(51));
        });
        sim.schedule_for(2, 2, [&] {
            sim.schedule_for(0, target, at(20));
            sim.schedule_for(0, target, at(21));
        });
        sim.schedule_for(0, 3, [&] { sim.schedule(target, at(0)); });
        sim.schedule_for(0, target, at(-1));
        sim.run();
        return order;
    };
    const std::vector<int> expect{-1, 0, 20, 21, 50, 51};

    Simulator seq;
    EXPECT_EQ(run(seq), expect);
    for (int shards : {1, 2, 4}) {
        ShardConfig cfg;
        cfg.shards = shards;
        cfg.lookahead = kLookahead;
        ShardedSimulator sh(cfg);
        EXPECT_EQ(run(sh), expect) << shards << " shards";
    }
}

TEST(ShardQ, CurrentAffinityIsTheExecutingTimelineOnWorkers)
{
    // Keyed kernel jitter reads the executing timeline: on a worker
    // thread it must be the event's affinity, not the base kernel's
    // idle value.
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = kLookahead;
    cfg.affinityMap = [](int a) { return a >= 4 ? 1 : 0; };
    ShardedSimulator sh(cfg);
    std::atomic<int> seen{-99};
    sh.schedule_for(5, 10, [&] { seen = sh.current_affinity(); });
    sh.schedule_for(0, 10, [] {});
    sh.run();
    EXPECT_EQ(seen.load(), 5);
    EXPECT_EQ(sh.current_affinity(), 0); // at rest
}

TEST(ShardQ, ParallelRunIsReproducibleRunToRun)
{
    const int cells = 16, hops = 60;
    std::uint64_t digests[2];
    std::uint64_t hists[2];
    for (int rep = 0; rep < 2; ++rep) {
        ShardConfig cfg;
        cfg.shards = 4;
        cfg.lookahead = kLookahead;
        ShardedSimulator sh(cfg);
        TickHistory hist;
        sh.set_history(&hist);
        Workload w(cells);
        w.start(sh, cells, hops);
        sh.run();
        digests[rep] = w.digest();
        hists[rep] = hist.hash();
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(hists[0], hists[1]);
}

TEST(ShardQ, ParallelMatchesSequentialEndState)
{
    // The workload's cross-cell effects all respect the lookahead,
    // and per-cell state only depends on that cell's event order —
    // so the parallel end state must equal the sequential one even
    // though cross-shard interleaving differs.
    const int cells = 16, hops = 60;

    Simulator seq;
    Workload wseq(cells);
    wseq.start(seq, cells, hops);
    seq.run();

    ShardConfig cfg;
    cfg.shards = 4;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);
    Workload w(cells);
    w.start(sh, cells, hops);
    sh.run();

    EXPECT_EQ(wseq.digest(), w.digest());
    EXPECT_EQ(seq.executed(), sh.executed());
    EXPECT_GE(sh.windows(), 1u);
}

TEST(ShardQ, NoEventFiresBeforeItsShardsSafeHorizon)
{
    // Every cross-shard event must execute exactly at its scheduled
    // tick, at least one lookahead after the tick that created it,
    // and per-shard execution must be time-monotonic.
    ShardConfig cfg;
    cfg.shards = 4;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);

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

TEST(ShardQDeath, StrictLookaheadViolationPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = kLookahead;
    ASSERT_DEATH(
        {
            ShardedSimulator sh(cfg);
            sh.schedule_for(0, 10, [&] {
                // Cross-shard with a delay below the lookahead.
                sh.schedule_after_for(1, kLookahead / 2, [] {});
            });
            sh.run();
        },
        "lookahead violation");
}

TEST(ShardQDeath, SchedulingInThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = kLookahead;
    ASSERT_DEATH(
        {
            ShardedSimulator sh(cfg);
            sh.schedule_for(0, 50, [&] {
                sh.schedule_for(1, 10, [] {});
            });
            sh.run();
        },
        "past");
}

TEST(ShardQ, RunUntilStopsAtLimitAndResumes)
{
    ShardConfig cfg;
    cfg.shards = 4;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);

    int fired = 0;
    for (int i = 0; i < 4; ++i)
        sh.schedule_for(i, static_cast<Tick>(100 * (i + 1)),
                        [&] { ++fired; });
    sh.run_until(250);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sh.pending(), 2u);
    EXPECT_FALSE(sh.empty());
    sh.run();
    EXPECT_EQ(fired, 4);
    EXPECT_TRUE(sh.empty());
    EXPECT_EQ(sh.pending(), 0u);
    EXPECT_EQ(sh.executed(), 4u);
}

TEST(ShardQDeath, StepNeedsTheSequentialKernel)
{
    // Executing single events one by one is a serial mode; the
    // sharded kernel only runs whole windows.
    ShardConfig cfg;
    cfg.shards = 3;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);
    sh.schedule_for(1, 10, [] {});
    EXPECT_DEATH(sh.step(), "sequential kernel");
}

TEST(ShardQ, ReportNamesShardsAndWindows)
{
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);
    sh.schedule_for(0, 1, [] {});
    sh.schedule_for(1, 2, [] {});
    sh.run();
    std::string r = sh.report();
    EXPECT_NE(r.find("2 shards"), std::string::npos);
    EXPECT_NE(r.find("shard 0"), std::string::npos);
    EXPECT_NE(r.find("shard 1"), std::string::npos);
    EXPECT_NE(r.find("windows"), std::string::npos);
}

TEST(ShardQ, ParallelRunRecordsWindowTelemetry)
{
    const int cells = 16, hops = 40;
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);
    Workload w(cells);
    w.start(sh, cells, hops);
    sh.run();

    const WindowAgg &agg = sh.window_stats();
    EXPECT_EQ(agg.windows, sh.windows());
    EXPECT_GT(agg.windows, 0u);
    EXPECT_EQ(agg.events, sh.executed());
    EXPECT_GT(agg.horizonAdvance, 0u);
    // Imbalance is max/mean x1000, so >= 1000 whenever any window
    // executed events.
    EXPECT_GE(agg.imbalanceMaxX1000, 1000u);
    EXPECT_GE(agg.imbalanceSumX1000, 1000u);

    std::vector<WindowRecord> recs = sh.window_records();
    ASSERT_FALSE(recs.empty());
    EXPECT_EQ(recs.size() + sh.window_records_dropped(),
              agg.windows);
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i > 0) {
            EXPECT_EQ(recs[i].index, recs[i - 1].index + 1);
            EXPECT_GE(recs[i].start, recs[i - 1].start);
        }
        EXPECT_GE(recs[i].end, recs[i].start);
        ASSERT_EQ(recs[i].shards.size(), 2u);
        std::uint64_t inWindow = 0, maxShard = 0;
        for (const WindowShard &ws : recs[i].shards) {
            inWindow += ws.events;
            maxShard = std::max(maxShard, ws.events);
        }
        EXPECT_EQ(inWindow, recs[i].events);
        EXPECT_EQ(maxShard, recs[i].maxShardEvents);
        events += recs[i].events;
    }
    if (sh.window_records_dropped() == 0) {
        EXPECT_EQ(events, sh.executed());
    }

    // Both shards ran events and the registry-facing per-shard
    // counters saw them.
    for (int s = 0; s < 2; ++s)
        EXPECT_GT(sh.shard_stats(s).executed, 0u);
}

TEST(ShardQ, WindowHookSeesEveryWindowInOrder)
{
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.lookahead = kLookahead;
    ShardedSimulator sh(cfg);
    std::vector<std::uint64_t> indices;
    sh.set_window_hook([&](const WindowRecord &rec) {
        indices.push_back(rec.index);
    });
    Workload w(8);
    w.start(sh, 8, 20);
    sh.run();

    ASSERT_EQ(indices.size(), sh.windows());
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(indices[i], i);
}

TEST(ShardQ, SingleShardHasNoWindowTelemetry)
{
    // shards == 1 takes the sequential fast path: the windowed
    // machinery (and its bookkeeping) must not run at all.
    ShardConfig cfg;
    cfg.shards = 1;
    ShardedSimulator sh(cfg);
    Workload w(8);
    w.start(sh, 8, 20);
    sh.run();

    EXPECT_GT(sh.executed(), 0u);
    EXPECT_EQ(sh.window_stats().windows, 0u);
    EXPECT_TRUE(sh.window_records().empty());
    EXPECT_EQ(sh.window_records_dropped(), 0u);
    EXPECT_EQ(sh.shard_stats(0).barrierWaitNs, 0u);
}

namespace
{

/**
 * Kill cell 3 at t=100us on a machine driven by the sharded kernel
 * and assert the full failure contract: survivors cross the barrier
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

TEST(ShardQKill, FailedCellsSurvivesTwoWorkerThreads)
{
    run_threaded_kill(2);
}

TEST(ShardQKill, FailedCellsSurvivesFourWorkerThreads)
{
    run_threaded_kill(4);
}

TEST(TickHistoryUnit, DigestFollowsEachTimelinesOwnOrder)
{
    auto digest = [](std::initializer_list<std::pair<Tick, int>> evs) {
        TickHistory h;
        for (auto [t, a] : evs)
            h.record(t, a);
        return h;
    };
    TickHistory base = digest({{10, 1}, {20, 1}, {10, 2}, {30, 2}});
    EXPECT_EQ(base.events(), 4u);

    // How two timelines interleave does not matter...
    TickHistory interleaved =
        digest({{10, 2}, {10, 1}, {30, 2}, {20, 1}});
    EXPECT_TRUE(base == interleaved);
    EXPECT_EQ(base.digest(), interleaved.digest());

    // ...but one timeline's own sequence does: a retimed, dropped,
    // duplicated or reordered event changes the digest.
    for (const TickHistory &changed :
         {digest({{10, 1}, {21, 1}, {10, 2}, {30, 2}}),
          digest({{10, 1}, {10, 2}, {30, 2}}),
          digest({{10, 1}, {20, 1}, {20, 1}, {10, 2}, {30, 2}}),
          digest({{20, 1}, {10, 1}, {10, 2}, {30, 2}}),
          digest({{10, 1}, {20, 2}, {10, 2}, {30, 2}})}) {
        EXPECT_NE(base.hash(), changed.hash());
        EXPECT_FALSE(base == changed);
    }

    TickHistory c = base;
    c.reset();
    EXPECT_EQ(c.events(), 0u);
    EXPECT_EQ(c.hash(), TickHistory{}.hash());
}
