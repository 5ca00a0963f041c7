/**
 * @file
 * Unit tests of the discrete-event kernel (sim/eventq.hh) for the
 * behaviour that holds at any shard count: each runs at one shard and
 * at four. Also the per-timeline tick digest and tick conversion.
 * What only a parallel run has is in test_shardq.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "phold_workload.hh"
#include "sim/eventq.hh"

using namespace ap;
using namespace ap::sim;
using test::kLookahead;
using test::Workload;

namespace
{

constexpr int kTimelines = 16;

/** The kernel over kTimelines timelines at the parameter's shard
 *  count. */
class EventKernel : public ::testing::TestWithParam<int>
{
  protected:
    Simulator sim{GetParam(), kTimelines, kLookahead};
};

std::string
shard_name(const ::testing::TestParamInfo<int> &info)
{
    return std::to_string(info.param) +
           (info.param == 1 ? "shard" : "shards");
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Shards, EventKernel, ::testing::Values(1, 4),
                         shard_name);

TEST_P(EventKernel, StartsAtTickZeroAndEmpty)
{
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_TRUE(sim.empty());
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.run(), 0u);
    EXPECT_EQ(sim.executed(), 0u);
    EXPECT_FALSE(sim.executing());
}

TEST_P(EventKernel, ExecutesInTimeOrder)
{
    std::vector<int> order;
    sim.schedule(30, [&]() { order.push_back(3); });
    sim.schedule(10, [&]() { order.push_back(1); });
    sim.schedule(20, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST_P(EventKernel, SameTickFifo)
{
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        sim.schedule(5, [&, i]() { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_P(EventKernel, HandlersMayScheduleMoreEvents)
{
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 5)
            sim.schedule(sim.now() + 10, chain);
    };
    sim.schedule(0, chain);
    sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), 40u);
}

TEST_P(EventKernel, RunUntilStopsAtLimitAndResumes)
{
    std::atomic<int> fired{0};
    for (int i = 0; i < 4; ++i)
        sim.schedule_for(4 * i, static_cast<Tick>(100 * (i + 1)),
                         [&] { ++fired; });
    EXPECT_EQ(sim.run_until(250), 200u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.pending(), 2u);
    EXPECT_FALSE(sim.empty());
    sim.run();
    EXPECT_EQ(fired, 4);
    EXPECT_TRUE(sim.empty());
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.executed(), 4u);
}

TEST_P(EventKernel, ZeroDelayEventRunsAtCurrentTick)
{
    Tick seen = max_tick;
    sim.schedule(15, [&]() {
        sim.schedule_after(0, [&]() { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, 15u);
}

TEST_P(EventKernel, ExecutedCounterCounts)
{
    for (int i = 0; i < 7; ++i)
        sim.schedule_for(i, static_cast<Tick>(i), []() {});
    sim.run();
    EXPECT_EQ(sim.executed(), 7u);
}

// -- cancellable timers -------------------------------------------------

namespace
{

/** One timeline per shard at four shards. */
constexpr int kTimerLines[] = {1, 6, 10, 15};

/** What a timer run leaves behind. */
struct TimerRun
{
    std::uint64_t executed = 0;
    std::uint64_t digest = 0;
    Tick end = 0;
    int fired = 0;
};

/**
 * Each of kTimerLines arms a timer at 500 that runs and one at 1000
 * that an event of its own timeline cancels at 20; one more is armed
 * at rest and cancelled there. Without @p armDoomed the doomed
 * timers are never armed at all.
 */
TimerRun
run_timers(int shards, bool armDoomed)
{
    Simulator k(shards, kTimelines, kLookahead);
    TickHistory hist;
    k.set_history(&hist);
    std::atomic<int> fired{0};
    std::vector<Timer> doomed(kTimelines);
    auto fire = [&fired] { ++fired; };
    for (int t : kTimerLines) {
        k.schedule_for(t, 10, [&, t] {
            k.arm(500, fire);
            if (armDoomed)
                doomed[static_cast<std::size_t>(t)] = k.arm(1000, fire);
        });
        k.schedule_for(t, 20, [&, t] {
            k.cancel(doomed[static_cast<std::size_t>(t)]);
        });
    }
    if (armDoomed) {
        Timer atRest = k.arm(2000, fire);
        k.cancel(atRest);
    }
    TimerRun r;
    r.end = k.run();
    r.executed = k.executed();
    r.digest = hist.hash();
    r.fired = fired;
    return r;
}

} // namespace

TEST_P(EventKernel, CancelledTimerNeverRunsNorCounts)
{
    TimerRun armed = run_timers(GetParam(), true);
    TimerRun plain = run_timers(GetParam(), false);
    EXPECT_EQ(armed.fired, 4);
    EXPECT_EQ(armed.executed, 12u);
    EXPECT_EQ(armed.end, 500u);
    EXPECT_EQ(armed.executed, plain.executed);
    EXPECT_EQ(armed.digest, plain.digest);
    EXPECT_EQ(armed.end, plain.end);
}

TEST_P(EventKernel, RunStopsAtTheLastLiveEvent)
{
    // A far timer on shard 0 cancelled at rest, one on the last
    // shard cancelled by its own timeline: neither may stretch the
    // clock or the parallel kernel's windows past tick 300.
    Tick lastWindow = 0;
    sim.set_window_hook([&](const WindowRecord &rec) {
        lastWindow = std::max(lastWindow, rec.start);
    });
    Timer far = sim.arm(1000000, [] { ADD_FAILURE(); });
    Timer late;
    sim.schedule_for(kTimelines - 1, 200, [&] {
        late = sim.arm(500000, [] { ADD_FAILURE(); });
    });
    sim.schedule_for(kTimelines - 1, 300, [&] { sim.cancel(late); });
    EXPECT_EQ(sim.pending(), 3u);
    sim.cancel(far);
    EXPECT_EQ(sim.pending(), 2u);
    EXPECT_EQ(sim.run(), 300u);
    EXPECT_EQ(sim.now(), 300u);
    EXPECT_TRUE(sim.empty());
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.executed(), 2u);
    EXPECT_LE(lastWindow, 300u);
}

TEST_P(EventKernel, CancellingATimerThatRanIsANoOp)
{
    // From inside its own handler, and afterwards through a copy of
    // the handle: by then the timer's node is recycled, and the
    // event now in it must still run.
    int fired = 0;
    Timer t, stale;
    sim.schedule_for(3, 10, [&] {
        t = sim.arm(50, [&] {
            ++fired;
            sim.cancel(t);
            ++fired;
        });
        stale = t;
    });
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.executed(), 2u);

    int later = 0;
    for (int i = 0; i < 8; ++i)
        sim.schedule_for(3, 100, [&] { ++later; });
    sim.cancel(stale);
    EXPECT_EQ(sim.pending(), 8u);
    sim.run();
    EXPECT_EQ(later, 8);
    EXPECT_EQ(sim.now(), 100u);
}

TEST_P(EventKernel, EventsThatSurviveCancelsKeepTheirSameTickOrder)
{
    // Twelve events at one tick, odd ones timers: 3 and 7 cancelled
    // ahead of the tick, 9 by event 0 at that tick.
    std::vector<int> order; // timeline 5 only: one shard
    std::vector<Timer> timers(12);
    sim.schedule_for(5, 1, [&] {
        for (int i = 0; i < 12; ++i) {
            auto note = [&order, &timers, this, i] {
                order.push_back(i);
                if (i == 0)
                    sim.cancel(timers[9]);
            };
            if (i % 2)
                timers[static_cast<std::size_t>(i)] = sim.arm(40, note);
            else
                sim.schedule(40, note);
        }
        sim.cancel(timers[3]);
        sim.cancel(timers[7]);
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 5, 6, 8, 10, 11}));
    EXPECT_EQ(sim.executed(), 10u);
}

TEST_P(EventKernel, JitterHookStretchesRelativeDelaysOnly)
{
    sim.set_delay_jitter([](Tick) { return Tick{7}; });
    Tick relative = 0;
    Tick absolute = 0;
    sim.schedule_after(10, [&]() { relative = sim.now(); });
    // Absolute-time scheduling manages its own serialization
    // timeline and must never be jittered.
    sim.schedule(10, [&]() { absolute = sim.now(); });
    sim.run();
    EXPECT_EQ(relative, 17u);
    EXPECT_EQ(absolute, 10u);
}

TEST_P(EventKernel, JitterHookSeesTheOriginalDelta)
{
    std::vector<Tick> seen;
    sim.set_delay_jitter([&](Tick dt) {
        seen.push_back(dt);
        return Tick{0};
    });
    sim.schedule_after(10, []() {});
    sim.schedule_after_for(3, 20, []() {});
    sim.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20}));
}

TEST_P(EventKernel, ClearingJitterHookRestoresExactDelays)
{
    sim.set_delay_jitter([](Tick) { return Tick{1000}; });
    sim.set_delay_jitter(nullptr);
    Tick fired = 0;
    sim.schedule_after(10, [&]() { fired = sim.now(); });
    sim.run();
    EXPECT_EQ(fired, 10u);
}

TEST_P(EventKernel, JitteredZeroDelayStillRespectsFifoWithinTick)
{
    // A jitter hook returning zero keeps schedule_after(0) at the
    // current tick, and the event still queues behind same-tick
    // events scheduled earlier.
    sim.set_delay_jitter([](Tick) { return Tick{0}; });
    std::vector<int> order;
    sim.schedule(5, [&]() {
        order.push_back(1);
        sim.schedule_after(0, [&]() { order.push_back(3); });
    });
    sim.schedule(5, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventKernel, LargeSameTickBatchDrainsInInsertionOrder)
{
    // Drain-order stability at scale: the heap tie-breaks same-tick
    // entries by sequence number, so even a batch far larger than any
    // real burst must come out exactly in insertion order.
    constexpr int n = 10000;
    std::vector<int> order;
    order.reserve(n);
    for (int i = 0; i < n; ++i)
        sim.schedule(42, [&, i]() { order.push_back(i); });
    sim.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "at " << i;
}

TEST_P(EventKernel, HandlerInsertionsQueueBehindExistingSameTickEvents)
{
    // Events a handler schedules at the *current* tick run after
    // everything already queued for that tick (seq order), never
    // before — the property same-tick delivery chains rely on.
    std::vector<int> order;
    sim.schedule(9, [&]() {
        order.push_back(0);
        sim.schedule(9, [&]() { order.push_back(2); });
    });
    sim.schedule(9, [&]() { order.push_back(1); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_P(EventKernel, SameTickEventsRunInSourceSequenceOrder)
{
    // Four sources schedule same-tick events for one cell: the
    // outside source (setup), the cell itself, and cells 5 and 10 —
    // which sit on other shards at four shards. Cell 10 schedules
    // first in model time, yet the order is (source, sequence):
    // outside, cell 0, cell 5, cell 10, each in issue order.
    const Tick target = 1000;
    std::vector<int> order; // appended on cell 0's shard only
    auto at = [&](int tag) {
        return [&order, tag] { order.push_back(tag); };
    };
    sim.schedule_for(10, 1, [&] {
        sim.schedule_for(0, target, at(100));
        sim.schedule_for(0, target, at(101));
    });
    sim.schedule_for(5, 2, [&] {
        sim.schedule_for(0, target, at(50));
        sim.schedule_for(0, target, at(51));
    });
    sim.schedule_for(0, 3, [&] { sim.schedule(target, at(0)); });
    sim.schedule_for(0, target, at(-1));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 50, 51, 100, 101}));
}

TEST_P(EventKernel, ScheduleForRecordsAffinityInHistory)
{
    TickHistory hist;
    hist.set_keep_log(16);
    sim.set_history(&hist);
    sim.schedule_for(4, 10, []() {});
    sim.schedule_for(-1, 20, []() {});
    sim.run();
    // Recording order is host-dependent across shards.
    std::vector<std::pair<Tick, int>> log = hist.log();
    std::sort(log.begin(), log.end());
    EXPECT_EQ(log, (std::vector<std::pair<Tick, int>>{{10, 4},
                                                      {20, -1}}));
}

TEST_P(EventKernel, ScheduleInheritsCurrentEventAffinity)
{
    // Follow-up work a handler schedules without annotation stays on
    // the handler's own timeline; history shows the inherited id.
    TickHistory hist;
    hist.set_keep_log(16);
    sim.set_history(&hist);
    int insideAffinity = -99;
    sim.schedule_for(7, 10, [&]() {
        insideAffinity = sim.current_affinity();
        sim.schedule(20, []() {});
        sim.schedule_after(15, []() {});
    });
    sim.run();
    EXPECT_EQ(insideAffinity, 7);
    EXPECT_EQ(sim.current_affinity(), 0); // at rest
    ASSERT_EQ(hist.log().size(), 3u);
    EXPECT_EQ(hist.log()[1], (std::pair<Tick, int>{20, 7}));
    EXPECT_EQ(hist.log()[2], (std::pair<Tick, int>{25, 7}));
}

TEST_P(EventKernel, RunIsReproducibleRunToRun)
{
    const int cells = kTimelines, hops = 60;
    std::uint64_t digests[2];
    std::uint64_t hists[2];
    for (int rep = 0; rep < 2; ++rep) {
        Simulator k(GetParam(), kTimelines, kLookahead);
        TickHistory hist;
        k.set_history(&hist);
        Workload w(cells);
        w.start(k, cells, hops);
        k.run();
        digests[rep] = w.digest();
        hists[rep] = hist.hash();
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(hists[0], hists[1]);
}

TEST_P(EventKernel, SchedulingInThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim.schedule(10, []() {});
    sim.run();
    EXPECT_DEATH(sim.schedule(5, []() {}), "past");
    // Inside an event, onto another timeline (another shard at four).
    EXPECT_DEATH(
        {
            Simulator k(GetParam(), kTimelines, kLookahead);
            k.schedule_for(0, 50, [&] {
                k.schedule_for(15, 10, [] {});
            });
            k.run();
        },
        "past");
}

TEST_P(EventKernel, SchedulingBehindRunUntilClockPanics)
{
    // run_until() leaves the clock at the last executed event; the
    // past-check must hold against that clock, not the limit.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim.schedule(40, []() {});
    sim.run_until(100);
    EXPECT_EQ(sim.now(), 40u);
    EXPECT_DEATH(sim.schedule(39, []() {}), "past");
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

TEST(TickConversion, MicrosecondRoundTrip)
{
    EXPECT_EQ(us_to_ticks(1.0), 1000u);
    EXPECT_EQ(us_to_ticks(0.16), 160u);
    EXPECT_EQ(us_to_ticks(0.0), 0u);
    EXPECT_DOUBLE_EQ(ticks_to_us(2500), 2.5);
}
