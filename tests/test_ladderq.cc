/**
 * @file
 * Property tests of the ladder event queue and the allocation
 * machinery behind the hot path (event pool, payload pool,
 * truncation-aware tick history).
 *
 * The central property is the ordering contract: LadderQueue must
 * pop nodes in exactly ascending (when, seq) — bit-for-bit the order
 * of the binary heap it replaced — under random schedules, same-tick
 * bursts, far-future outliers and interleaved push/pop. Everything
 * that makes the ladder fast (buckets, rebasing, adaptive width) is
 * invisible as long as these tests pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "hw/bufpool.hh"
#include "sim/eventq.hh"
#include "sim/ladderq.hh"

using namespace ap;
using namespace ap::sim;

namespace
{

/** Drain @p q completely, returning the (when, seq) pop order. */
std::vector<std::pair<Tick, std::uint64_t>>
drain(LadderQueue &q)
{
    std::vector<std::pair<Tick, std::uint64_t>> out;
    while (!q.empty()) {
        EventNode *n = q.pop();
        out.emplace_back(n->when, n->seq);
        q.release(n);
    }
    return out;
}

} // namespace

TEST(LadderQueue, RandomSchedulesMatchReferenceOrder)
{
    // Random (when, seq) schedules must drain in exactly the order a
    // reference sort by (when, seq) produces — the determinism
    // contract both kernels inherit.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Random rng(seed);
        LadderQueue q;
        std::vector<std::pair<Tick, std::uint64_t>> ref;
        std::uint64_t seq = 0;
        for (int i = 0; i < 5000; ++i) {
            // Mixed distances: mostly near-now, some mid, a thin
            // far tail — the machine's real tick distribution.
            Tick when;
            std::uint64_t pick = rng.below(100);
            if (pick < 70)
                when = rng.below(1 << 10);
            else if (pick < 95)
                when = rng.below(1 << 20);
            else
                when = rng.below(std::uint64_t{1} << 40);
            ref.emplace_back(when, seq);
            q.push(when, seq++, 0, []() {});
        }
        std::stable_sort(ref.begin(), ref.end());
        EXPECT_EQ(q.size(), ref.size());
        EXPECT_EQ(drain(q), ref) << "seed " << seed;
    }
}

TEST(LadderQueue, SameTickBatchPopsInSeqOrder)
{
    LadderQueue q;
    for (std::uint64_t s = 0; s < 4096; ++s)
        q.push(77, s, 0, []() {});
    auto order = drain(q);
    ASSERT_EQ(order.size(), 4096u);
    for (std::uint64_t s = 0; s < order.size(); ++s) {
        EXPECT_EQ(order[s].first, 77u);
        EXPECT_EQ(order[s].second, s);
    }
}

TEST(LadderQueue, FarFutureEventsLandInOverflowAndStillOrder)
{
    // Watchdog-style outliers land in the overflow rung; rebasing
    // must carve them back into the ring in order, interleaved with
    // nearer events pushed later.
    LadderQueue q;
    std::uint64_t seq = 0;
    std::vector<std::pair<Tick, std::uint64_t>> ref;
    for (int i = 0; i < 16; ++i) {
        Tick far = std::uint64_t{1} << (30 + i % 8);
        ref.emplace_back(far, seq);
        q.push(far, seq++, 0, []() {});
    }
    for (Tick t = 0; t < 64; ++t) {
        ref.emplace_back(t, seq);
        q.push(t, seq++, 0, []() {});
    }
    std::stable_sort(ref.begin(), ref.end());
    EXPECT_EQ(drain(q), ref);
}

TEST(LadderQueue, InterleavedPushPopKeepsGlobalOrder)
{
    // Pops interleaved with pushes of later events — the pattern a
    // running simulation produces — must never emit a tick smaller
    // than one already popped.
    Random rng(99);
    LadderQueue q;
    std::uint64_t seq = 0;
    Tick clock = 0;
    for (int i = 0; i < 200; ++i)
        q.push(rng.below(1000), seq++, 0, []() {});
    int popped = 0;
    while (!q.empty()) {
        EventNode *n = q.pop();
        EXPECT_GE(n->when, clock);
        clock = n->when;
        q.release(n);
        if (++popped % 3 == 0) {
            // Handlers schedule strictly at-or-after the clock.
            q.push(clock + rng.below(2000), seq++, 0, []() {});
            if (popped < 600)
                q.push(clock, seq++, 0, []() {});
        }
    }
    EXPECT_GT(popped, 200);
}

TEST(LadderQueue, PeekMatchesNextPopAndMinWhen)
{
    LadderQueue q;
    q.push(30, 0, 0, []() {});
    q.push(10, 1, 0, []() {});
    q.push(20, 2, 0, []() {});
    EXPECT_EQ(q.min_when(), 10u);
    const EventNode *p = q.peek();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->when, 10u);
    EventNode *n = q.pop();
    EXPECT_EQ(n->when, 10u);
    q.release(n);
    EXPECT_EQ(q.min_when(), 20u);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.min_when(), max_tick);
    EXPECT_EQ(q.peek(), nullptr);
}

TEST(LadderQueue, CancelledNodesNeverPopOrShowInMinWhen)
{
    // Cancel a random third of a mixed-distance schedule, spread over
    // the front heap, the ring and the overflow: every pop, size()
    // and min_when() must read as if those nodes were never pushed.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Random rng(seed);
        LadderQueue q;
        std::vector<std::pair<Tick, std::uint64_t>> ref;
        std::vector<EventNode *> nodes;
        for (std::uint64_t seq = 0; seq < 3000; ++seq) {
            Tick when = rng.below(100) < 80 ? rng.below(1 << 12)
                                            : rng.below(1 << 30);
            nodes.push_back(q.push(when, seq, 0, []() {}));
            ref.emplace_back(when, seq);
        }
        q.release(q.pop()); // the front heap is now materialized
        std::sort(ref.begin(), ref.end());
        ref.erase(ref.begin());
        std::vector<std::pair<Tick, std::uint64_t>> live;
        for (const auto &[when, seq] : ref) {
            if (rng.below(3) == 0)
                q.cancel(nodes[seq]);
            else
                live.emplace_back(when, seq);
        }
        ASSERT_EQ(q.size(), live.size());
        for (const auto &[when, seq] : live) {
            ASSERT_EQ(q.min_when(), when) << "seed " << seed;
            EventNode *n = q.pop();
            ASSERT_EQ(n->seq, seq) << "seed " << seed;
            q.release(n);
        }
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.min_when(), max_tick);
        EXPECT_EQ(q.pop(), nullptr);
    }
}

TEST(LadderQueue, PushesAfterEverythingIsCancelledStillOrder)
{
    // A queue whose nodes are all tombstones is empty but not bare:
    // new pushes, a same-tick burst ahead of the tombstones first,
    // must order among those still in the front heap, the ring and
    // the overflow.
    Random rng(7);
    LadderQueue q;
    std::uint64_t seq = 0;
    std::vector<EventNode *> doomed;
    for (int i = 0; i < 2000; ++i)
        doomed.push_back(
            q.push(1000 + rng.below(1 << 14), seq++, 0, []() {}));
    q.min_when(); // materialize a front heap
    for (EventNode *n : doomed)
        q.cancel(n);
    ASSERT_TRUE(q.empty());
    std::vector<std::pair<Tick, std::uint64_t>> ref;
    auto push = [&](Tick when) {
        ref.emplace_back(when, seq);
        q.push(when, seq++, 0, []() {});
    };
    for (int i = 0; i < 8; ++i)
        push(500);
    for (int i = 0; i < 500; ++i)
        push(rng.below(1 << 15));
    std::sort(ref.begin(), ref.end());
    EXPECT_EQ(drain(q), ref);
}

TEST(LadderQueue, PoolGrowsOnceThenRecyclesForever)
{
    LadderQueue q;
    std::uint64_t seq = 0;
    // First wave: deeper than one pool block, so the pool must grow.
    for (int i = 0; i < 1000; ++i)
        q.push(static_cast<Tick>(i), seq++, 0, []() {});
    drain(q);
    EventPoolStats st1 = q.pool_stats();
    EXPECT_GE(st1.blocks, 1000 / EventPool::block_nodes);
    EXPECT_EQ(st1.misses, 1000u);

    // Steady state: the same depth again must be served entirely
    // from the freelist — zero new blocks, zero misses.
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 1000; ++i)
            q.push(static_cast<Tick>(i), seq++, 0, []() {});
        drain(q);
    }
    EventPoolStats st2 = q.pool_stats();
    EXPECT_EQ(st2.misses, st1.misses);
    EXPECT_EQ(st2.blocks, st1.blocks);
    EXPECT_EQ(st2.hits, st1.hits + 5u * 1000u);
}

TEST(LadderQueue, SimulatorSteadyStateAllocatesNothing)
{
    // The kernel-level zero-allocation contract: after a warmup
    // round, scheduling and draining identical work must not carve
    // new nodes or spill closures to the heap.
    Simulator sim;
    auto wave = [&]() {
        for (int i = 0; i < 500; ++i)
            sim.schedule_after(static_cast<Tick>(i % 7), []() {});
        sim.run();
    };
    wave();
    SimAllocStats warm = sim.alloc_stats();
    wave();
    wave();
    SimAllocStats steady = sim.alloc_stats();
    EXPECT_EQ(steady.poolMisses, warm.poolMisses);
    EXPECT_EQ(steady.poolBlocks, warm.poolBlocks);
    EXPECT_EQ(steady.fnHeap, warm.fnHeap);
    EXPECT_GT(steady.poolHits, warm.poolHits);
}

TEST(LadderQueue, ScheduleDuringRunUntilLandsInOrder)
{
    // Events scheduled by handlers inside a bounded run_until() — at
    // the limit, past it, and at the current tick — execute in the
    // same global order a full run() would produce.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(10, [&]() {
        order.push_back(1);
        sim.schedule(15, [&]() { order.push_back(3); });
        sim.schedule(40, [&]() { order.push_back(5); });
        sim.schedule_after(0, [&]() { order.push_back(2); });
    });
    sim.schedule(20, [&]() { order.push_back(4); });
    sim.run_until(20);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(sim.pending(), 1u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(LadderQueueDeath, PushingMaxTickPanics)
{
    // max_tick is the "empty" sentinel; scheduling there would make
    // the queue lie about being drained.
    LadderQueue q;
    EXPECT_DEATH(q.push(max_tick, 0, 0, []() {}), "tick horizon");
}

TEST(TickHistory, TruncationIsSurfacedNotSilent)
{
    Simulator sim;
    TickHistory hist;
    hist.set_keep_log(4);
    sim.set_history(&hist);
    for (int i = 0; i < 10; ++i)
        sim.schedule(static_cast<Tick>(i), []() {});
    sim.run();
    EXPECT_TRUE(hist.truncated());
    EXPECT_EQ(hist.log().size(), 4u);
    EXPECT_EQ(hist.events(), 10u);
    EXPECT_NE(hist.digest().find("truncated"), std::string::npos);

    TickHistory full;
    full.set_keep_log(64);
    Simulator sim2;
    sim2.set_history(&full);
    for (int i = 0; i < 10; ++i)
        sim2.schedule(static_cast<Tick>(i), []() {});
    sim2.run();
    EXPECT_FALSE(full.truncated());
    EXPECT_EQ(full.digest().find("truncated"), std::string::npos);
}

TEST(BufferPool, RecyclesCapacityAndCountsTraffic)
{
    hw::BufferPool pool;
    std::vector<std::uint8_t> buf = pool.acquire();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(pool.stats().misses, 1u);

    buf.resize(4096);
    const std::uint8_t *raw = buf.data();
    pool.release(std::move(buf));
    EXPECT_EQ(pool.stats().releases, 1u);

    std::vector<std::uint8_t> again = pool.acquire();
    EXPECT_TRUE(again.empty());
    EXPECT_GE(again.capacity(), 4096u);
    EXPECT_EQ(again.data(), raw); // the same allocation came back
    EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPool, DiscardsOversizedAndOverflowBuffers)
{
    hw::BufferPool pool;
    // Capacity-zero releases are ignored entirely.
    pool.release({});
    EXPECT_EQ(pool.stats().releases, 0u);

    // A buffer past the retained-capacity cap is freed, not parked.
    std::vector<std::uint8_t> huge(hw::BufferPool::max_retained_capacity +
                                   1);
    pool.release(std::move(huge));
    EXPECT_EQ(pool.stats().discards, 1u);

    // Beyond max_retained parked buffers, further releases discard.
    for (std::size_t i = 0; i < hw::BufferPool::max_retained + 8; ++i) {
        std::vector<std::uint8_t> b(64);
        pool.release(std::move(b));
    }
    EXPECT_EQ(pool.stats().discards, 1u + 8u);
}
