#include "sim/shardq.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/logging.hh"

namespace ap::sim
{

thread_local ShardedSimulator::TlsFrame ShardedSimulator::tls;

namespace
{

/** T + L without wrapping past the tick horizon. */
Tick
saturating_add(Tick t, Tick d)
{
    return t > max_tick - d ? max_tick : t + d;
}

/** Host wall-clock nanoseconds between two steady_clock points. */
std::uint64_t
elapsed_ns(std::chrono::steady_clock::time_point from,
           std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            to - from)
            .count());
}

} // namespace

ShardedSimulator::ShardedSimulator(ShardConfig config)
    : cfg(std::move(config)), numShards(cfg.shards)
{
    if (numShards < 1)
        fatal("sharded kernel needs at least 1 shard, got %d",
              numShards);
    if (cfg.lookahead < 1)
        fatal("sharded kernel needs lookahead >= 1 tick");
    if (!cfg.affinityMap) {
        int n = numShards;
        cfg.affinityMap = [n](int affinity) {
            return affinity <= 0 ? 0 : affinity % n;
        };
    }
    shardsVec.resize(static_cast<std::size_t>(numShards));
    for (Shard &s : shardsVec)
        s.outbox.resize(static_cast<std::size_t>(numShards));
    execAtWindowStart.resize(static_cast<std::size_t>(numShards));
}

ShardedSimulator::~ShardedSimulator()
{
    stop_workers();
}

int
ShardedSimulator::shard_of(int affinity) const
{
    int s = cfg.affinityMap(affinity);
    if (s < 0 || s >= numShards)
        panic("affinity map sent %d to shard %d of %d", affinity, s,
              numShards);
    return s;
}

Tick
ShardedSimulator::now() const
{
    if (tls.owner == this)
        return tls.now;
    return globalTime;
}

int
ShardedSimulator::current_affinity() const
{
    return tls.owner == this ? tls.affinity : 0;
}

std::uint64_t
ShardedSimulator::next_key()
{
    // A source's counter lives on the shard that executes the
    // source's timeline; the outside source's on shard 0, touched
    // only by the driving thread while no worker runs.
    if (tls.owner != this)
        return take_key(shardsVec[0].sourceSeq, outside_source);
    return take_key(
        shardsVec[static_cast<std::size_t>(tls.shard)].sourceSeq,
        source_of(tls.affinity));
}

void
ShardedSimulator::push(Shard &dst, int affinity, Tick when,
                       std::uint64_t key, EventFn fn)
{
    dst.queue.push(when, key, affinity, std::move(fn));
    dst.stats.maxPending = std::max<std::uint64_t>(dst.stats.maxPending,
                                                   dst.queue.size());
}

void
ShardedSimulator::schedule(Tick when, EventFn fn)
{
    int affinity = tls.owner == this ? tls.affinity : 0;
    schedule_keyed(affinity, when, next_key(), std::move(fn));
}

void
ShardedSimulator::schedule_for(int affinity, Tick when, EventFn fn)
{
    schedule_keyed(affinity, when, next_key(), std::move(fn));
}

void
ShardedSimulator::schedule_keyed(int affinity, Tick when,
                                 std::uint64_t key, EventFn fn)
{
    int target = shard_of(affinity);
    Shard &dst = shardsVec[static_cast<std::size_t>(target)];

    // Calls from outside any execution context (machine construction,
    // test setup, the space between run() calls) go straight into the
    // target queue; no worker is live, the queue mutex suffices.
    if (tls.owner != this) {
        if (when < globalTime)
            panic("scheduling event in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(globalTime));
        std::lock_guard<std::mutex> lock(qMutex);
        push(dst, affinity, when, key, std::move(fn));
        return;
    }

    if (when < tls.now)
        panic("scheduling event in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(tls.now));

    Shard &self = shardsVec[static_cast<std::size_t>(tls.shard)];
    if (target == tls.shard) {
        push(self, affinity, when, key, std::move(fn));
        return;
    }
    ++self.stats.handoffsOut;
    if (when < tls.windowEnd)
        panic("lookahead violation: cross-shard event at %llu "
              "inside window ending %llu (lookahead %llu, "
              "affinity %d -> shard %d)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(tls.windowEnd),
              static_cast<unsigned long long>(cfg.lookahead),
              affinity, target);
    self.outbox[static_cast<std::size_t>(target)].push_back(
        Handoff{when, affinity, key, std::move(fn)});
}

void
ShardedSimulator::merge_outboxes()
{
    // Keys are unique and total, so the order of these pushes cannot
    // change the order the target shard executes them in.
    for (Shard &src : shardsVec) {
        for (int t = 0; t < numShards; ++t) {
            auto &box = src.outbox[static_cast<std::size_t>(t)];
            Shard &dst = shardsVec[static_cast<std::size_t>(t)];
            for (Handoff &h : box) {
                push(dst, h.affinity, h.when, h.key, std::move(h.fn));
                ++dst.stats.handoffsIn;
            }
            box.clear();
        }
    }
}

void
ShardedSimulator::drain_shard(int s, Tick windowEnd)
{
    Shard &sh = shardsVec[static_cast<std::size_t>(s)];
    TlsFrame saved = tls;
    tls.owner = this;
    tls.shard = s;
    tls.windowEnd = windowEnd;
    while (!sh.queue.empty() && sh.queue.min_when() < windowEnd) {
        EventNode *n = sh.queue.pop();
        tls.now = n->when;
        tls.affinity = n->affinity;
        sh.lastExecuted = n->when;
        ++sh.stats.executed;
        if (history) {
            std::lock_guard<std::mutex> lock(historyMutex);
            history->record(n->when, n->affinity);
        }
        struct Recycle
        {
            LadderQueue &q;
            EventNode *n;
            ~Recycle() { q.release(n); }
        } recycle{sh.queue, n};
        n->fn();
    }
    tls = saved;
}

Tick
ShardedSimulator::next_pending_locked() const
{
    Tick t = max_tick;
    for (const Shard &s : shardsVec)
        t = std::min(t, s.queue.min_when());
    return t;
}

Tick
ShardedSimulator::shard_next(int s) const
{
    const Shard &sh = shardsVec[static_cast<std::size_t>(s)];
    return sh.queue.min_when();
}

Tick
ShardedSimulator::safe_horizon(int s) const
{
    (void)s; // every shard shares the global conservative horizon
    Tick t = next_pending_locked();
    return t == max_tick ? max_tick : saturating_add(t, cfg.lookahead);
}

const ShardStats &
ShardedSimulator::shard_stats(int s) const
{
    return shardsVec[static_cast<std::size_t>(s)].stats;
}

bool
ShardedSimulator::empty() const
{
    for (const Shard &s : shardsVec)
        if (!s.queue.empty())
            return false;
    return true;
}

std::size_t
ShardedSimulator::pending() const
{
    std::size_t n = 0;
    for (const Shard &s : shardsVec)
        n += s.queue.size();
    return n;
}

std::uint64_t
ShardedSimulator::executed() const
{
    return numExecutedTotal;
}

SimAllocStats
ShardedSimulator::alloc_stats() const
{
    SimAllocStats s;
    for (const Shard &sh : shardsVec) {
        const EventPoolStats &p = sh.queue.pool_stats();
        s.poolHits += p.hits;
        s.poolMisses += p.misses;
        s.poolBlocks += p.blocks;
    }
    s.fnHeap = eventfn_heap_allocs();
    return s;
}

bool
ShardedSimulator::step()
{
    panic("step() needs the sequential kernel; the sharded kernel "
          "runs whole windows");
}

Tick
ShardedSimulator::run_sequential(Tick limit)
{
    // One shard: the sequential loop, no windows, no barriers.
    Shard &sh = shardsVec[0];
    drain_shard(0, saturating_add(limit, 1));
    globalTime = std::max(globalTime, sh.lastExecuted);
    numExecutedTotal = sh.stats.executed;
    return globalTime;
}

Tick
ShardedSimulator::run_parallel(Tick limit)
{
    using clock = std::chrono::steady_clock;
    start_workers();
    for (;;) {
        Tick t = next_pending_locked();
        if (t == max_tick || t > limit)
            break;
        Tick windowEnd = saturating_add(t, cfg.lookahead);
        if (limit != max_tick)
            windowEnd = std::min(windowEnd,
                                 saturating_add(limit, 1));

        WindowRecord rec;
        rec.index = numWindows;
        rec.start = t;
        rec.end = windowEnd;
        rec.advance = haveWindowStart ? t - prevWindowStart : 0;
        prevWindowStart = t;
        haveWindowStart = true;
        ++numWindows;
        for (int s = 0; s < numShards; ++s)
            execAtWindowStart[static_cast<std::size_t>(s)] =
                shardsVec[static_cast<std::size_t>(s)]
                    .stats.executed;

        {
            std::lock_guard<std::mutex> lock(poolMutex);
            roundWindowEnd = windowEnd;
            roundDone = 0;
            ++roundGen;
        }
        poolCv.notify_all();

        drain_shard(0, windowEnd);

        {
            clock::time_point waitBegin = clock::now();
            std::unique_lock<std::mutex> lock(poolMutex);
            doneCv.wait(lock, [this] {
                return roundDone == numShards - 1;
            });
            rec.barrierWaitNs =
                elapsed_ns(waitBegin, clock::now());
            shardsVec[0].stats.barrierWaitNs += rec.barrierWaitNs;
        }

        clock::time_point mergeBegin = clock::now();
        merge_outboxes();
        rec.mergeNs = elapsed_ns(mergeBegin, clock::now());

        Tick maxDone = 0;
        std::uint64_t total = 0;
        rec.shards.resize(static_cast<std::size_t>(numShards));
        for (int s = 0; s < numShards; ++s) {
            const Shard &sh = shardsVec[static_cast<std::size_t>(s)];
            maxDone = std::max(maxDone, sh.lastExecuted);
            total += sh.stats.executed;
            std::uint64_t e =
                sh.stats.executed -
                execAtWindowStart[static_cast<std::size_t>(s)];
            WindowShard &ws =
                rec.shards[static_cast<std::size_t>(s)];
            ws.events = e;
            ws.last = e > 0 ? sh.lastExecuted : 0;
            rec.events += e;
            rec.maxShardEvents = std::max(rec.maxShardEvents, e);
        }
        if (maxDone > globalTime)
            globalTime = maxDone;
        numExecutedTotal = total;
        // max/mean events per shard, x1000: 1000 means every shard
        // did equal work, N*1000 means one shard did everything.
        if (rec.events > 0)
            rec.imbalanceX1000 =
                rec.maxShardEvents *
                static_cast<std::uint64_t>(numShards) * 1000 /
                rec.events;
        note_window(rec);
    }
    return globalTime;
}

void
ShardedSimulator::note_window(WindowRecord rec)
{
    windowAgg.windows = numWindows;
    windowAgg.events += rec.events;
    windowAgg.horizonAdvance += rec.advance;
    windowAgg.barrierWaitNs += rec.barrierWaitNs;
    windowAgg.mergeNs += rec.mergeNs;
    if (rec.imbalanceX1000 > 0) {
        windowAgg.imbalanceMaxX1000 = std::max(
            windowAgg.imbalanceMaxX1000, rec.imbalanceX1000);
        windowAgg.imbalanceSumX1000 += rec.imbalanceX1000;
    }
    if (windowHook)
        windowHook(rec);
    if (windowRing.size() < window_ring_capacity) {
        windowRing.push_back(std::move(rec));
    } else {
        windowRing[windowHead] = std::move(rec);
        windowHead = (windowHead + 1) % window_ring_capacity;
        ++windowDropped;
    }
}

std::vector<WindowRecord>
ShardedSimulator::window_records() const
{
    std::vector<WindowRecord> out;
    out.reserve(windowRing.size());
    for (std::size_t i = 0; i < windowRing.size(); ++i)
        out.push_back(windowRing[(windowHead + i) %
                                 windowRing.size()]);
    return out;
}

Tick
ShardedSimulator::run_loop(Tick limit)
{
    if (running)
        panic("re-entrant run()");
    running = true;
    Tick t;
    if (numShards == 1)
        t = run_sequential(limit);
    else
        t = run_parallel(limit);
    running = false;
    return t;
}

Tick
ShardedSimulator::run()
{
    return run_loop(max_tick);
}

Tick
ShardedSimulator::run_until(Tick limit)
{
    return run_loop(limit);
}

void
ShardedSimulator::start_workers()
{
    if (!workers.empty())
        return;
    workers.reserve(static_cast<std::size_t>(numShards - 1));
    for (int s = 1; s < numShards; ++s)
        workers.emplace_back([this, s] { worker_main(s); });
}

void
ShardedSimulator::stop_workers()
{
    if (workers.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        shuttingDown = true;
    }
    poolCv.notify_all();
    for (std::thread &w : workers)
        w.join();
    workers.clear();
    shuttingDown = false;
}

void
ShardedSimulator::worker_main(int s)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t seenGen = 0;
    bool idleSinceValid = false;
    clock::time_point idleSince;
    for (;;) {
        Tick windowEnd;
        {
            std::unique_lock<std::mutex> lock(poolMutex);
            poolCv.wait(lock, [this, seenGen] {
                return shuttingDown || roundGen != seenGen;
            });
            if (shuttingDown)
                return;
            seenGen = roundGen;
            windowEnd = roundWindowEnd;
        }
        // Barrier-wait attribution: the stretch between finishing
        // the previous drain and this wake is time the worker spent
        // parked while the coordinator merged and other shards
        // straggled. Written race-free: the coordinator reads shard
        // stats only after this round's roundDone handshake.
        if (idleSinceValid)
            shardsVec[static_cast<std::size_t>(s)]
                .stats.barrierWaitNs +=
                elapsed_ns(idleSince, clock::now());
        drain_shard(s, windowEnd);
        idleSince = clock::now();
        idleSinceValid = true;
        {
            std::lock_guard<std::mutex> lock(poolMutex);
            ++roundDone;
        }
        doneCv.notify_one();
    }
}

std::string
ShardedSimulator::report() const
{
    std::string out = strprintf(
        "sharded kernel: %d shard%s, lookahead %llu ticks; "
        "%llu windows, %llu events\n",
        numShards, numShards == 1 ? "" : "s",
        static_cast<unsigned long long>(cfg.lookahead),
        static_cast<unsigned long long>(numWindows),
        static_cast<unsigned long long>(numExecutedTotal));
    if (windowAgg.windows > 0) {
        out += strprintf(
            "  windows: %.1f events/window, horizon advance "
            "%.1f ticks/window, barrier wait %.2f ms, merge "
            "%.2f ms, imbalance avg %.2fx max %.2fx\n",
            static_cast<double>(windowAgg.events) /
                static_cast<double>(windowAgg.windows),
            static_cast<double>(windowAgg.horizonAdvance) /
                static_cast<double>(windowAgg.windows),
            static_cast<double>(windowAgg.barrierWaitNs) / 1e6,
            static_cast<double>(windowAgg.mergeNs) / 1e6,
            static_cast<double>(windowAgg.imbalanceSumX1000) /
                static_cast<double>(windowAgg.windows) / 1000.0,
            static_cast<double>(windowAgg.imbalanceMaxX1000) /
                1000.0);
    }
    for (int s = 0; s < numShards; ++s) {
        const ShardStats &st = shard_stats(s);
        out += strprintf(
            "  shard %d: %llu executed, %llu in / %llu out "
            "handoffs, max queue %llu, barrier wait %.2f ms\n",
            s, static_cast<unsigned long long>(st.executed),
            static_cast<unsigned long long>(st.handoffsIn),
            static_cast<unsigned long long>(st.handoffsOut),
            static_cast<unsigned long long>(st.maxPending),
            static_cast<double>(st.barrierWaitNs) / 1e6);
    }
    return out;
}

} // namespace ap::sim
