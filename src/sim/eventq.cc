#include "sim/eventq.hh"

#include <chrono>
#include <utility>

#include "base/logging.hh"

namespace ap::sim
{

thread_local Simulator::Frame Simulator::tls;

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

std::string
TickHistory::digest() const
{
    std::string out = strprintf(
        "events=%llu hash=%#llx",
        static_cast<unsigned long long>(numEvents),
        static_cast<unsigned long long>(hash()));
    if (wasTruncated)
        out += strprintf(
            " log=truncated(%zu of %llu kept)", logBuf.size(),
            static_cast<unsigned long long>(numEvents));
    return out;
}

Simulator::Simulator(int threads, int timelines, Tick lookahead)
    : numShards(std::max(1, std::min(threads, timelines))),
      numTimelines(timelines), lookaheadTicks(lookahead)
{
    if (threads < 1)
        fatal("the event kernel needs at least 1 thread, got %d",
              threads);
    if (lookahead < 1)
        fatal("the event kernel needs lookahead >= 1 tick");
    shardsVec.resize(static_cast<std::size_t>(numShards));
    if (numShards > 1)
        for (Shard &s : shardsVec)
            s.outbox.resize(static_cast<std::size_t>(numShards));
    execAtWindowStart.resize(static_cast<std::size_t>(numShards));
}

Simulator::~Simulator()
{
    stop_workers();
}

const Simulator::Frame &
Simulator::thread_frame() const
{
    return tls.owner == this ? tls : main;
}

std::uint64_t
Simulator::take_key(std::vector<std::uint64_t> &counters,
                    std::uint64_t source)
{
    if (source >= counters.size())
        counters.resize(source + 1, 0);
    std::uint64_t seq = counters[source]++;
    if (seq >> key_seq_bits)
        panic("event source %llu ran out of sequence numbers",
              static_cast<unsigned long long>(source));
    return event_key(source, seq);
}

void
Simulator::scheduled_in_past(Tick when, Tick now)
{
    panic("scheduling event in the past (%llu < %llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now));
}

void
Simulator::route(int affinity, Tick when, std::uint64_t key,
                 EventFn &&fn)
{
    int target = shard_of(affinity);
    Shard &dst = shardsVec[static_cast<std::size_t>(target)];

    // Calls from outside any event (machine construction, test setup,
    // the space between run() calls) go straight into the target
    // queue: no worker runs.
    if (tls.owner != this) {
        if (when < main.now)
            scheduled_in_past(when, main.now);
        push(dst, affinity, when, key, std::move(fn));
        return;
    }

    if (when < tls.now)
        scheduled_in_past(when, tls.now);
    if (target == tls.shard) {
        push(dst, affinity, when, key, std::move(fn));
        return;
    }
    Shard &self = shardsVec[static_cast<std::size_t>(tls.shard)];
    ++self.stats.handoffsOut;
    if (when < tls.windowEnd)
        panic("lookahead violation: cross-shard event at %llu "
              "inside window ending %llu (lookahead %llu, "
              "affinity %d -> shard %d)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(tls.windowEnd),
              static_cast<unsigned long long>(lookaheadTicks),
              affinity, target);
    self.outbox[static_cast<std::size_t>(target)].push_back(
        Handoff{when, affinity, key, std::move(fn)});
}

void
Simulator::merge_outboxes()
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
Simulator::drain(Shard &sh, Frame &f, Tick end)
{
    // Leave the frame at rest and recycle the node even if a handler
    // throws (CommError from machine code unwinds through here); a
    // handler may schedule new events, which is safe — its node is
    // off the queue already.
    struct Rest
    {
        Frame &f;
        ~Rest()
        {
            f.affinity = 0;
            f.source = outside_source;
        }
    } rest{f};
    while (EventNode *n = sh.queue.pop(end)) {
        f.now = n->when;
        f.affinity = n->affinity;
        f.source = source_of(n->affinity);
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
}

void
Simulator::drain_on_thread(int s, Tick end)
{
    Frame saved = tls;
    tls = Frame{};
    tls.owner = this;
    tls.shard = s;
    tls.windowEnd = end;
    drain(shardsVec[static_cast<std::size_t>(s)], tls, end);
    tls = saved;
}

Timer
Simulator::arm(Tick when, EventFn fn)
{
    const Frame &f = frame();
    if (when < f.now)
        scheduled_in_past(when, f.now);
    Timer t;
    t.key = key_of(f);
    t.node = push(shardsVec[static_cast<std::size_t>(f.shard)],
                  f.affinity, when, t.key, std::move(fn));
    return t;
}

void
Simulator::cancel(Timer &t)
{
    if (armed(t))
        shardsVec[static_cast<std::size_t>(shard_of(t.node->affinity))]
            .queue.cancel(t.node);
    t.node = nullptr;
}

std::size_t
Simulator::pending() const
{
    std::size_t n = 0;
    for (const Shard &s : shardsVec)
        n += s.queue.size();
    return n;
}

std::uint64_t
Simulator::executed() const
{
    std::uint64_t n = 0;
    for (const Shard &s : shardsVec)
        n += s.stats.executed;
    return n;
}

SimAllocStats
Simulator::alloc_stats() const
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

Tick
Simulator::run_until(Tick limit)
{
    if (running)
        panic("re-entrant run()");
    running = true;
    struct Running
    {
        bool &flag;
        ~Running() { flag = false; }
    } guard{running};
    Tick end = saturating_add(limit, 1);
    if (numShards == 1)
        drain(shardsVec.front(), main, end);
    else
        run_windows(end);
    return main.now;
}

void
Simulator::run_windows(Tick end)
{
    using clock = std::chrono::steady_clock;
    start_workers();
    for (;;) {
        Tick t = max_tick;
        for (const Shard &s : shardsVec)
            t = std::min(t, s.queue.min_when());
        if (t >= end)
            break;
        Tick windowEnd =
            std::min(saturating_add(t, lookaheadTicks), end);

        WindowRecord rec;
        rec.index = windowAgg.windows;
        rec.start = t;
        rec.end = windowEnd;
        rec.advance = rec.index > 0 ? t - prevWindowStart : 0;
        prevWindowStart = t;
        for (int s = 0; s < numShards; ++s)
            execAtWindowStart[static_cast<std::size_t>(s)] =
                shard_stats(s).executed;

        {
            std::lock_guard<std::mutex> lock(poolMutex);
            roundWindowEnd = windowEnd;
            roundDone = 0;
            ++roundGen;
        }
        poolCv.notify_all();

        drain_on_thread(0, windowEnd);

        {
            clock::time_point waitBegin = clock::now();
            std::unique_lock<std::mutex> lock(poolMutex);
            doneCv.wait(lock, [this] {
                return roundDone == numShards - 1;
            });
            rec.barrierWaitNs = elapsed_ns(waitBegin, clock::now());
            shardsVec.front().stats.barrierWaitNs += rec.barrierWaitNs;
        }

        clock::time_point mergeBegin = clock::now();
        merge_outboxes();
        rec.mergeNs = elapsed_ns(mergeBegin, clock::now());

        rec.shards.resize(static_cast<std::size_t>(numShards));
        for (int s = 0; s < numShards; ++s) {
            const Shard &sh = shardsVec[static_cast<std::size_t>(s)];
            main.now = std::max(main.now, sh.lastExecuted);
            std::uint64_t e =
                sh.stats.executed -
                execAtWindowStart[static_cast<std::size_t>(s)];
            WindowShard &ws = rec.shards[static_cast<std::size_t>(s)];
            ws.events = e;
            ws.last = e > 0 ? sh.lastExecuted : 0;
            rec.events += e;
            rec.maxShardEvents = std::max(rec.maxShardEvents, e);
        }
        // max/mean events per shard, x1000: 1000 means every shard
        // did equal work, N*1000 means one shard did everything.
        if (rec.events > 0)
            rec.imbalanceX1000 =
                rec.maxShardEvents *
                static_cast<std::uint64_t>(numShards) * 1000 /
                rec.events;
        note_window(rec);
    }
}

void
Simulator::note_window(const WindowRecord &rec)
{
    windowAgg.windows = rec.index + 1;
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
}

void
Simulator::start_workers()
{
    if (!workers.empty())
        return;
    workers.reserve(static_cast<std::size_t>(numShards - 1));
    for (int s = 1; s < numShards; ++s)
        workers.emplace_back([this, s] { worker_main(s); });
}

void
Simulator::stop_workers()
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
Simulator::worker_main(int s)
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
        drain_on_thread(s, windowEnd);
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
Simulator::report() const
{
    std::string out = strprintf(
        "sharded kernel: %d shard%s, lookahead %llu ticks; "
        "%llu windows, %llu events\n",
        numShards, numShards == 1 ? "" : "s",
        static_cast<unsigned long long>(lookaheadTicks),
        static_cast<unsigned long long>(windowAgg.windows),
        static_cast<unsigned long long>(executed()));
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
