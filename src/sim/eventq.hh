/**
 * @file
 * The discrete-event kernel.
 *
 * Both layers of the reproduction sit on this kernel: the functional
 * AP1000+ machine (message deliveries, DMA completions, interrupt
 * service) and MLSim's trace replay. Every event carries an
 * *affinity* — an opaque small integer (the functional machine uses
 * the destination cell id; negative values name the machine-wide
 * timeline) that says which logical timeline it belongs to.
 *
 * One event order: same-tick events run in (source timeline, source
 * sequence) order, where the source is the timeline of the event that
 * scheduled the new one and the sequence a counter only that source
 * bumps. A timeline's events therefore get the same keys however the
 * timelines are split across host threads.
 *
 * Shards. The kernel splits the timelines into contiguous blocks,
 * one per shard (torus neighbours tend to share one), and gives each
 * shard its own queue. With one shard, run() drains that queue inline
 * on the calling thread. With more, the shards run on a pool of host
 * worker threads under conservative synchronization:
 *
 *   Conservative windows. Physics gives a lower bound L (the
 *   *lookahead*) on the model-time distance of any cross-shard
 *   effect: a T-net message pays at least prolog + one hop before it
 *   can touch another cell, a B-net broadcast pays the bus prolog,
 *   an S-net release pays the combine latency. Therefore, if T is
 *   the globally earliest pending event, every event strictly before
 *   T + L is already in its shard's queue. Each round, every shard
 *   drains its events with when < T + L in parallel, workers
 *   barrier, cross-shard events produced during the round are
 *   exchanged, and the next window starts. A cross-shard event
 *   closer than the window end breaks the contract and panics.
 *
 *   A cross-shard schedule lands in a per-destination outbox with its
 *   key (no lock on the hot path) and is pushed into the target queue
 *   at the barrier, in any order: the key alone decides execution
 *   order. Each timeline thus runs exactly its one-shard event
 *   sequence at any shard count, provided no decision reads state
 *   another shard writes (DESIGN.md §10).
 *
 * Hot-path machinery (see DESIGN.md "Hot paths"): pending events live
 * in ladder queues (sim/ladderq.hh) of pooled nodes (sim/event.hh),
 * and handlers are EventFn small-buffer callables instead of
 * std::function, so steady-state scheduling allocates nothing. With
 * one shard, now() and the schedule calls are inline member accesses.
 */

#ifndef AP_SIM_EVENTQ_HH
#define AP_SIM_EVENTQ_HH

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "sim/event.hh"
#include "sim/ladderq.hh"

namespace ap::sim
{

/**
 * Event ordering keys, packed into the queue's 64-bit sequence
 * number: source id << key_seq_bits | that source's sequence. Source
 * 0 schedules from outside any event, 1 derives keys from shared
 * decisions, 2 is the machine-wide timeline (every negative
 * affinity) and a + 3 timeline a.
 */
constexpr int key_seq_bits = 40;
constexpr std::uint64_t outside_source = 0;

constexpr std::uint64_t
source_of(int affinity)
{
    return affinity < 0 ? 2 : static_cast<std::uint64_t>(affinity) + 3;
}

constexpr std::uint64_t
event_key(std::uint64_t source, std::uint64_t seq)
{
    return source << key_seq_bits | seq;
}

/** The key of shared decision @p id, which must be unique among the
 *  decisions that may land on one timeline at one tick. */
constexpr std::uint64_t
decision_key(std::uint64_t id)
{
    return event_key(1, id);
}

/**
 * A digest of an executed event sequence, one timeline at a time.
 *
 * Differential determinism tests attach one of these to two kernel
 * runs of the same workload and compare digests. Each timeline folds
 * its executed (tick, affinity) pairs into its own FNV-1a hash;
 * hash() combines them in timeline order. Retiming, losing,
 * duplicating or reordering one timeline's events changes the digest;
 * how timelines interleave does not, so any shard count gives the
 * same digest. Optionally the raw (tick, affinity) log is kept
 * (bounded, in recording order) so a divergence can be localized.
 * Not thread-safe: the kernel serializes record() across shards.
 */
class TickHistory
{
  public:
    /** Fold one executed event into its timeline's digest. */
    void
    record(Tick when, int affinity)
    {
        ++numEvents;
        auto idx = static_cast<std::size_t>(affinity < 0 ? 0
                                                         : affinity + 1);
        if (idx >= lines.size())
            lines.resize(idx + 1, fnv_offset);
        fold(lines[idx], when);
        fold(lines[idx], static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(affinity)));
        if (logCap > 0) {
            if (logBuf.size() < logCap)
                logBuf.emplace_back(when, affinity);
            else
                wasTruncated = true;
        }
    }

    /** The per-timeline digests combined in timeline order. */
    std::uint64_t
    hash() const
    {
        std::uint64_t h = fnv_offset;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lines[i] == fnv_offset)
                continue;
            fold(h, i);
            fold(h, lines[i]);
        }
        return h;
    }

    /** Number of events recorded. */
    std::uint64_t events() const { return numEvents; }

    /** Keep the first @p cap raw (tick, affinity) pairs. */
    void set_keep_log(std::size_t cap) { logCap = cap; }

    /** The retained raw log (first set_keep_log() entries, in
     *  recording order — host-dependent across parallel shards). */
    const std::vector<std::pair<Tick, int>> &log() const
    {
        return logBuf;
    }

    /**
     * True when record() dropped entries past the log capacity —
     * the retained log is a prefix, not the whole run. Localization
     * tooling must widen the capacity rather than conclude the
     * histories converge where the log stops.
     */
    bool truncated() const { return wasTruncated; }

    /** "events=N hash=0x..." — the one-line comparable digest
     *  (suffixed with the kept/total log count when truncated). */
    std::string digest() const;

    /** Reset to the empty history (keeps the log capacity). */
    void
    reset()
    {
        lines.clear();
        numEvents = 0;
        logBuf.clear();
        wasTruncated = false;
    }

    bool
    operator==(const TickHistory &o) const
    {
        return hash() == o.hash() && numEvents == o.numEvents;
    }

  private:
    static constexpr std::uint64_t fnv_offset =
        0xcbf29ce484222325ull;
    static constexpr std::uint64_t fnv_prime = 0x100000001b3ull;

    static void
    fold(std::uint64_t &state, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (v >> (8 * i)) & 0xff;
            state *= fnv_prime;
        }
    }

    /** Running hash per timeline: index 0 holds the negative
     *  affinities, index a + 1 timeline a. */
    std::vector<std::uint64_t> lines;
    std::uint64_t numEvents = 0;
    std::size_t logCap = 0;
    bool wasTruncated = false;
    std::vector<std::pair<Tick, int>> logBuf;
};

/** An event armed by Simulator::arm(); none when default-built. */
class Timer
{
    friend class Simulator;
    EventNode *node = nullptr;
    std::uint64_t key = 0; ///< the node's seq while this timer is queued
};

/** Per-shard execution statistics. */
struct ShardStats
{
    std::uint64_t executed = 0;     ///< events run on this shard
    std::uint64_t handoffsIn = 0;   ///< events merged from other shards
    std::uint64_t handoffsOut = 0;  ///< events sent to other shards
    std::uint64_t maxPending = 0;   ///< queue depth high-water mark
    /**
     * Host wall-clock nanoseconds this shard's thread spent parked
     * at the window barrier (a worker: between finishing its drain
     * and the next round's wake; the coordinator: waiting for the
     * workers). Wall-clock, so never part of determinism compares.
     */
    std::uint64_t barrierWaitNs = 0;
};

/** What one shard did inside one parallel window. */
struct WindowShard
{
    std::uint64_t events = 0; ///< events this shard executed
    Tick last = 0;            ///< its last executed tick (0 if idle)
};

/**
 * One parallel window's record: what the round cost and how evenly
 * it spread. Only runs on more than one shard produce these; the
 * machine keeps everything it derives from them under its "sim."
 * stats subtree, which byte-identity checks drop.
 */
struct WindowRecord
{
    std::uint64_t index = 0; ///< 0-based window number
    Tick start = 0;          ///< globally earliest pending tick
    Tick end = 0;            ///< exclusive horizon (start + lookahead)
    /** Horizon advance over the previous window's start (0 for the
     *  first window). */
    Tick advance = 0;
    std::uint64_t events = 0;         ///< executed, all shards
    std::uint64_t maxShardEvents = 0; ///< busiest shard's events
    /**
     * Load-imbalance ratio max/mean events per shard, fixed-point
     * x1000 (1000 = perfectly balanced). 0 for an empty window.
     */
    std::uint64_t imbalanceX1000 = 0;
    /** Coordinator's host wall-clock wait for the workers, ns. */
    std::uint64_t barrierWaitNs = 0;
    /** Host wall-clock spent merging outboxes at the barrier, ns. */
    std::uint64_t mergeNs = 0;
    /** Per-shard breakdown, indexed by shard. */
    std::vector<WindowShard> shards;
};

/** Aggregate over every window executed so far. */
struct WindowAgg
{
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    Tick horizonAdvance = 0;       ///< sum of per-window advances
    std::uint64_t barrierWaitNs = 0; ///< coordinator waits only
    std::uint64_t mergeNs = 0;
    std::uint64_t imbalanceMaxX1000 = 0;
    std::uint64_t imbalanceSumX1000 = 0; ///< over non-empty windows
};

/**
 * The event-driven simulator. One instance per simulated machine;
 * see the file comment for the execution model.
 */
class Simulator
{
  public:
    /**
     * @param threads host threads: the kernel runs min(threads,
     *        timelines) shards
     * @param timelines timelines 0..timelines-1, split into that many
     *        contiguous shard blocks (negative affinities run on
     *        shard 0, larger ones on the last shard)
     * @param lookahead strict lower bound, in ticks, on the delay of
     *        any event one shard schedules onto another (>= 1)
     */
    explicit Simulator(int threads = 1, int timelines = 1,
                       Tick lookahead = 1);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return the current simulated time: the executing event's
     *  tick, or at rest the last executed one. */
    Tick now() const { return frame().now; }

    /**
     * Schedule @p fn to run at absolute time @p when, inheriting the
     * affinity of the event currently executing (machine components
     * scheduling follow-ups for their own cell need no annotation).
     * @param when must not be in the past.
     */
    void
    schedule(Tick when, EventFn fn)
    {
        const Frame &f = frame();
        enqueue(f.affinity, when, key_of(f), std::move(fn));
    }

    /**
     * Schedule @p fn at @p when on behalf of timeline @p affinity —
     * the cross-timeline entry point (message deliveries name the
     * destination cell, barrier releases the released cell), routed
     * to that timeline's shard. Negative affinities mean "no
     * particular timeline".
     */
    void
    schedule_for(int affinity, Tick when, EventFn fn)
    {
        enqueue(affinity, when, next_key(), std::move(fn));
    }

    /**
     * schedule_for() with an ordering key from next_key() or
     * decision_key(), for acting on another timeline's behalf once a
     * shared decision completes (an S-net release, a gang finish):
     * whichever timeline completes it, the order stays the same.
     */
    void
    schedule_keyed(int affinity, Tick when, std::uint64_t key,
                   EventFn fn)
    {
        enqueue(affinity, when, key, std::move(fn));
    }

    /** Take the executing timeline's next ordering key (the outside
     *  source's outside any event), for a later schedule_keyed(). */
    std::uint64_t next_key() { return key_of(frame()); }

    /** schedule() @p fn at @p when, cancellably (a wait's deadline,
     *  a reliable-layer timer). Call it on the executing timeline or
     *  at rest. */
    Timer arm(Tick when, EventFn fn);

    /** Drop @p t unrun: never executed or recorded, it moves neither
     *  now() nor pending(). A no-op once it ran (inside its handler
     *  too). Call it on the timeline that armed it, or at rest. */
    void cancel(Timer &t);

    /** True while @p t is queued: neither run (false inside its
     *  handler) nor cancelled. Same caller rule as cancel(). */
    bool
    armed(const Timer &t) const
    {
        // A node that ran may hold another event now: the keys differ.
        return t.node && t.node->live && t.node->seq == t.key;
    }

    /**
     * Schedule @p fn to run @p delta ticks from now. Relative delays
     * model hardware latencies, so this is the hook point for fault
     * plans that jitter event timing: when a jitter hook is
     * installed, a bounded extra delay is added to @p delta.
     */
    void
    schedule_after(Tick delta, EventFn fn)
    {
        if (jitterHook)
            delta += jitterHook(delta);
        const Frame &f = frame();
        enqueue(f.affinity, f.now + delta, key_of(f), std::move(fn));
    }

    /** schedule_after with an explicit timeline (see schedule_for). */
    void
    schedule_after_for(int affinity, Tick delta, EventFn fn)
    {
        if (jitterHook)
            delta += jitterHook(delta);
        enqueue(affinity, now() + delta, next_key(), std::move(fn));
    }

    /**
     * Install (or clear, with nullptr) a latency jitter hook applied
     * to every schedule_after() delay. The hook returns extra ticks
     * to add. Absolute-time schedule() calls are never jittered, so
     * callers that manage their own serialization timelines (the
     * T-net FIFO clamp, receive-DMA busy tracking, process wakeups)
     * keep their invariants.
     */
    void
    set_delay_jitter(std::function<Tick(Tick)> hook)
    {
        jitterHook = std::move(hook);
    }

    /**
     * Attach a tick-history recorder (nullptr detaches). Every
     * executed event folds (tick, affinity) into it; the recorder
     * must outlive the run.
     */
    void set_history(TickHistory *h) { history = h; }

    /** Run events until the queue drains. @return final time. */
    Tick run() { return run_until(max_tick); }

    /**
     * Run events with timestamps <= @p limit; the clock stops at the
     * last executed event (or stays put if none qualify).
     * @return the simulated time afterwards.
     */
    Tick run_until(Tick limit);

    /** @return true when no events are pending. */
    bool empty() const { return pending() == 0; }

    /** @return number of pending events. */
    std::size_t pending() const;

    /** @return total number of events executed so far. */
    std::uint64_t executed() const;

    /** Kernel allocation counters (event-node pool + EventFn heap
     *  spills) — the sim.alloc.* feed. */
    SimAllocStats alloc_stats() const;

    /** Affinity of the event currently executing (0 at rest). */
    int current_affinity() const { return frame().affinity; }

    /** True while the calling thread runs an event of this kernel. */
    bool executing() const { return frame().source != outside_source; }

    // -- shards and windows ---------------------------------------------

    int shards() const { return numShards; }
    Tick lookahead() const { return lookaheadTicks; }

    /** Shard that runs timeline @p affinity: contiguous blocks. */
    int
    shard_of(int affinity) const
    {
        if (affinity <= 0)
            return 0;
        if (affinity >= numTimelines)
            return numShards - 1;
        return static_cast<int>(static_cast<long long>(affinity) *
                                numShards / numTimelines);
    }

    const ShardStats &
    shard_stats(int s) const
    {
        return shardsVec[static_cast<std::size_t>(s)].stats;
    }

    /** Aggregate window telemetry (all zero on one shard). */
    const WindowAgg &window_stats() const { return windowAgg; }

    /**
     * Observer called on the coordinator thread after each parallel
     * window's barrier + merge, while every worker is parked — the
     * machine quiescent point. The machine folds the T-net's
     * per-shard counters there.
     */
    using WindowHook = std::function<void(const WindowRecord &)>;
    void set_window_hook(WindowHook hook)
    {
        windowHook = std::move(hook);
    }

    /** Multi-line kernel report ("sharded kernel: 2 shards, ..."). */
    std::string report() const;

  private:
    /** A cross-shard event in flight between window barriers. The
     *  closure rides by value; the destination's pooled node is
     *  allocated at merge time, on the coordinator. */
    struct Handoff
    {
        Tick when;
        int affinity;
        std::uint64_t key;
        EventFn fn;
    };

    struct Shard
    {
        LadderQueue queue; ///< ordered by (when, key)
        /** Sequence per source id this shard runs (and, on shard 0,
         *  the outside source's). */
        std::vector<std::uint64_t> sourceSeq;
        /** Outboxes, one per destination shard; worker-exclusive
         *  during a round, drained at the barrier. */
        std::vector<std::vector<Handoff>> outbox;
        Tick lastExecuted = 0;
        ShardStats stats;
    };

    /** What one thread is executing. */
    struct Frame
    {
        const Simulator *owner = nullptr; ///< thread-local frames only
        Tick now = 0;
        int affinity = 0;
        std::uint64_t source = outside_source;
        int shard = 0;
        Tick windowEnd = max_tick; ///< exclusive end of the window
    };

    /** The calling thread's frame during a parallel window, `main`
     *  otherwise. */
    const Frame &frame() const
    {
        return numShards == 1 ? main : thread_frame();
    }
    const Frame &thread_frame() const;

    std::uint64_t
    key_of(const Frame &f)
    {
        return take_key(
            shardsVec[static_cast<std::size_t>(f.shard)].sourceSeq,
            f.source);
    }

    /** Next key of @p source from @p counters (grown on demand). */
    static std::uint64_t take_key(std::vector<std::uint64_t> &counters,
                                  std::uint64_t source);

    [[noreturn]] static void scheduled_in_past(Tick when, Tick now);

    /** Every schedule call lands here; the closure is moved once,
     *  into its pooled node. */
    void
    enqueue(int affinity, Tick when, std::uint64_t key, EventFn &&fn)
    {
        if (numShards > 1) {
            route(affinity, when, key, std::move(fn));
            return;
        }
        if (when < main.now)
            scheduled_in_past(when, main.now);
        push(shardsVec.front(), affinity, when, key, std::move(fn));
    }

    EventNode *
    push(Shard &dst, int affinity, Tick when, std::uint64_t key,
         EventFn &&fn)
    {
        dst.stats.maxPending = std::max<std::uint64_t>(
            dst.stats.maxPending, dst.queue.size() + 1);
        return dst.queue.push(when, key, affinity, std::move(fn));
    }

    /** schedule_keyed() on more than one shard. */
    void route(int affinity, Tick when, std::uint64_t key,
               EventFn &&fn);
    /** Run shard @p sh 's events before @p end in frame @p f. */
    void drain(Shard &sh, Frame &f, Tick end);
    void drain_on_thread(int s, Tick end);
    void run_windows(Tick end);
    void merge_outboxes();
    void note_window(const WindowRecord &rec);
    void start_workers();
    void stop_workers();
    void worker_main(int s);

    static thread_local Frame tls;

    int numShards;
    int numTimelines;
    Tick lookaheadTicks;
    std::vector<Shard> shardsVec;
    /** The driving thread's frame: it executes every event on one
     *  shard and holds the global clock at rest. */
    Frame main;
    std::function<Tick(Tick)> jitterHook;
    TickHistory *history = nullptr;
    /** Serializes TickHistory::record() across shards. */
    std::mutex historyMutex;
    bool running = false;

    // -- worker pool (more than one shard) ------------------------------
    std::mutex poolMutex;
    std::condition_variable poolCv; ///< coordinator -> workers
    std::condition_variable doneCv; ///< workers -> coordinator
    std::uint64_t roundGen = 0;
    int roundDone = 0;
    Tick roundWindowEnd = 0;
    bool shuttingDown = false;
    std::vector<std::thread> workers;

    // -- window telemetry (coordinator-only writes) ---------------------
    WindowAgg windowAgg;
    Tick prevWindowStart = 0;
    WindowHook windowHook;
    /** Scratch: per-shard executed count at window start. */
    std::vector<std::uint64_t> execAtWindowStart;
};

} // namespace ap::sim

#endif // AP_SIM_EVENTQ_HH
