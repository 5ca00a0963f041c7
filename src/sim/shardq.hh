/**
 * @file
 * Sharded parallel discrete-event kernel.
 *
 * The sequential Simulator executes every cell's events on one host
 * thread through one queue — the scalability ceiling for big
 * machines. This kernel shards the event queue by *affinity* (the
 * functional machine passes cell ids; shards are contiguous cell
 * blocks) and runs shards on a pool of host worker threads with
 * conservative synchronization:
 *
 *   Conservative windows. Physics gives a lower bound L (the
 *   *lookahead*) on the model-time distance of any cross-shard
 *   effect: a T-net message pays at least prolog + one hop before it
 *   can touch another cell, a B-net broadcast pays the bus prolog,
 *   an S-net release pays the combine latency. Therefore, if T is
 *   the globally earliest pending event, every event strictly before
 *   T + L is already in its shard's queue — no in-flight cross-shard
 *   event can land below that horizon. Each round, every shard
 *   drains its events with when < T + L in parallel, workers
 *   barrier, cross-shard events produced during the round are
 *   exchanged, and the next window starts. A cross-shard event
 *   closer than the window end breaks the contract and panics.
 *
 *   One event order. Events carry the sequential kernel's ordering
 *   key (sim/eventq.hh); each source's counter lives on the source's
 *   shard. A cross-shard schedule_for() lands in a per-destination
 *   outbox with its key (no lock on the hot path) and is pushed into
 *   the target queue at the barrier, in any order: the key alone
 *   decides execution order. Each timeline thus runs exactly its
 *   sequential event sequence at any shard count, provided no
 *   decision reads state another shard writes (DESIGN.md §10).
 *
 * With shards == 1 the kernel degenerates to the sequential loop:
 * one queue, no windows, no locks on the scheduling path.
 */

#ifndef AP_SIM_SHARDQ_HH
#define AP_SIM_SHARDQ_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/types.hh"
#include "sim/event.hh"
#include "sim/eventq.hh"
#include "sim/ladderq.hh"

namespace ap::sim
{

/** Construction knobs of the sharded kernel. */
struct ShardConfig
{
    /** Worker threads == shards. */
    int shards = 1;
    /**
     * Conservative lookahead in ticks: a strict lower bound on the
     * model-time delay of any cross-shard event. Must be >= 1 (a
     * zero lookahead admits no parallel window at all).
     */
    Tick lookahead = 1;
    /**
     * Map an affinity value to a shard index. Defaults to
     * affinity % shards (negative affinities map to shard 0). The
     * machine installs a contiguous cell-block map instead so torus
     * neighbours tend to share a shard.
     */
    std::function<int(int)> affinityMap;
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
 * it spread. Only the parallel path produces these; the machine
 * keeps everything it derives from them under its "sim." stats
 * subtree, which byte-identity checks drop.
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
 * The sharded simulator. Drop-in for sim::Simulator behind the
 * virtual interface; see the file comment for the execution model.
 */
class ShardedSimulator final : public Simulator
{
  public:
    explicit ShardedSimulator(ShardConfig cfg);
    ~ShardedSimulator() override;

    // -- Simulator interface -------------------------------------------

    Tick now() const override;
    void schedule(Tick when, EventFn fn) override;
    void schedule_for(int affinity, Tick when, EventFn fn) override;
    void schedule_keyed(int affinity, Tick when, std::uint64_t key,
                        EventFn fn) override;
    std::uint64_t next_key() override;
    int current_affinity() const override;
    bool executing() const override { return tls.owner == this; }
    Tick run() override;
    Tick run_until(Tick limit) override;
    /** Panics: the sharded kernel runs whole windows only. */
    bool step() override;
    bool empty() const override;
    std::size_t pending() const override;
    std::uint64_t executed() const override;
    SimAllocStats alloc_stats() const override;

    // -- introspection (tests, ap_run report) --------------------------

    int shards() const { return numShards; }
    Tick lookahead() const { return cfg.lookahead; }

    /** Shard that affinity @p affinity routes to. */
    int shard_of(int affinity) const;

    /**
     * The horizon below which shard @p s may freely execute given
     * the globally earliest pending event: min pending tick across
     * all shards + lookahead. max_tick when nothing is pending.
     */
    Tick safe_horizon(int s) const;

    /** Next pending tick of shard @p s (max_tick when idle). */
    Tick shard_next(int s) const;

    const ShardStats &shard_stats(int s) const;

    /** Number of parallel windows (rounds) executed so far. */
    std::uint64_t windows() const { return numWindows; }

    /** Aggregate window telemetry (all zero outside parallel mode). */
    const WindowAgg &window_stats() const { return windowAgg; }

    /** Retained per-window records, oldest first (bounded ring of
     *  window_ring_capacity; older windows age out). */
    std::vector<WindowRecord> window_records() const;

    /** Window records that aged out of the ring. */
    std::uint64_t window_records_dropped() const
    {
        return windowDropped;
    }

    /** Per-window record bound. */
    static constexpr std::size_t window_ring_capacity = 1024;

    /**
     * Observer called on the coordinator thread after each parallel
     * window's barrier + merge, while every worker is parked — the
     * machine quiescent point. The machine uses it to feed the span
     * layer (the barrier_wait critical-path stage, and per-worker
     * window annotations in full mode) without the sim layer
     * depending on obs.
     */
    using WindowHook = std::function<void(const WindowRecord &)>;
    void set_window_hook(WindowHook hook)
    {
        windowHook = std::move(hook);
    }

    /** One-line kernel report ("2 shards, 13 windows, ..."). */
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

    /** What the calling thread / a worker is currently executing. */
    struct TlsFrame
    {
        ShardedSimulator *owner = nullptr;
        int shard = 0;
        int affinity = 0;
        Tick now = 0;
        Tick windowEnd = 0;
    };

    static thread_local TlsFrame tls;

    void push(Shard &dst, int affinity, Tick when, std::uint64_t key,
              EventFn fn);
    void note_window(WindowRecord rec);
    void merge_outboxes();
    void drain_shard(int s, Tick windowEnd);
    Tick next_pending_locked() const;
    Tick run_loop(Tick limit);
    Tick run_sequential(Tick limit);
    Tick run_parallel(Tick limit);
    void start_workers();
    void stop_workers();
    void worker_main(int s);

    ShardConfig cfg;
    int numShards;
    std::vector<Shard> shardsVec;
    /** Guards every shard queue while no run is in progress and the
     *  coordinator-side bookkeeping during parallel rounds. */
    mutable std::mutex qMutex;
    /** Serializes TickHistory::record() across shards. */
    std::mutex historyMutex;

    // -- worker pool ----------------------------------------------------
    std::vector<std::thread> workers;
    std::mutex poolMutex;
    std::condition_variable poolCv;   ///< coordinator -> workers
    std::condition_variable doneCv;   ///< workers -> coordinator
    std::uint64_t roundGen = 0;
    int roundDone = 0;
    Tick roundWindowEnd = 0;
    bool shuttingDown = false;

    // -- run state ------------------------------------------------------
    bool running = false;
    Tick globalTime = 0;
    std::uint64_t numExecutedTotal = 0;
    std::uint64_t numWindows = 0;

    // -- window telemetry (coordinator-only writes) ---------------------
    WindowAgg windowAgg;
    Tick prevWindowStart = 0;
    bool haveWindowStart = false;
    /** Ring of the last window_ring_capacity records. */
    std::vector<WindowRecord> windowRing;
    std::size_t windowHead = 0;
    std::uint64_t windowDropped = 0;
    WindowHook windowHook;
    /** Scratch: per-shard executed count at window start. */
    std::vector<std::uint64_t> execAtWindowStart;
};

} // namespace ap::sim

#endif // AP_SIM_SHARDQ_HH
