/**
 * @file
 * Discrete-event queue and simulator core.
 *
 * Both layers of the reproduction sit on this kernel: the functional
 * AP1000+ machine (message deliveries, DMA completions, interrupt
 * service) and MLSim's trace replay. Every event carries an
 * *affinity* — an opaque small integer (the functional machine uses
 * the destination cell id; negative values name the machine-wide
 * timeline) that says which logical timeline it belongs to. The base
 * Simulator is the sequential kernel; its scheduling entry points are
 * virtual so the sharded parallel kernel (sim/shardq.hh) can stand in
 * behind the same reference and route events to shards by affinity.
 *
 * One event order: both kernels run same-tick events in (source
 * timeline, source sequence) order, where the source is the timeline
 * of the event that scheduled the new one and the sequence a counter
 * only that source bumps. A timeline's events therefore get the same
 * keys however the machine is split across host threads.
 *
 * Hot-path machinery (shared with the sharded kernel — see
 * DESIGN.md "Hot paths"): pending events live in a ladder queue
 * (sim/ladderq.hh) of pooled nodes (sim/event.hh), and handlers are
 * EventFn small-buffer callables instead of std::function, so
 * steady-state scheduling allocates nothing.
 */

#ifndef AP_SIM_EVENTQ_HH
#define AP_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <string>
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
 * Differential determinism tests attach one of these to two kernels
 * running the same workload and compare digests. Each timeline folds
 * its executed (tick, affinity) pairs into its own FNV-1a hash;
 * hash() combines them in timeline order. Retiming, losing,
 * duplicating or reordering one timeline's events changes the digest;
 * how timelines interleave does not, so any shard count gives the
 * same digest. Optionally the raw (tick, affinity) log is kept
 * (bounded, in recording order) so a divergence can be localized.
 * Not thread-safe: the sharded kernel serializes record().
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

/**
 * The event-driven simulator. One instance per simulated machine.
 */
class Simulator
{
  public:
    Simulator() = default;
    virtual ~Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return the current simulated time. */
    virtual Tick now() const { return currentTick; }

    /**
     * Schedule @p fn to run at absolute time @p when, inheriting the
     * affinity of the event currently executing (machine components
     * scheduling follow-ups for their own cell need no annotation).
     * @param when must not be in the past.
     */
    virtual void schedule(Tick when, EventFn fn);

    /**
     * Schedule @p fn at @p when on behalf of timeline @p affinity —
     * the cross-timeline entry point (message deliveries name the
     * destination cell, barrier releases the released cell). The
     * sequential kernel records the affinity; the sharded kernel
     * additionally routes the event to that timeline's shard.
     * Negative affinities mean "no particular timeline".
     */
    virtual void schedule_for(int affinity, Tick when, EventFn fn);

    /**
     * schedule_for() with an ordering key from next_key() or
     * decision_key(), for acting on another timeline's behalf once a
     * shared decision completes (an S-net release, a gang finish):
     * whichever timeline completes it, the order stays the same.
     */
    virtual void schedule_keyed(int affinity, Tick when,
                                std::uint64_t key, EventFn fn);

    /** Take the executing timeline's next ordering key (the outside
     *  source's outside any event), for a later schedule_keyed(). */
    virtual std::uint64_t next_key();

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
        schedule(now() + delta, std::move(fn));
    }

    /** schedule_after with an explicit timeline (see schedule_for). */
    void
    schedule_after_for(int affinity, Tick delta, EventFn fn)
    {
        if (jitterHook)
            delta += jitterHook(delta);
        schedule_for(affinity, now() + delta, std::move(fn));
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
     * executed event folds (tick, affinity) into it in execution
     * order; the recorder must outlive the run.
     */
    virtual void set_history(TickHistory *h) { history = h; }

    /** Run events until the queue drains. @return final time. */
    virtual Tick run();

    /**
     * Run events with timestamps <= @p limit; the clock stops at the
     * last executed event (or stays put if none qualify).
     * @return the simulated time afterwards.
     */
    virtual Tick run_until(Tick limit);

    /** Execute a single event. @return false when the queue is empty. */
    virtual bool step();

    /** @return true when no events are pending. */
    virtual bool empty() const { return queue.empty(); }

    /** @return number of pending events. */
    virtual std::size_t pending() const { return queue.size(); }

    /** @return total number of events executed so far. */
    virtual std::uint64_t executed() const { return numExecuted; }

    /** Kernel allocation counters (event-node pool + EventFn heap
     *  spills) — the sim.alloc.* feed. */
    virtual SimAllocStats alloc_stats() const;

    /** Affinity of the event currently executing (0 at rest). */
    virtual int current_affinity() const { return currentAffinity; }

    /** True while the calling thread runs an event of this kernel. */
    virtual bool executing() const { return currentSource != 0; }

  protected:
    /** Next key of @p source from @p counters (grown on demand). */
    static std::uint64_t take_key(std::vector<std::uint64_t> &counters,
                                  std::uint64_t source);

    std::function<Tick(Tick)> jitterHook;
    TickHistory *history = nullptr;

  private:
    void push(int affinity, Tick when, std::uint64_t key, EventFn fn);

    LadderQueue queue;
    Tick currentTick = 0;
    std::vector<std::uint64_t> sourceSeq; ///< per source id
    std::uint64_t numExecuted = 0;
    int currentAffinity = 0;
    std::uint64_t currentSource = outside_source;
};

} // namespace ap::sim

#endif // AP_SIM_EVENTQ_HH
