/**
 * @file
 * Fault injection for the simulated machine.
 *
 * The paper's MSC+ explicitly handles two failure paths — queue
 * overflow spilling to DRAM with an OS refill interrupt, and a page
 * fault mid-transfer flushing the remainder of the message from the
 * network (Section 4.1) — but a simulator that only ever exercises
 * the happy path cannot regress them. A FaultPlan describes a seeded,
 * fully deterministic perturbation of one run:
 *
 *  - message drop / duplicate / reorder probabilities on the T-net;
 *  - forced send/receive-queue overflows in the MSC+ (every forced
 *    push takes the DRAM spill + refill-interrupt path even when the
 *    hardware queue has room);
 *  - injected MMU page faults during transfer DMA (exercising the
 *    command-drop and message-flush reactions);
 *  - bounded random latency jitter on event-queue delays (schedule
 *    perturbation that must never change results, only timing).
 *
 * Determinism is load-bearing. Every decision is a counter-based
 * hash (Salmon et al., SC'11, "Parallel random numbers: as easy as 1,
 * 2, 3") of (plan seed, decision point, cell, that cell's count of the
 * hardware event being decided): the N-th T-net send of cell 3 drops
 * or not whatever the other cells did first and whichever mechanisms
 * are enabled. Each cell's counters are touched only by that cell's
 * own events, so a (workload seed, fault plan) pair reproduces the
 * identical run at any kernel thread count — a failing stress seed
 * replays exactly.
 *
 * A plan without a probabilistic mechanism (the zero plan, or one
 * that only kills cells) is inert by construction: every decision
 * point stops at FaultInjector::active() before counting, so such a
 * machine is byte-identical to one without the fault layer.
 */

#ifndef AP_SIM_FAULT_HH
#define AP_SIM_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace ap::sim
{

/** One run's fault configuration. All-zero = no faults (inert). */
struct FaultPlan
{
    /** Seed of every decision hash. */
    std::uint64_t seed = 1;

    /** Probability a T-net message silently vanishes. */
    double dropProb = 0.0;
    /** Probability a T-net message is delivered twice. */
    double dupProb = 0.0;
    /** Probability a T-net message is held back past later traffic
     *  (breaks the per-pair FIFO guarantee for that message). */
    double reorderProb = 0.0;
    /** How long a reordered message is held back. */
    static constexpr double reorder_delay_us = 50.0;

    /** Probability an MSC+ queue push is forced to spill to DRAM. */
    double overflowProb = 0.0;
    /** Probability a transfer DMA takes an injected MMU page fault. */
    double pageFaultProb = 0.0;
    /** Upper bound of uniform extra latency per hardware event. */
    double jitterMaxUs = 0.0;
    /** Probability a T-net message has one payload byte flipped. */
    double corruptProb = 0.0;

    /**
     * Cap on duplicate/reorder copies one sending cell may have in
     * flight. A would-be injection past the cap is skipped and
     * counted as an eviction, so a hostile plan cannot grow the
     * holding state without bound. Not a fault mechanism itself
     * (excluded from any()).
     */
    int maxHeldPerCell = 32;

    /** Declare one cell dead at a point in simulated time. */
    struct CellKill
    {
        CellId cell = 0;
        double atUs = 0.0;

        /** Parse a command line's "CELL@US" (the value of --kill=)
         *  for a machine of @p cells; fatal(), naming the argument,
         *  unless CELL is a cell of it and US a time the model can
         *  reach (finite, not negative), with nothing trailing. */
        static CellKill parse(const char *spec, int cells);
    };

    /** Cells to kill during the run (fail-stop, no recovery). The
     *  machine records them in its net::KillTable; the injector
     *  never sees them. */
    std::vector<CellKill> kills;

    /** @return true when any mechanism the injector decides is
     *  enabled; kills are not among them. */
    bool
    any() const
    {
        return dropProb > 0 || dupProb > 0 || reorderProb > 0 ||
               overflowProb > 0 || pageFaultProb > 0 ||
               jitterMaxUs > 0 || corruptProb > 0;
    }

    /** Diagnostic one-liner ("drop=0.02 seed=7"). */
    std::string describe() const;

    // -- presets used by the stress harness ----------------------------

    static FaultPlan drops(std::uint64_t seed, double p = 0.02);
    static FaultPlan duplicates(std::uint64_t seed, double p = 0.02);
    static FaultPlan reorders(std::uint64_t seed, double p = 0.05);
    static FaultPlan overflows(std::uint64_t seed, double p = 0.5);
    static FaultPlan pageFaults(std::uint64_t seed, double p = 0.02);
    static FaultPlan jitter(std::uint64_t seed, double maxUs = 20.0);
    static FaultPlan corrupts(std::uint64_t seed, double p = 0.02);
    /** The reliable-layer acceptance plan: 2% drop + 1% dup +
     *  2% reorder, all at once. */
    static FaultPlan lossy(std::uint64_t seed);
    /** The fault-drill plan: fail-stop one cell at @p atUs. */
    static FaultPlan kill_cell(std::uint64_t seed, CellId cell,
                               double atUs);
    /** Everything at once (drop+dup+reorder+overflow+fault+jitter). */
    static FaultPlan chaos(std::uint64_t seed);
};

/** Counts of every fault actually injected (observability). */
struct FaultStats
{
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reorders = 0;
    std::uint64_t forcedSpills = 0;
    std::uint64_t injectedPageFaults = 0;
    std::uint64_t jitteredEvents = 0;
    std::uint64_t corruptions = 0;
    Tick jitterTicks = 0;

    /** Total number of injected faults of any kind. */
    std::uint64_t
    total() const
    {
        return drops + duplicates + reorders + forcedSpills +
               injectedPageFaults + corruptions;
    }
};

/**
 * The decision engine behind a FaultPlan. One instance per Machine;
 * hardware models get a reference at construction and consult it at
 * their decision points behind active(): an inactive injector (a zero
 * plan) means no faults.
 *
 * Thread-safety: all state is per cell (per timeline for kernel
 * jitter), touched only by that cell's events, which the sharded
 * kernel runs on one shard. No lock, no shared stream.
 */
class FaultInjector
{
  public:
    /** @param cells machine size: one row per cell plus one for
     *  the machine timeline (stable addresses for the registry). */
    FaultInjector(FaultPlan plan, int cells);

    const FaultPlan &plan() const { return fp; }

    /** @return true when the plan enables any mechanism the injector
     *  decides (FaultPlan::any()). */
    bool active() const { return armed; }

    /** Every decision point; each has its own hash stream. */
    enum class Point : std::uint8_t
    {
        drop,
        duplicate,
        reorder,
        corrupt,
        corrupt_byte,
        net_jitter,
        overflow,
        page_fault,
        kernel_jitter,
    };

    /** Uniform [0, 1) draw of @p point for the @p n-th hardware event
     *  of timeline @p cell: a pure function of (seed, point, cell, n). */
    double draw(Point point, int cell, std::uint64_t n) const;

    // -- decision points -----------------------------------------------

    /** What one T-net send suffers. At most one of drop/reorder
     *  holds; a dropped or reordered message is not also corrupted. */
    struct SendFaults
    {
        Tick jitter = 0;
        bool drop = false;
        bool duplicate = false;
        bool reorder = false;
        bool corrupt = false;
        std::uint64_t pick = 0; ///< corrupted byte: pick % size
    };

    /** T-net: decide the faults of cell @p src's next send. */
    SendFaults on_send(CellId src);

    /** MSC+: should cell @p cell's next queue push spill to DRAM? */
    bool force_overflow(CellId cell);

    /** DMA: should cell @p cell's next transfer take an injected
     *  page fault? */
    bool inject_page_fault(CellId cell);

    /** Event kernel: extra latency for the next schedule_after() of
     *  timeline @p timeline (negative: the machine timeline). */
    Tick jitter(int timeline);

    // -- bounded duplicate/reorder holding -----------------------------
    // Duplicated and reordered copies stay in flight as scheduled
    // events; each sender may have plan().maxHeldPerCell of them, aged
    // out at the arrival ticks it computed.

    /** What a held message was held for. */
    enum class HoldKind
    {
        duplicate,
        reorder,
    };

    /** Try to admit one held copy from @p src arriving at @p arrival,
     *  at time @p now. @return false (the injection must be skipped;
     *  the eviction is counted) when @p src is at the cap. */
    bool try_hold(CellId src, HoldKind kind, Tick now, Tick arrival);

    /** Per-sender holding occupancy and eviction counts. */
    struct HoldStats
    {
        std::uint64_t held = 0;
        std::uint64_t heldHighWater = 0;
        std::uint64_t dupEvictions = 0;
        std::uint64_t reorderEvictions = 0;
    };

    /** Hold stats of sending cell @p cell. */
    const HoldStats &hold_stats(CellId cell) const;

    /** Every injected fault, summed over the cells. */
    FaultStats stats() const;

  private:
    /** One timeline's counters and holding state. */
    struct Row
    {
        std::uint64_t sends = 0;
        std::uint64_t pushes = 0;
        std::uint64_t dmas = 0;
        std::uint64_t schedules = 0;
        FaultStats stats;
        HoldStats hold;
        /** Arrival ticks of this sender's held copies in flight. */
        std::vector<Tick> held;
    };

    /** Row index of timeline @p cell: 0 for negative ids, cell + 1. */
    std::size_t index(int cell) const;
    Row &row(int cell) { return rows[index(cell)]; }
    std::uint64_t hash(Point point, int cell, std::uint64_t n) const;
    bool roll(Point point, int cell, std::uint64_t n, double prob) const;
    Tick jitter_draw(Point point, Row &r, int cell, std::uint64_t n);

    FaultPlan fp;
    bool armed = false;
    std::vector<Row> rows;
};

} // namespace ap::sim

#endif // AP_SIM_FAULT_HH
