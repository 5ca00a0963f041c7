/**
 * @file
 * The gang scheduler: admission control, placement, failure-driven
 * rescheduling.
 *
 * One GangScheduler drives one hw::Machine as a cluster. Jobs arrive
 * as events on the simulated clock (schedule_stream() or submit()
 * from inside an event); each admitted job becomes an *attempt*: a
 * gang of per-cell fibers on a freshly allocated torus rectangle,
 * each with its own core::Context whose barrier points at a
 * partition-scoped S-net context, so `ctx.barrier()` synchronizes
 * the gang, not the machine.
 *
 * Robustness model:
 *  - Bounded admission queue: a submit beyond queueDepth is shed
 *    with reason `queue_full`; a shape that cannot fit the torus in
 *    either orientation is shed with `too_large`. maxInflight bounds
 *    concurrent partitions (backpressure on the partitioner).
 *  - Deadlines: urgent/normal jobs get a per-attempt service
 *    deadline from admission; the gang exits cooperatively at the
 *    next iteration vote and the job is reported
 *    `deadline_cancelled` (terminal, partition released clean).
 *  - Failure-driven rescheduling: once a partition cell is
 *    fail-stop, the gang votes out at its next iteration boundary;
 *    survivors unwind via the degraded collectives / watchdog
 *    CommError path, the partition is quarantined (stale one-sided
 *    traffic must never leak into the next tenant) and the job
 *    re-enters the queue after exponential backoff until its retry
 *    budget is exhausted, at which point it is reported terminal
 *    with the first error (postmortem text attached by the runtime)
 *    as its reason.
 *
 * Every job gets a `serve.job.<id>.*` stats subtree and, in full
 * span mode, one "serve" annotation span per attempt (job id and
 * attempt in its args); aggregate counters live under `serve.*`.
 *
 * Threading and determinism: every scheduling decision (submit,
 * admission, launch, finish, requeue, reap) runs as an event on the
 * machine timeline, in model-time order, so the job table is the
 * same at any kernel thread count. Member timelines only record when
 * they leave their gang — their fiber returned, or (kill hook) their
 * cell died first — under the one mutex. Whichever member completes
 * the gang then schedules the finish on the machine timeline at the
 * gang's finish tick (the latest leave tick) plus one lookahead,
 * with a key derived from the attempt, so the finish lands at the
 * same tick and in the same order whichever host thread got there
 * first. Deadlines and doom need no event: the gang's stop vote and
 * the finish read them from model time.
 */

#ifndef AP_SERVE_SCHEDULER_HH
#define AP_SERVE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/context.hh"
#include "hw/machine.hh"
#include "serve/job.hh"
#include "serve/partition.hh"
#include "serve/workload.hh"
#include "sim/process.hh"

namespace ap::serve
{

/** Scheduler tuning knobs. */
struct ServeConfig
{
    /** Admission-queue bound; submits beyond it are shed. */
    int queueDepth = 64;
    /** Concurrent running attempts (partition backpressure). */
    int maxInflight = 8;
    /** Per-attempt service deadlines by class (0 = none). */
    double urgentDeadlineUs = 8000.0;
    double normalDeadlineUs = 40000.0;
    double batchDeadlineUs = 0.0;
};

/** Terminal and transient job states. */
enum class JobState : std::uint8_t
{
    queued = 0,  ///< waiting for admission (or retry backoff)
    running,     ///< an attempt is on the machine
    completed,   ///< all iterations done
    failed,      ///< retry budget exhausted (terminal)
    shed,        ///< rejected at submit (queue_full / too_large)
    deadline_cancelled, ///< service deadline exceeded (terminal)
    starved,     ///< queue drained with no feasible partition left
};

const char *state_name(JobState s);

/** Aggregate serve-layer counters (registered under serve.*). */
struct ServeTotals
{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t attempts = 0;
    std::uint64_t completed = 0;
    std::uint64_t retried = 0;
    std::uint64_t requeued = 0;
    std::uint64_t failedTerminal = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedTooLarge = 0;
    std::uint64_t starved = 0;
    std::uint64_t deadlineCancelled = 0;
    std::uint64_t attemptsKilled = 0;  ///< placement hit by a kill
    std::uint64_t attemptsErrored = 0; ///< CommError without a kill
    std::uint64_t partitionsQuarantined = 0;
};

/** Everything the scheduler learned about one job. */
struct JobRecord
{
    JobSpec spec;
    JobState state = JobState::queued;
    std::string reason; ///< shed/failure/cancel explanation

    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t deadlineHits = 0;
    std::uint64_t stateNum = 0; ///< JobState as a registry gauge

    Tick submitTick = 0;
    Tick enqueueTick = 0; ///< last (re-)enqueue, for queue-wait
    Tick firstStartTick = 0;
    Tick finishTick = 0;

    std::uint64_t queuedTicks = 0;  ///< total time spent queued
    std::uint64_t serviceTicks = 0; ///< total time on the machine
    std::uint64_t cellTicks = 0;    ///< serviceTicks x partition size

    bool
    terminal() const
    {
        return state != JobState::queued && state != JobState::running;
    }
};

/** The gang scheduler driving one machine. */
class GangScheduler
{
  public:
    /**
     * Delay between a scheduling decision and the gang's first
     * resume. Must be at least twice the machine's lookahead (about
     * 0.3 us with the Figure 6 table): a finish is decided one
     * lookahead after the gang ends, and its launches start across
     * shards.
     */
    static constexpr double dispatch_us = 5.0;
    /** Exponential retry backoff: base, factor, saturation cap. */
    static constexpr double retry_base_us = 200.0;
    static constexpr double retry_factor = 2.0;
    static constexpr double retry_cap_us = 5000.0;

    GangScheduler(hw::Machine &machine, ServeConfig cfg);
    ~GangScheduler();

    GangScheduler(const GangScheduler &) = delete;
    GangScheduler &operator=(const GangScheduler &) = delete;

    /**
     * Submit one job at the current simulated time: shed it, queue
     * it, or launch it immediately. Callable before the run starts
     * or from inside a simulation event.
     */
    void submit(const JobSpec &spec);

    /** Schedule every spec's submit() at its arrivalUs. Call before
     *  machine.run_to_completion(). */
    void schedule_stream(const std::vector<JobSpec> &stream);

    /**
     * Call after the event queue drained: jobs still queued (no
     * feasible partition remained) become terminal `starved`, and
     * attempts that never unwound are flagged as deadlocked.
     */
    void finalize();

    const std::deque<JobRecord> &jobs() const { return jobRecs; }
    const ServeTotals &totals() const { return tot; }
    const Partitioner &partitioner() const { return parts; }
    const ServeConfig &config() const { return cfg; }

    /** @return true when every submitted job reached a terminal
     *  state (call after finalize()). */
    bool all_terminal() const;

    /** Human-readable post-run summary (totals, utilization,
     *  latency, per-tenant fairness). */
    std::string report() const;

    /** Jain's fairness index over per-tenant completed cell-ticks
     *  (1.0 = perfectly fair; 0 when nothing completed). */
    double tenant_fairness() const;

    /** Every attempt's cell-ticks / (machine cells x makespan); the
     *  makespan ends at the last attempt finish or shed. */
    double utilization() const;

    /**
     * Seed-chosen cell currently held by a running attempt, or -1
     * when the fleet is momentarily idle. The fault drill uses this
     * to aim a kill at a gang that actually exists (a fixed
     * cell-and-time pick can land on an idle instant).
     */
    CellId pick_busy_cell(std::uint64_t salt);

  private:
    /** One gang launch of one job. */
    struct Attempt
    {
        JobRecord *job = nullptr;
        std::uint64_t gen = 0; ///< scheduler-unique attempt id
        Placement place;
        std::unique_ptr<core::Group> group;
        net::Snet::ContextId barrierCtx = 0;
        JobRun run;
        std::vector<std::unique_ptr<sim::Process>> procs;
        std::vector<std::unique_ptr<core::Context>> ctxs;
        /** Per rank, written by the member's own timeline: when it
         *  left the gang (max_tick while still in it), whether its
         *  body completed, and its CommError if it was a job error. */
        std::vector<Tick> leftAt;
        std::vector<char> ok;
        std::vector<std::string> errors;
        bool leaving = false;  ///< every member left; finish scheduled
        bool finished = false; ///< finish_attempt() ran
        Tick startTick = 0;
        Tick launchedAt = 0; ///< tick of the launching event
        Tick deadlineTick = 0;
    };

    void register_stats();
    void register_job_stats(JobRecord &r);
    void shed_locked(JobRecord &r, const char *why, bool queueFull);
    /** Admit what fits; launches are dated max(@p at, enqueue). */
    void try_admit_locked(Tick at);
    void launch_locked(JobRecord &r, Placement place, Tick at);
    /** A member's fiber returned (its own timeline). */
    void attempt_cell_done(Attempt &a, int rank, bool ok,
                           std::string error);
    /** Schedule the finish once every member has left. */
    void check_finish_locked(Attempt &a);
    /** The finish event (machine timeline). */
    void finish_attempt(std::uint64_t gen, Tick finishTick);
    void requeue(std::size_t jobIdx);
    void on_kill(CellId cell);
    /** Mark cells fail-stop by now as dead in the partitioner. */
    void sync_dead_locked();
    void reap_locked();
    double deadline_us(DeadlineClass c) const;

    static constexpr Tick dispatch_ticks = us_to_ticks(dispatch_us);

    hw::Machine &machine;
    ServeConfig cfg;
    Partitioner parts;

    mutable std::mutex mu;
    std::deque<JobRecord> jobRecs; ///< deque: stable addresses for
                                   ///< registered per-job gauges
    std::vector<std::size_t> queue; ///< indices into jobRecs
    std::vector<std::unique_ptr<Attempt>> attempts;
    std::map<std::uint64_t, Attempt *> liveAttempts; ///< by gen
    std::uint64_t genCounter = 0;
    int runningCount = 0;
    ServeTotals tot;
    Tick firstSubmitTick = 0;
    Tick lastFinishTick = 0;
};

} // namespace ap::serve

#endif // AP_SERVE_SCHEDULER_HH
