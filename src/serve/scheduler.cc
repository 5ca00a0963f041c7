#include "serve/scheduler.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "serve/workload.hh"

namespace ap::serve
{

const char *
state_name(JobState s)
{
    switch (s) {
    case JobState::queued:
        return "queued";
    case JobState::running:
        return "running";
    case JobState::completed:
        return "completed";
    case JobState::failed:
        return "failed";
    case JobState::shed:
        return "shed";
    case JobState::deadline_cancelled:
        return "deadline_cancelled";
    case JobState::starved:
        return "starved";
    }
    return "?";
}

GangScheduler::GangScheduler(hw::Machine &machine, ServeConfig cfg)
    : machine(machine), cfg(cfg),
      parts(machine.topology().width(), machine.topology().height())
{
    if (dispatch_ticks < 2 * machine.lookahead())
        fatal("serve dispatch_us %.3f is below twice the machine "
              "lookahead (%.3f us)",
              dispatch_us, ticks_to_us(2 * machine.lookahead()));
    machine.set_kill_hook([this](CellId c) { on_kill(c); });
    register_stats();
}

GangScheduler::~GangScheduler()
{
    machine.set_kill_hook(nullptr);
    machine.stats_registry().remove_prefix("serve.");
}

double
GangScheduler::deadline_us(DeadlineClass c) const
{
    switch (c) {
    case DeadlineClass::urgent:
        return cfg.urgentDeadlineUs;
    case DeadlineClass::normal:
        return cfg.normalDeadlineUs;
    case DeadlineClass::batch:
        return cfg.batchDeadlineUs;
    }
    return 0.0;
}

void
GangScheduler::register_stats()
{
    obs::StatsRegistry &reg = machine.stats_registry();
    reg.add_counter("serve.jobs.submitted", &tot.submitted);
    reg.add_counter("serve.jobs.admitted", &tot.admitted);
    reg.add_counter("serve.jobs.completed", &tot.completed);
    reg.add_counter("serve.jobs.failed", &tot.failedTerminal);
    reg.add_counter("serve.jobs.shed_queue_full", &tot.shedQueueFull);
    reg.add_counter("serve.jobs.shed_too_large", &tot.shedTooLarge);
    reg.add_counter("serve.jobs.starved", &tot.starved);
    reg.add_counter("serve.jobs.deadline_cancelled",
                    &tot.deadlineCancelled);
    reg.add_counter("serve.jobs.retried", &tot.retried);
    reg.add_counter("serve.jobs.requeued", &tot.requeued);
    reg.add_counter("serve.attempts.launched", &tot.attempts);
    reg.add_counter("serve.attempts.killed", &tot.attemptsKilled);
    reg.add_counter("serve.attempts.errored", &tot.attemptsErrored);
    reg.add_counter("serve.partitions.quarantined",
                    &tot.partitionsQuarantined);
    reg.add_gauge("serve.sched.queue_depth", [this] {
        return static_cast<std::uint64_t>(queue.size());
    });
    reg.add_gauge("serve.sched.running", [this] {
        return static_cast<std::uint64_t>(runningCount);
    });
    reg.add_gauge("serve.cells.free", [this] {
        return static_cast<std::uint64_t>(parts.free_cells());
    });
    reg.add_gauge("serve.cells.busy", [this] {
        return static_cast<std::uint64_t>(parts.busy_cells());
    });
    reg.add_gauge("serve.cells.quarantined", [this] {
        return static_cast<std::uint64_t>(parts.quarantined_cells());
    });
    reg.add_gauge("serve.cells.dead", [this] {
        return static_cast<std::uint64_t>(parts.dead_cells());
    });
}

void
GangScheduler::register_job_stats(JobRecord &r)
{
    obs::StatsRegistry &reg = machine.stats_registry();
    std::string p = strprintf("serve.job.%d.", r.spec.id);
    reg.add_counter(p + "attempts", &r.attempts);
    reg.add_counter(p + "retries", &r.retries);
    reg.add_counter(p + "deadline_hits", &r.deadlineHits);
    JobRecord *jr = &r;
    reg.add_gauge(p + "state", [jr] { return jr->stateNum; });
    reg.add_gauge(p + "queued_us", [jr] {
        return static_cast<std::uint64_t>(
            ticks_to_us(jr->queuedTicks));
    });
    reg.add_gauge(p + "service_us", [jr] {
        return static_cast<std::uint64_t>(
            ticks_to_us(jr->serviceTicks));
    });
    reg.add_gauge(p + "latency_us", [jr] {
        if (!jr->terminal() || jr->finishTick < jr->submitTick)
            return std::uint64_t{0};
        return static_cast<std::uint64_t>(
            ticks_to_us(jr->finishTick - jr->submitTick));
    });
}

void
GangScheduler::submit(const JobSpec &spec)
{
    std::lock_guard<std::mutex> lock(mu);
    sync_dead_locked();
    Tick now = machine.sim().now();
    std::size_t idx = jobRecs.size();
    jobRecs.emplace_back();
    JobRecord &r = jobRecs.back();
    r.spec = spec;
    r.submitTick = now;
    r.enqueueTick = now;
    r.stateNum = static_cast<std::uint64_t>(JobState::queued);
    if (tot.submitted == 0)
        firstSubmitTick = now;
    tot.submitted++;
    register_job_stats(r);

    if (!parts.could_ever_fit(spec.pw, spec.ph)) {
        shed_locked(r, "too_large", false);
        return;
    }
    if (static_cast<int>(queue.size()) >= cfg.queueDepth) {
        shed_locked(r, "queue_full", true);
        return;
    }
    queue.push_back(idx);
    try_admit_locked(now);
}

void
GangScheduler::shed_locked(JobRecord &r, const char *why,
                           bool queueFull)
{
    r.state = JobState::shed;
    r.stateNum = static_cast<std::uint64_t>(r.state);
    r.finishTick = machine.sim().now();
    lastFinishTick = std::max(lastFinishTick, r.finishTick);
    r.reason = strprintf("shed: %s (depth %zu, inflight %d)", why,
                         queue.size(), runningCount);
    if (queueFull)
        tot.shedQueueFull++;
    else
        tot.shedTooLarge++;
}

void
GangScheduler::schedule_stream(const std::vector<JobSpec> &stream)
{
    for (const JobSpec &spec : stream) {
        Tick at = std::max(us_to_ticks(spec.arrivalUs), dispatch_ticks);
        machine.sim().schedule_for(-1, at,
                                   [this, spec] { submit(spec); });
    }
}

void
GangScheduler::try_admit_locked(Tick at)
{
    auto it = queue.begin();
    while (it != queue.end() && runningCount < cfg.maxInflight) {
        JobRecord &r = jobRecs[*it];
        auto pl = parts.allocate(r.spec.pw, r.spec.ph);
        if (!pl) {
            ++it;
            continue;
        }
        it = queue.erase(it);
        launch_locked(r, std::move(*pl), std::max(at, r.enqueueTick));
    }
}

void
GangScheduler::launch_locked(JobRecord &r, Placement place, Tick now)
{
    attempts.push_back(std::make_unique<Attempt>());
    Attempt &a = *attempts.back();
    a.job = &r;
    a.gen = ++genCounter;
    a.place = std::move(place);
    a.group = std::make_unique<core::Group>(a.place.cells);
    a.barrierCtx = machine.snet().create_context(a.place.cells);
    a.startTick = now;
    a.launchedAt = machine.sim().now();
    liveAttempts[a.gen] = &a;

    r.attempts++;
    tot.attempts++;
    if (r.attempts == 1) {
        r.firstStartTick = now;
        tot.admitted++;
    }
    r.queuedTicks += now - r.enqueueTick;
    r.state = JobState::running;
    r.stateNum = static_cast<std::uint64_t>(r.state);

    double dl = deadline_us(r.spec.deadline);
    a.deadlineTick =
        dl > 0.0 ? now + dispatch_ticks + us_to_ticks(dl) : 0;

    a.run.spec = &r.spec;
    a.run.group = a.group.get();
    a.run.pw = a.place.w;
    a.run.ph = a.place.h;
    a.run.deadlineTick = a.deadlineTick;

    int n = static_cast<int>(a.place.cells.size());
    a.leftAt.assign(static_cast<std::size_t>(n), max_tick);
    a.ok.assign(static_cast<std::size_t>(n), 0);
    a.errors.resize(static_cast<std::size_t>(n));
    a.procs.resize(static_cast<std::size_t>(n));
    a.ctxs.resize(static_cast<std::size_t>(n));
    Attempt *ap = &a;
    for (int i = 0; i < n; ++i) {
        auto idx = static_cast<std::size_t>(i);
        CellId c = a.place.cells[idx];
        a.procs[idx] = std::make_unique<sim::Process>(
            machine.sim(),
            strprintf("job%da%lluc%d", r.spec.id,
                      static_cast<unsigned long long>(r.attempts), c),
            [this, ap, i, c](sim::Process &) {
                // CommError cannot cross the fiber boundary; catch it
                // here, exactly like core::run_spmd does. A failed
                // cell's own demise is not a job error.
                bool ok = false;
                std::string error;
                try {
                    ok = run_job(
                        *ap->ctxs[static_cast<std::size_t>(i)],
                        ap->run);
                } catch (const core::CommError &e) {
                    if (!machine.cell_failed(c))
                        error = e.what();
                }
                attempt_cell_done(*ap, i, ok, std::move(error));
            });
        a.ctxs[idx] = std::make_unique<core::Context>(
            machine, c, *a.procs[idx], a.barrierCtx, nullptr);
        a.procs[idx]->set_affinity(c);
        // The first resume crosses shards: stay clear of the
        // conservative lookahead window.
        a.procs[idx]->start(now + dispatch_ticks);
    }
    runningCount++;
}

void
GangScheduler::attempt_cell_done(Attempt &a, int rank, bool ok,
                                 std::string error)
{
    std::lock_guard<std::mutex> lock(mu);
    auto idx = static_cast<std::size_t>(rank);
    if (a.leftAt[idx] != max_tick)
        return; // its cell died first
    a.leftAt[idx] = machine.sim().now();
    a.ok[idx] = ok;
    a.errors[idx] = std::move(error);
    check_finish_locked(a);
}

void
GangScheduler::check_finish_locked(Attempt &a)
{
    if (a.leaving)
        return;
    Tick finishTick = 0;
    for (Tick t : a.leftAt) {
        if (t == max_tick)
            return;
        finishTick = std::max(finishTick, t);
    }
    // Every member has left; this call may run on any member's shard,
    // before or after other members' in host time. The finish goes to
    // the machine timeline at a tick and key that only depend on the
    // gang (cross-shard, so one lookahead after the finish tick).
    a.leaving = true;
    machine.sim().schedule_keyed(
        -1, finishTick + machine.lookahead(), sim::decision_key(a.gen),
        [this, gen = a.gen, finishTick] {
            finish_attempt(gen, finishTick);
        });
}

void
GangScheduler::finish_attempt(std::uint64_t gen, Tick now)
{
    std::lock_guard<std::mutex> lock(mu);
    sync_dead_locked();
    Attempt &a = *liveAttempts.at(gen);
    a.finished = true;
    runningCount--;
    liveAttempts.erase(gen);

    JobRecord &r = *a.job;
    Tick held = now >= a.startTick ? now - a.startTick : 0;
    r.serviceTicks += held;
    r.cellTicks += held * a.place.cells.size();
    // The makespan covers every attempt's cell-ticks, including those
    // of a job that later starves.
    lastFinishTick = std::max(lastFinishTick, now);

    bool deadMember = false;
    for (CellId c : a.place.cells)
        deadMember = deadMember || machine.failed_by(c, now);
    bool stopped = false;
    const std::string *firstError = nullptr;
    Tick firstErrorAt = max_tick;
    for (std::size_t i = 0; i < a.leftAt.size(); ++i) {
        stopped = stopped || !a.ok[i];
        if (!a.errors[i].empty() && a.leftAt[i] < firstErrorAt) {
            firstError = &a.errors[i];
            firstErrorAt = a.leftAt[i];
        }
    }
    bool deadlined = a.deadlineTick != 0 && now >= a.deadlineTick;

    const char *outcome = nullptr;
    if (deadMember || firstError) {
        // A failed gang can leave one-sided traffic and unconsumed
        // ring-buffer records on its cells: retire the partition
        // instead of leaking that state into the next tenant.
        parts.quarantine(a.place);
        tot.partitionsQuarantined++;
        if (deadMember)
            tot.attemptsKilled++;
        if (firstError)
            tot.attemptsErrored++;
        if (r.attempts <= static_cast<std::uint64_t>(
                              std::max(0, r.spec.retryBudget))) {
            r.retries++;
            tot.retried++;
            r.state = JobState::queued;
            r.stateNum = static_cast<std::uint64_t>(r.state);
            double backoffUs = retry_base_us;
            for (std::uint64_t i = 1;
                 i < r.retries && backoffUs < retry_cap_us; ++i)
                backoffUs *= retry_factor;
            backoffUs = std::min(backoffUs, retry_cap_us);
            Tick delay =
                std::max(us_to_ticks(backoffUs), dispatch_ticks);
            // jobRecs is a deque (stable addresses, no contiguous
            // arithmetic): recover the index by scan.
            std::size_t jobIdx = 0;
            for (std::size_t i = 0; i < jobRecs.size(); ++i)
                if (&jobRecs[i] == &r)
                    jobIdx = i;
            machine.sim().schedule_for(
                -1, now + delay, [this, jobIdx] { requeue(jobIdx); });
            outcome = "retrying";
        } else {
            r.state = JobState::failed;
            r.stateNum = static_cast<std::uint64_t>(r.state);
            r.finishTick = now;
            std::string err = firstError
                                  ? *firstError
                                  : std::string("gang lost a cell");
            if (err.size() > 400)
                err.resize(400);
            r.reason = strprintf(
                "retry budget exhausted after %llu attempts: %s",
                static_cast<unsigned long long>(r.attempts),
                err.c_str());
            tot.failedTerminal++;
            outcome = "failed";
        }
    } else if (deadlined || stopped) {
        parts.release(a.place);
        r.state = JobState::deadline_cancelled;
        r.stateNum = static_cast<std::uint64_t>(r.state);
        r.finishTick = now;
        r.deadlineHits++;
        r.reason = strprintf("deadline exceeded (%s, %.0f us)",
                             deadline_name(r.spec.deadline),
                             deadline_us(r.spec.deadline));
        tot.deadlineCancelled++;
        outcome = "deadline";
    } else {
        parts.release(a.place);
        r.state = JobState::completed;
        r.stateNum = static_cast<std::uint64_t>(r.state);
        r.finishTick = now;
        tot.completed++;
        outcome = "completed";
    }
    if (machine.spans().full())
        machine.spans().span(
            a.place.cells.front(), "serve",
            strprintf("%s:%s", kind_name(r.spec.kind), outcome),
            a.startTick, now,
            {"job", static_cast<std::uint64_t>(r.spec.id)},
            {"attempt", r.attempts});

    try_admit_locked(now);
    reap_locked();
}

void
GangScheduler::requeue(std::size_t jobIdx)
{
    std::lock_guard<std::mutex> lock(mu);
    JobRecord &r = jobRecs[jobIdx];
    if (r.state != JobState::queued)
        return;
    sync_dead_locked();
    r.enqueueTick = machine.sim().now();
    // Retries bypass depth shedding: the job was admitted once and
    // holds a retry budget; dropping it here would turn one cell
    // failure into silent data loss for an unrelated reason.
    queue.push_back(jobIdx);
    tot.requeued++;
    try_admit_locked(r.enqueueTick);
}

void
GangScheduler::on_kill(CellId cell)
{
    // On the dead cell's timeline at its kill tick: the cell leaves
    // every gang it is still in. Gangs launched within the last
    // lookahead are skipped — whether this shard sees them yet is a
    // matter of host timing — and need not be seen: their members
    // start at least a lookahead after the kill, so the dead one
    // leaves through its own fiber, which fails at once.
    std::lock_guard<std::mutex> lock(mu);
    Tick now = machine.sim().now();
    for (auto &[gen, ap] : liveAttempts) {
        (void)gen;
        if (ap->leaving || ap->launchedAt + machine.lookahead() > now)
            continue;
        int rank = ap->group->rank_of(cell);
        if (rank < 0)
            continue;
        Tick &left = ap->leftAt[static_cast<std::size_t>(rank)];
        if (left != max_tick)
            continue;
        left = now;
        check_finish_locked(*ap);
    }
}

void
GangScheduler::sync_dead_locked()
{
    if (!machine.any_failed())
        return;
    for (CellId c = 0; c < machine.size(); ++c)
        if (machine.cell_failed(c))
            parts.mark_dead(c);
}

void
GangScheduler::reap_locked()
{
    // Free finished attempts whose fibers have all returned (a fiber
    // parked forever — e.g. a kill victim with the watchdog off —
    // keeps its attempt alive: Condition keeps raw Process
    // pointers). Fibers carry 256 KB stacks; a long job stream must
    // not accumulate them.
    std::erase_if(attempts, [](const std::unique_ptr<Attempt> &a) {
        if (!a->finished)
            return false;
        for (const auto &p : a->procs)
            if (!p->finished())
                return false;
        return true;
    });
}

void
GangScheduler::finalize()
{
    std::lock_guard<std::mutex> lock(mu);
    sync_dead_locked();
    Tick now = machine.sim().now();
    for (std::size_t idx : queue) {
        JobRecord &r = jobRecs[idx];
        if (r.state != JobState::queued)
            continue;
        r.state = JobState::starved;
        r.stateNum = static_cast<std::uint64_t>(r.state);
        r.finishTick = now;
        r.queuedTicks += now - r.enqueueTick;
        r.reason = strprintf(
            "starved: no feasible partition (%d free, %d "
            "quarantined, %d dead cells)",
            parts.free_cells(), parts.quarantined_cells(),
            parts.dead_cells());
        tot.starved++;
        // Deliberately not folded into lastFinishTick: a starved job
        // did no work, and the drain point (the machine's last event)
        // says nothing about the fleet's work — it would only
        // distort the makespan.
    }
    queue.clear();
    for (auto &[gen, ap] : liveAttempts) {
        (void)gen;
        JobRecord &r = *ap->job;
        warn("serve: attempt %llu of job %d never unwound "
             "(deadlocked gang)",
             static_cast<unsigned long long>(ap->gen), r.spec.id);
        if (!r.terminal()) {
            r.state = JobState::failed;
            r.stateNum = static_cast<std::uint64_t>(r.state);
            r.finishTick = now;
            r.reason = "deadlock: gang never unwound";
            tot.failedTerminal++;
        }
    }
}

bool
GangScheduler::all_terminal() const
{
    std::lock_guard<std::mutex> lock(mu);
    for (const JobRecord &r : jobRecs)
        if (!r.terminal())
            return false;
    return true;
}

double
GangScheduler::tenant_fairness() const
{
    std::map<int, double> perTenant;
    for (const JobRecord &r : jobRecs)
        if (r.state == JobState::completed)
            perTenant[r.spec.tenant] +=
                static_cast<double>(r.cellTicks);
    if (perTenant.empty())
        return 0.0;
    double sum = 0.0, sumSq = 0.0;
    for (const auto &[t, x] : perTenant) {
        (void)t;
        sum += x;
        sumSq += x * x;
    }
    if (sumSq <= 0.0)
        return 0.0;
    double n = static_cast<double>(perTenant.size());
    return (sum * sum) / (n * sumSq);
}

CellId
GangScheduler::pick_busy_cell(std::uint64_t salt)
{
    std::lock_guard<std::mutex> lock(mu);
    sync_dead_locked();
    std::vector<CellId> busy = parts.busy_list();
    if (busy.empty())
        return -1;
    return busy[static_cast<std::size_t>(salt % busy.size())];
}

double
GangScheduler::utilization() const
{
    if (lastFinishTick <= firstSubmitTick)
        return 0.0;
    double span = static_cast<double>(lastFinishTick -
                                      firstSubmitTick) *
                  machine.size();
    double used = 0.0;
    for (const JobRecord &r : jobRecs)
        used += static_cast<double>(r.cellTicks);
    return span > 0.0 ? used / span : 0.0;
}

std::string
GangScheduler::report() const
{
    std::vector<double> lat;
    for (const JobRecord &r : jobRecs)
        if (r.state == JobState::completed)
            lat.push_back(ticks_to_us(r.finishTick - r.submitTick));
    std::sort(lat.begin(), lat.end());
    double mean = 0.0;
    for (double v : lat)
        mean += v;
    mean = lat.empty() ? 0.0 : mean / static_cast<double>(lat.size());
    double p95 =
        lat.empty()
            ? 0.0
            : lat[std::min(lat.size() - 1,
                           static_cast<std::size_t>(
                               static_cast<double>(lat.size()) *
                               0.95))];
    double makespanUs =
        lastFinishTick > firstSubmitTick
            ? ticks_to_us(lastFinishTick - firstSubmitTick)
            : 0.0;
    double jobsPerSec = makespanUs > 0.0
                            ? static_cast<double>(tot.completed) *
                                  1e6 / makespanUs
                            : 0.0;

    std::string out;
    out += strprintf(
        "serve: %llu jobs — %llu completed, %llu failed, %llu shed "
        "(%llu queue_full, %llu too_large), %llu deadline-cancelled, "
        "%llu starved\n",
        static_cast<unsigned long long>(tot.submitted),
        static_cast<unsigned long long>(tot.completed),
        static_cast<unsigned long long>(tot.failedTerminal),
        static_cast<unsigned long long>(tot.shedQueueFull +
                                        tot.shedTooLarge),
        static_cast<unsigned long long>(tot.shedQueueFull),
        static_cast<unsigned long long>(tot.shedTooLarge),
        static_cast<unsigned long long>(tot.deadlineCancelled),
        static_cast<unsigned long long>(tot.starved));
    out += strprintf(
        "serve: %llu attempts (%llu killed, %llu errored), %llu "
        "retries, %llu partitions quarantined\n",
        static_cast<unsigned long long>(tot.attempts),
        static_cast<unsigned long long>(tot.attemptsKilled),
        static_cast<unsigned long long>(tot.attemptsErrored),
        static_cast<unsigned long long>(tot.retried),
        static_cast<unsigned long long>(tot.partitionsQuarantined));
    out += strprintf(
        "serve: cells %d free / %d busy / %d quarantined / %d dead\n",
        parts.free_cells(), parts.busy_cells(),
        parts.quarantined_cells(), parts.dead_cells());
    out += strprintf(
        "serve: makespan %.0f us, %.1f jobs/s, utilization %.1f%%, "
        "fairness %.3f\n",
        makespanUs, jobsPerSec, utilization() * 100.0,
        tenant_fairness());
    out += strprintf(
        "serve: completed latency mean %.0f us, p95 %.0f us\n", mean,
        p95);
    return out;
}

} // namespace ap::serve
