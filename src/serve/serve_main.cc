/**
 * @file
 * ap_serve: the multi-tenant job-service driver.
 *
 * Treats the machine as a cluster: generates a deterministic
 * open-loop stream of mixed SPMD jobs (serve/traffic.cc), gang-
 * schedules them onto rectangular torus partitions with admission
 * control and backpressure (serve/scheduler.hh), and reports
 * throughput, latency, utilization and per-tenant fairness.
 *
 * `--drill=kill-cell` runs the fault drill: a seeded plan fail-stops
 * one cell mid-fleet; affected jobs are rescheduled onto fresh
 * partitions (their old partitions quarantined) until their retry
 * budgets are exhausted, and the run fails unless every job reached
 * a terminal state and the reschedule path actually fired.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "hw/machine.hh"
#include "obs/cli.hh"
#include "serve/job.hh"
#include "serve/scheduler.hh"
#include "sim/fault.hh"

using namespace ap;

namespace
{

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --cells=N          machine size (default 16)\n"
        "  --jobs=N           jobs in the open-loop stream "
        "(default 32)\n"
        "  --seed=N           traffic + fault seed (default 1)\n"
        "  --arrival-us=X     mean exponential interarrival "
        "(default 250)\n"
        "  --tenants=N        tenant count (default 4)\n"
        "  --queue-depth=N    admission queue bound (default 64)\n"
        "  --max-inflight=N   concurrent partitions (default 8)\n"
        "  --watchdog-us=X    flag-wait watchdog (default 3000;\n"
        "                     the unwind path for killed gangs)\n"
        "  --drill=kill-cell  fault drill: kill one cell mid-fleet,\n"
        "                     require reschedules + terminal states\n"
        "  --kill=CELL@US     explicit fail-stop (repeatable)\n"
        "  --threads=N        event-kernel worker threads (the run\n"
        "                     is the same at every N)\n"
        "  --reliable         reliable-delivery layer on\n"
        "  --jobs-table       print the per-job outcome table\n"
        "  --report           print the machine report too\n"
        "  --stats-out=FILE   write the stats registry as JSON\n"
        "  --trace-out=FILE   record full spans, write them as a\n"
        "                     Chrome trace_event timeline\n"
        "  --timeline-out=FILE  write the perf-timeline JSON\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    int cells = 16;
    int threads = 1;
    bool reliable = false;
    bool jobsTable = false;
    bool machineReport = false;
    bool drill = false;
    std::uint64_t seed = 1;
    double watchdogUs = 3000.0;
    serve::TrafficConfig traffic;
    serve::ServeConfig scfg;
    std::vector<const char *> kills;
    obs::ObsOptions obsOpt;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (obs::consume_obs_arg(a, obsOpt)) {
            continue;
        } else if (std::strncmp(a, "--cells=", 8) == 0) {
            cells = std::atoi(a + 8);
        } else if (std::strncmp(a, "--jobs=", 7) == 0) {
            traffic.jobs = std::atoi(a + 7);
        } else if (std::strncmp(a, "--seed=", 7) == 0) {
            seed = std::strtoull(a + 7, nullptr, 10);
        } else if (std::strncmp(a, "--arrival-us=", 13) == 0) {
            traffic.meanArrivalUs = std::atof(a + 13);
        } else if (std::strncmp(a, "--tenants=", 10) == 0) {
            traffic.tenants = std::atoi(a + 10);
        } else if (std::strncmp(a, "--queue-depth=", 14) == 0) {
            scfg.queueDepth = std::atoi(a + 14);
        } else if (std::strncmp(a, "--max-inflight=", 15) == 0) {
            scfg.maxInflight = std::atoi(a + 15);
        } else if (std::strncmp(a, "--watchdog-us=", 14) == 0) {
            watchdogUs = std::atof(a + 14);
        } else if (std::strncmp(a, "--drill=", 8) == 0) {
            if (std::strcmp(a + 8, "kill-cell") != 0)
                fatal("unknown drill '%s' (only kill-cell)", a + 8);
            drill = true;
        } else if (std::strncmp(a, "--kill=", 7) == 0) {
            kills.push_back(a + 7);
        } else if (std::strncmp(a, "--threads=", 10) == 0) {
            threads = std::atoi(a + 10);
        } else if (std::strcmp(a, "--reliable") == 0) {
            reliable = true;
        } else if (std::strcmp(a, "--jobs-table") == 0) {
            jobsTable = true;
        } else if (std::strcmp(a, "--report") == 0) {
            machineReport = true;
        } else if (std::strcmp(a, "-h") == 0 ||
                   std::strcmp(a, "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown argument '%s'", a);
        }
    }

    traffic.seed = seed;

    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.threads = threads;
    cfg.reliableNet = reliable;
    // The watchdog is the serving layer's unwind path: a gang member
    // parked on a dead peer's flag must come back as a CommError so
    // the job can be rescheduled, not hang the fleet.
    cfg.retry.watchdogUs = watchdogUs;

    for (const char *k : kills)
        cfg.faults.kills.push_back(
            sim::FaultPlan::CellKill::parse(k, cells));
    if (!obsOpt.traceOut.empty())
        cfg.spanMode = obs::SpanMode::full;

    hw::Machine machine(cfg);
    if (obsOpt.timeline_enabled())
        machine.enable_timeline(obsOpt.timelinePeriodUs);

    traffic.maxW = machine.topology().width();
    traffic.maxH = machine.topology().height();

    serve::GangScheduler sched(machine, scfg);
    std::vector<serve::JobSpec> stream =
        serve::generate_stream(traffic);
    sched.schedule_stream(stream);

    if (drill) {
        // Seeded and deterministic, but aimed, not blind: once the
        // fleet is warm (about a third into the expected stream) the
        // drill kills a seed-chosen cell that a running gang actually
        // holds, retrying shortly if that instant happens to be idle
        // — a fixed cell-and-time pick can miss every gang and prove
        // nothing.
        double at = traffic.firstArrivalUs +
                    traffic.meanArrivalUs *
                        static_cast<double>(traffic.jobs) * 0.35;
        auto triesLeft = std::make_shared<int>(400);
        auto fire = std::make_shared<std::function<void()>>();
        // The retry event holds a weak reference to the closure —
        // capturing `fire` itself would be a shared_ptr cycle (the
        // function owning itself) that never frees. The strong ref
        // below outlives run_to_completion(), so lock() always
        // succeeds while events can still fire.
        std::weak_ptr<std::function<void()>> weakFire = fire;
        *fire = [&machine, &sched, seed, triesLeft, weakFire] {
            CellId victim = sched.pick_busy_cell(seed);
            if (victim < 0) {
                auto f = weakFire.lock();
                if (f && --*triesLeft > 0)
                    machine.sim().schedule_after_for(
                        -1, us_to_ticks(100.0), *f);
                return;
            }
            std::printf("drill: kill-cell %d at t=%.0f us "
                        "(seed %llu)\n",
                        victim, ticks_to_us(machine.sim().now()),
                        static_cast<unsigned long long>(seed));
            machine.kill_cell(victim, machine.sim().now() +
                                          us_to_ticks(5.0));
        };
        machine.sim().schedule_for(-1, us_to_ticks(at), *fire);
    }

    machine.run_to_completion();
    sched.finalize();

    std::fputs(sched.report().c_str(), stdout);

    if (jobsTable) {
        std::printf("%-5s %-8s %-7s %-5s %-9s %-19s %s\n", "job",
                    "kind", "shape", "tries", "tenant",
                    "state", "reason");
        for (const serve::JobRecord &r : sched.jobs())
            std::printf("%-5d %-8s %dx%d   %-5llu t%-8d %-19s %s\n",
                        r.spec.id, serve::kind_name(r.spec.kind),
                        r.spec.pw, r.spec.ph,
                        static_cast<unsigned long long>(r.attempts),
                        r.spec.tenant, serve::state_name(r.state),
                        r.reason.c_str());
    }
    if (machineReport)
        std::fputs(machine.report().c_str(), stdout);

    if (!obsOpt.statsOut.empty() &&
        !machine.dump_stats(obsOpt.statsOut))
        fatal("cannot write %s", obsOpt.statsOut.c_str());
    if (!obsOpt.traceOut.empty() &&
        !machine.write_trace(obsOpt.traceOut))
        fatal("cannot write %s", obsOpt.traceOut.c_str());
    if (!obsOpt.timelineOut.empty() &&
        !machine.write_timeline(obsOpt.timelineOut))
        fatal("cannot write %s", obsOpt.timelineOut.c_str());
    if (!obsOpt.timelineCsv.empty() &&
        !machine.write_timeline_csv(obsOpt.timelineCsv))
        fatal("cannot write %s", obsOpt.timelineCsv.c_str());

    bool ok = sched.all_terminal();
    if (drill) {
        const serve::ServeTotals &t = sched.totals();
        bool drillOk = ok && t.attemptsKilled > 0 &&
                       t.partitionsQuarantined > 0 &&
                       (t.retried > 0 || t.failedTerminal > 0);
        std::printf("drill: %s (killed attempts %llu, retries %llu, "
                    "quarantined partitions %llu, all terminal %s)\n",
                    drillOk ? "OK" : "FAIL",
                    static_cast<unsigned long long>(t.attemptsKilled),
                    static_cast<unsigned long long>(t.retried),
                    static_cast<unsigned long long>(
                        t.partitionsQuarantined),
                    ok ? "yes" : "no");
        return drillOk ? 0 : 1;
    }
    if (!ok) {
        std::printf("serve: FAIL — some jobs never reached a "
                    "terminal state\n");
        return 1;
    }
    return 0;
}
