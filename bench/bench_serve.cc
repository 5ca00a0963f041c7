/**
 * @file
 * Serving-layer bench: open-loop job streams through the gang
 * scheduler under three scenarios —
 *
 *   light  — arrivals well under capacity (latency floor)
 *   heavy  — arrivals pushing the admission queue (backpressure)
 *   drill  — the heavy stream plus a seeded mid-fleet cell kill
 *            (failure-driven rescheduling on the hot path)
 *
 * Per scenario: completion/shed/retry counts, simulated makespan,
 * completed-job latency (mean, p95), throughput, utilization and
 * tenant fairness, plus host wall time. All simulated quantities are
 * deterministic for a given seed, so the CI gate can hold them to
 * tight tolerances.
 *
 *   bench_serve [--quick] [--json-out[=FILE]]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "obs/cli.hh"
#include "serve/job.hh"
#include "serve/scheduler.hh"

using namespace ap;

namespace
{

struct Scenario
{
    const char *name;
    int cells;
    int jobs;
    double arrivalUs;
    std::uint64_t seed;
    bool kill;
};

struct Outcome
{
    serve::ServeTotals tot;
    double makespanUs = 0.0;
    double meanLatencyUs = 0.0;
    double p95LatencyUs = 0.0;
    double jobsPerSec = 0.0;
    double utilization = 0.0;
    double fairness = 0.0;
    double wallS = 0.0;
};

Outcome
run_scenario(const Scenario &sc)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(sc.cells);
    // The watchdog is the unwind path for killed gangs: without it a
    // doomed member parked on a dead peer's flag would stall its
    // job's reschedule until the deadline instead of the timeout.
    cfg.retry.watchdogUs = 3000.0;
    hw::Machine m(cfg);

    serve::TrafficConfig traffic;
    traffic.jobs = sc.jobs;
    traffic.seed = sc.seed;
    traffic.meanArrivalUs = sc.arrivalUs;
    traffic.maxW = m.topology().width();
    traffic.maxH = m.topology().height();

    serve::GangScheduler sched(m, serve::ServeConfig{});
    sched.schedule_stream(serve::generate_stream(traffic));

    if (sc.kill) {
        // Aim at a cell a running gang holds once the fleet is warm,
        // like the ap_serve --drill=kill-cell path.
        double at = traffic.firstArrivalUs +
                    sc.arrivalUs * static_cast<double>(sc.jobs) * 0.35;
        m.sim().schedule_for(-1, us_to_ticks(at), [&m, &sched, &sc] {
            CellId victim = sched.pick_busy_cell(sc.seed);
            if (victim < 0)
                return;
            m.kill_cell(victim, m.sim().now() + us_to_ticks(5.0));
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    m.run_to_completion();
    auto t1 = std::chrono::steady_clock::now();
    sched.finalize();

    Outcome out;
    out.tot = sched.totals();
    out.wallS = std::chrono::duration<double>(t1 - t0).count();
    out.utilization = sched.utilization();
    out.fairness = sched.tenant_fairness();

    std::vector<double> lat;
    Tick firstSubmit = 0, lastFinish = 0;
    bool haveFirst = false;
    for (const serve::JobRecord &r : sched.jobs()) {
        if (!haveFirst || r.submitTick < firstSubmit) {
            firstSubmit = r.submitTick;
            haveFirst = true;
        }
        if (r.state == serve::JobState::completed) {
            lat.push_back(
                ticks_to_us(r.finishTick - r.submitTick));
            lastFinish = std::max(lastFinish, r.finishTick);
        }
    }
    std::sort(lat.begin(), lat.end());
    for (double v : lat)
        out.meanLatencyUs += v;
    if (!lat.empty()) {
        out.meanLatencyUs /= static_cast<double>(lat.size());
        out.p95LatencyUs =
            lat[std::min(lat.size() - 1,
                         static_cast<std::size_t>(
                             static_cast<double>(lat.size()) * 0.95))];
    }
    if (lastFinish > firstSubmit)
        out.makespanUs = ticks_to_us(lastFinish - firstSubmit);
    if (out.makespanUs > 0.0)
        out.jobsPerSec = static_cast<double>(out.tot.completed) *
                         1e6 / out.makespanUs;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("bench_serve");
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (report.consume_arg(argv[i]))
            continue;
        if (std::string(argv[i]) == "--quick")
            quick = true;
        else
            fatal("unknown argument '%s' (only --quick, "
                  "--json-out[=FILE])",
                  argv[i]);
    }

    const int scale = quick ? 1 : 2;
    const std::vector<Scenario> scenarios = {
        {"light", 16, 16 * scale, 400.0, 11, false},
        {"heavy", 16, 32 * scale, 120.0, 12, false},
        {"drill", 16, 32 * scale, 250.0, 13, true},
    };

    std::printf("Serving-layer bench: open-loop gang scheduling on a "
                "16-cell machine%s\n\n",
                quick ? " (quick)" : "");

    Table t({"Scenario", "Jobs", "Done", "Shed", "Fail", "Starve",
             "Retry", "Makespan us", "Mean lat us", "p95 lat us",
             "Jobs/s", "Util %", "Fairness", "Wall s"});

    for (const Scenario &sc : scenarios) {
        Outcome o = run_scenario(sc);
        t.add_row({sc.name, strprintf("%d", sc.jobs),
                   strprintf("%llu",
                             static_cast<unsigned long long>(
                                 o.tot.completed)),
                   strprintf("%llu",
                             static_cast<unsigned long long>(
                                 o.tot.shedQueueFull +
                                 o.tot.shedTooLarge)),
                   strprintf("%llu",
                             static_cast<unsigned long long>(
                                 o.tot.failedTerminal)),
                   strprintf("%llu",
                             static_cast<unsigned long long>(
                                 o.tot.starved)),
                   strprintf("%llu",
                             static_cast<unsigned long long>(
                                 o.tot.retried)),
                   strprintf("%.0f", o.makespanUs),
                   strprintf("%.0f", o.meanLatencyUs),
                   strprintf("%.0f", o.p95LatencyUs),
                   strprintf("%.1f", o.jobsPerSec),
                   strprintf("%.1f", o.utilization * 100.0),
                   strprintf("%.3f", o.fairness),
                   strprintf("%.3f", o.wallS)});

        std::string k = sc.name;
        report.set(k + ".jobs",
                   static_cast<std::uint64_t>(sc.jobs));
        report.set(k + ".completed", o.tot.completed);
        report.set(k + ".shed",
                   o.tot.shedQueueFull + o.tot.shedTooLarge);
        report.set(k + ".failed", o.tot.failedTerminal);
        report.set(k + ".starved", o.tot.starved);
        report.set(k + ".deadline_cancelled",
                   o.tot.deadlineCancelled);
        report.set(k + ".retries", o.tot.retried);
        report.set(k + ".attempts_killed", o.tot.attemptsKilled);
        report.set(k + ".partitions_quarantined",
                   o.tot.partitionsQuarantined);
        report.set(k + ".makespan_us", o.makespanUs);
        report.set(k + ".mean_latency_us", o.meanLatencyUs);
        report.set(k + ".p95_latency_us", o.p95LatencyUs);
        report.set(k + ".jobs_per_sec", o.jobsPerSec);
        report.set(k + ".util_pct", o.utilization * 100.0);
        report.set(k + ".fairness_x1000", o.fairness * 1000.0);
        report.set(k + ".wall_s", o.wallS);
    }

    t.print();
    if (!report.write())
        fatal("cannot write %s", report.path().c_str());
    return 0;
}
