/**
 * @file
 * Fault-plan stress driver (CI smoke + local soak).
 *
 * Runs harness property iterations — random op program vs zero-fault
 * golden run — with incrementing seeds until a wall-clock budget
 * expires or an iteration fails. A failure shrinks the op program to
 * a minimal reproducer and prints it with the seed; rerunning with
 * that --seed replays the identical faulty run.
 *
 *   stress_put_get --seed=1 --plan=chaos --duration-s=60
 *   stress_put_get --seed=42 --plan=drop --iters=1   # replay one seed
 *   stress_put_get --differential --plan=lossy --reliable --iters=2
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "harness.hh"
#include "obs/cli.hh"
#include "obs/stats_registry.hh"

using namespace ap;
using namespace ap::harness;

namespace
{

struct Options
{
    std::uint64_t seed = 1;
    std::string plan = "chaos";
    int cells = 5;
    int ops = 24;
    double durationS = 10.0;
    long iters = -1; // unlimited within the duration budget
    /** Stack the reliable-delivery layer under the MSC+. */
    bool reliable = false;
    /** Worker threads of the event kernel (1 = one shard). */
    int threads = 1;
    /** Differential mode: each iteration runs threads=1 against the
     *  parallel kernel at --threads (default: 2, 4 and 8) and requires
     *  identical tick history, memory images and stats JSON (instead
     *  of the golden check). */
    bool differential = false;
    /** Print each iteration's stats-registry delta (top rows). */
    bool iterStats = false;
    /** Telemetry of the faulty run of each iteration (last wins). */
    obs::ObsOptions obs;
};

sim::FaultPlan
plan_by_name(const std::string &name, std::uint64_t seed)
{
    if (name == "drop")
        return sim::FaultPlan::drops(seed);
    if (name == "dup")
        return sim::FaultPlan::duplicates(seed);
    if (name == "reorder")
        return sim::FaultPlan::reorders(seed);
    if (name == "overflow")
        return sim::FaultPlan::overflows(seed);
    if (name == "pagefault")
        return sim::FaultPlan::pageFaults(seed);
    if (name == "jitter")
        return sim::FaultPlan::jitter(seed);
    if (name == "chaos")
        return sim::FaultPlan::chaos(seed);
    if (name == "lossy")
        return sim::FaultPlan::lossy(seed);
    std::fprintf(stderr,
                 "unknown plan '%s' (drop|dup|reorder|overflow|"
                 "pagefault|jitter|chaos|lossy)\n",
                 name.c_str());
    std::exit(2);
}

bool
lossless(const std::string &name)
{
    return name == "overflow" || name == "jitter";
}

/**
 * Whether the op generator may use the full (unverified) vocabulary:
 * always under lossless plans, and under pure transport-loss plans
 * when the reliable layer recovers the losses below the MSC+.
 * Page-fault and chaos plans corrupt above the transport, so they
 * keep the verified vocabulary even with --reliable.
 */
bool
full_vocabulary(const Options &opt)
{
    if (lossless(opt.plan))
        return true;
    return opt.reliable &&
           (opt.plan == "drop" || opt.plan == "dup" ||
            opt.plan == "reorder" || opt.plan == "lossy");
}

Options
parse(int argc, char **argv, obs::BenchReport &report)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (report.consume_arg(a))
            ;
        else if (std::strncmp(a, "--seed=", 7) == 0)
            opt.seed = std::strtoull(a + 7, nullptr, 10);
        else if (std::strncmp(a, "--plan=", 7) == 0)
            opt.plan = a + 7;
        else if (std::strncmp(a, "--cells=", 8) == 0)
            opt.cells = std::atoi(a + 8);
        else if (std::strncmp(a, "--ops=", 6) == 0)
            opt.ops = std::atoi(a + 6);
        else if (std::strncmp(a, "--duration-s=", 13) == 0)
            opt.durationS = std::atof(a + 13);
        else if (std::strncmp(a, "--iters=", 8) == 0)
            opt.iters = std::atol(a + 8);
        else if (std::strcmp(a, "--reliable") == 0)
            opt.reliable = true;
        else if (std::strncmp(a, "--threads=", 10) == 0)
            opt.threads = std::atoi(a + 10);
        else if (std::strcmp(a, "--differential") == 0)
            opt.differential = true;
        else if (std::strcmp(a, "--iter-stats") == 0)
            opt.iterStats = true;
        else if (obs::consume_obs_arg(a, opt.obs))
            ;
        else {
            std::fprintf(stderr, "unknown argument '%s'\n", a);
            std::fprintf(
                stderr,
                "usage: stress_put_get [--seed=N] [--plan=NAME] "
                "[--cells=N] [--ops=N] [--duration-s=S] "
                "[--iters=N] [--reliable] [--threads=N] "
                "[--differential] [--iter-stats] [--json-out=F] "
                "[--stats-out=F] [--trace-out=F] [--timeline-out=F] "
                "[--timeline-period-us=US]\n");
            std::exit(2);
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("stress_put_get");
    Options opt = parse(argc, argv, report);
    hw::RetryPolicy retry = harness_retry();
    if (opt.reliable) {
        // The protocol layer absorbs transport loss; the watchdog
        // turns any residual hang into a typed, shrinkable failure.
        retry.watchdogUs = 200000.0;
    }
    auto start = std::chrono::steady_clock::now();
    auto elapsed_s = [&]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    long done = 0;
    std::uint64_t injected = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t events = 0;
    for (std::uint64_t seed = opt.seed;; ++seed) {
        if (opt.iters >= 0 && done >= opt.iters)
            break;
        if (opt.iters < 0 && elapsed_s() >= opt.durationS)
            break;

        sim::FaultPlan plan = plan_by_name(opt.plan, seed);
        OpProgram prog = make_program(seed, opt.cells, opt.ops,
                                      full_vocabulary(opt));
        auto check = [&](const OpProgram &p) {
            if (opt.differential)
                return check_threads_differential(
                    p, plan, retry, opt.reliable,
                    opt.threads > 1 ? std::vector<int>{opt.threads}
                                    : std::vector<int>{2, 4, 8});
            return check_against_golden(p, plan, retry,
                                        opt.reliable);
        };
        std::string diag = check(prog);
        if (!diag.empty()) {
            std::fprintf(stderr,
                         "FAILURE at seed %llu (plan %s): %s\n",
                         static_cast<unsigned long long>(seed),
                         opt.plan.c_str(), diag.c_str());
            OpProgram minimal = shrink(prog, check);
            std::fprintf(stderr, "minimal reproducer:\n%s",
                         describe(minimal).c_str());
            std::fprintf(stderr,
                         "replay: stress_put_get --seed=%llu "
                         "--plan=%s --cells=%d --ops=%d --iters=1%s"
                         "%s%s\n",
                         static_cast<unsigned long long>(seed),
                         opt.plan.c_str(), opt.cells, opt.ops,
                         opt.reliable ? " --reliable" : "",
                         opt.differential ? " --differential" : "",
                         opt.threads > 1
                             ? strprintf(" --threads=%d", opt.threads)
                                   .c_str()
                             : "");
            return 1;
        }
        // Count injected faults of the faulty run for the summary;
        // this replay also carries the telemetry outputs, so a
        // pinned --seed --iters=1 invocation yields its timeline.
        // With --threads the replay runs the parallel kernel.
        RunOutcome o =
            run_program(prog, plan, retry, opt.obs, opt.reliable,
                        opt.threads, /*collectStats=*/opt.iterStats);
        injected += o.faults.total() + o.faults.jitteredEvents;
        retransmits += o.rnetRetransmits;
        events += o.executedEvents;
        if (opt.iterStats)
            std::printf(
                "-- iteration %ld (seed %llu) stats delta --\n%s",
                done, static_cast<unsigned long long>(seed),
                obs::StatsRegistry::delta_text(o.statsDelta, 12)
                    .c_str());
        ++done;
    }

    // Host-throughput report for the perf gate. events_per_sec only
    // counts the replay run of each iteration (one of the three runs
    // an iteration executes), so it understates the kernel rate by a
    // constant factor — consistent across baseline and candidate,
    // which is all the ratio gate needs.
    double wall = elapsed_s();
    report.set("speed.wall_s", wall);
    report.set("speed.iters_per_sec",
               static_cast<double>(done) / wall);
    report.set("speed.events_per_sec",
               static_cast<double>(events) / wall);
    report.set("count.iterations",
               static_cast<std::uint64_t>(done));
    report.set("count.faults_injected", injected);
    report.set("count.retransmits", retransmits);
    report.write();

    std::printf("stress ok: %ld iterations (plan %s%s%s, first seed "
                "%llu, %.1f s, %llu faults/jitters injected, "
                "%llu retransmits)\n",
                done, opt.plan.c_str(),
                opt.reliable ? " +reliable" : "",
                opt.differential ? " +differential" : "",
                static_cast<unsigned long long>(opt.seed),
                elapsed_s(),
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(retransmits));
    return 0;
}
