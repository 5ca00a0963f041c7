/**
 * @file
 * job_stream: an open-loop job stream, in model time, served by the
 * gang scheduler on a 64-cell (8x8) machine with the sequential kernel
 * and the watchdog on.
 *
 * The benchmark generates the stream from the seed: all six JobKinds,
 * shapes up to 4x4, all three deadline classes, and exponential
 * arrivals. Arrivals are scheduled events, so the generator is never
 * late, and latency counts from the scheduled arrival.
 *
 * This reaches admission, partitioning and many small partition-scoped
 * gangs, a path no other workload takes.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "harness.hh"
#include "hw/machine.hh"
#include "machine_probe.hh"
#include "serve/scheduler.hh"

using namespace ap;

namespace pb
{
namespace
{

constexpr int stream_cells = 64;
/** Mean inter-arrival gap in model microseconds. */
constexpr double mean_gap_us = 250.0;
/** The stream's latency limit, in model microseconds. */
constexpr double slo_limit_us = 20000.0;

/**
 * Every pair of the six job kinds and the nine shapes {1,2,4}x{1,2,4},
 * twice: 108 jobs whose sizes, iteration counts, payloads and deadline
 * classes are fixed, so each seed's stream does the same total work.
 * The seed orders the jobs and draws their tenants, traffic seeds and
 * exponential arrival gaps.
 */
std::vector<serve::JobSpec>
make_stream(std::uint64_t seed)
{
    const int sides[] = {1, 2, 4};
    std::vector<serve::JobSpec> out;
    int slot = 0;
    for (int copy = 0; copy < 2; ++copy)
        for (int k = 0; k < 6; ++k)
            for (int w : sides)
                for (int h : sides) {
                    serve::JobSpec j;
                    j.kind = static_cast<serve::JobKind>(k);
                    j.pw = w;
                    j.ph = h;
                    j.iters = 2 + slot % 5;
                    j.bytes = 256u << (slot % 5);
                    j.computeUs = 20.0 + 10.0 * (slot % 7);
                    // Urgent jobs are small, so none misses its 8 ms
                    // deadline and every job of the stream completes.
                    if (slot % 3 == 0 && w * h <= 4) {
                        j.deadline = serve::DeadlineClass::urgent;
                        j.iters = std::min(j.iters, 3);
                    } else if (slot % 3 == 1) {
                        j.deadline = serve::DeadlineClass::batch;
                    } else {
                        j.deadline = serve::DeadlineClass::normal;
                    }
                    out.push_back(j);
                    ++slot;
                }
    Rng rng(seed);
    for (std::size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[static_cast<std::size_t>(
                                  rng.below(static_cast<int>(i)))]);
    double at = 20.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        serve::JobSpec &j = out[i];
        j.id = static_cast<int>(i);
        j.tenant = rng.below(4);
        j.seed = rng.next();
        at += -mean_gap_us * std::log(1.0 - rng.uniform());
        j.arrivalUs = at;
    }
    return out;
}

class JobStream : public Workload
{
  public:
    explicit JobStream(std::uint64_t seed) : stream(make_stream(seed)) {}

    const char *op_name() const override { return "stream"; }

    PassResult
    pass(SpanLog &log, std::uint64_t passNo, bool traced) override
    {
        PassResult res;
        int root = log.open("bench", "pass", passNo);

        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(stream_cells);
        cfg.retry.watchdogUs = 3000.0;
        std::unique_ptr<hw::Machine> m;
        std::unique_ptr<serve::GangScheduler> sched;
        {
            Phase ph(log, &res.setup, "hw", "construct", passNo);
            m = std::make_unique<hw::Machine>(cfg);
        }
        {
            Phase ph(log, &res.setup, "serve", "schedule", passNo);
            sched = std::make_unique<serve::GangScheduler>(
                *m, serve::ServeConfig{});
            sched->schedule_stream(stream);
        }
        {
            Phase ph(log, &res.run, "sim", "run", passNo);
            m->run_to_completion();
        }
        {
            Phase ph(log, &res.teardown, "serve", "finalize", passNo);
            sched->finalize();
        }

        res.check(sched->all_terminal(), "jobs left non-terminal");
        Tick makespan = 0, finishSum = 0;
        std::vector<double> queueWait;
        int done = 0, withinSlo = 0;
        for (const serve::JobRecord &r : sched->jobs()) {
            bool ok = r.state == serve::JobState::completed;
            res.check(ok, strprintf("job %d: %s (%s)", r.spec.id,
                                    serve::state_name(r.state),
                                    r.reason.c_str()));
            if (!ok)
                continue;
            ++done;
            makespan = std::max(makespan, r.finishTick);
            finishSum += r.finishTick;
            Tick due = us_to_ticks(r.spec.arrivalUs);
            if (ticks_to_us(r.finishTick - std::min(due, r.finishTick)) <=
                slo_limit_us)
                ++withinSlo;
            queueWait.push_back(ticks_to_us(r.queuedTicks));
        }

        const obs::StatsRegistry &reg = m->stats_registry();
        res.ops = m->sim().executed();
        res.fingerprint = {{"makespan_ticks", makespan},
                           {"events", m->sim().executed()},
                           {"tnet_messages", reg.value("tnet.messages")},
                           {"tnet_wire_bytes", reg.value("tnet.wire_bytes")},
                           {"finish_tick_sum", finishSum}};

        if (traced) {
            int c = log.open("trace", "counters", passNo);
            std::map<std::string, double> &out = res.layer;
            add_machine_counters(*m, out);
            const serve::ServeTotals &tot = sched->totals();
            double jobs = static_cast<double>(stream.size());
            out["serve.jobs"] = jobs;
            out["serve.attempts"] = static_cast<double>(tot.attempts);
            out["serve.retried"] = static_cast<double>(tot.retried);
            out["serve.shed"] =
                static_cast<double>(tot.shedQueueFull + tot.shedTooLarge);
            out["serve.starved"] = static_cast<double>(tot.starved);
            out["serve.quarantined"] =
                static_cast<double>(tot.partitionsQuarantined);
            out["serve.utilization_pct"] = 100.0 * sched->utilization();
            out["serve.fairness_x1000"] = 1000.0 * sched->tenant_fairness();
            out["serve.queue_wait_us_p50"] = median(queueWait);
            out["serve.jobs_done_pct"] = 100.0 * done / jobs;
            out["serve.slo_met_pct"] = 100.0 * withinSlo / jobs;
            log.close(c, host_now());
        }

        {
            Phase ph(log, &res.teardown, "obs", "report", passNo);
            std::string text = m->report() + sched->report();
            std::string json = m->stats_json(false);
            res.check(!text.empty() && !json.empty(), "empty report");
        }
        {
            Phase ph(log, &res.teardown, "serve", "destroy", passNo);
            sched.reset();
        }
        {
            Phase ph(log, &res.teardown, "hw", "destroy", passNo);
            m.reset();
        }
        log.close(root, host_now());
        return res;
    }

  private:
    std::vector<serve::JobSpec> stream;
};

} // namespace

std::unique_ptr<Workload>
make_job_stream(std::uint64_t seed)
{
    return std::make_unique<JobStream>(seed);
}

} // namespace pb
