/**
 * @file
 * perfbench_driver: runs one workload for a fixed host time and prints
 * its metrics.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--spans-out FILE]
 *
 * One warm-up pass runs first and fixes the model fingerprint; then
 * whole passes repeat for S seconds. Every pass must reproduce the
 * warm-up's fingerprint and pass its output checks.
 *
 * --trace 0 prints the end-to-end metrics. Their host times sum each
 * timed step's best time over the passes, scaled by the reference
 * kernel's best time between passes (reference.cc).
 * --trace 1 alternates traced and untraced passes and prints the
 * per-layer metrics: host-time shares from the benchmark's own spans,
 * the layers' counters, model numbers, and the tracing overhead.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"
#include "machine_probe.hh"

using namespace pb;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced runs). */
const MetricDef end_to_end[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/**
 * Layers whose self time is reported as a host share. The run-time
 * system has no boundary of its own: its work runs inside the kernel
 * run, under sim.
 */
const char *const host_layers[] = {"sim",   "hw",    "core",  "obs",
                                   "apps",  "mlsim", "serve", "bench"};

/**
 * Per-layer metrics (traced runs). A layer a workload does not run
 * reads 0 there. Simulated time is in model_us, never mixed with host
 * time.
 */
const MetricDef per_layer[] = {
    // host-time shares of the traced passes, by layer and boundary
    {"sim.host_pct", "%"},
    {"hw.host_pct", "%"},
    {"core.host_pct", "%"},
    {"obs.host_pct", "%"},
    {"apps.host_pct", "%"},
    {"mlsim.host_pct", "%"},
    {"serve.host_pct", "%"},
    {"bench.host_pct", "%"},
    {"hw.construct_pct", "%"},
    {"hw.destroy_pct", "%"},
    {"core.spawn_pct", "%"},
    {"core.reap_pct", "%"},
    {"obs.report_pct", "%"},
    // host rates
    {"sim.events_per_s", "1/s"},
    {"hw.construct_cells_per_s", "1/s"},
    {"hw.destroy_cells_per_s", "1/s"},
    {"mlsim.trace_events_per_s", "1/s"},
    // sim: event kernel
    {"sim.events", "count"},
    {"sim.pool_miss", "count"},
    {"sim.fn_heap", "count"},
    // hw: machine build, MSC+, DMA, queues, MC/MMU, ring buffers
    {"hw.cells_built", "count"},
    {"hw.image_hit_pct", "%"},
    {"hw.msc.commands", "count"},
    {"hw.msc.payload_bytes", "count"},
    {"hw.queue.spills", "count"},
    {"hw.queue.refill_interrupts", "count"},
    {"hw.mc.flag_increments", "count"},
    {"hw.ring.deposits", "count"},
    {"hw.mmu.tlb_miss_pct", "%"},
    {"hw.ring.in_place_pct", "%"},
    {"hw.payload_pool_hit_pct", "%"},
    {"hw.put.queue_pct", "%"},
    {"hw.put.dma_send_pct", "%"},
    {"hw.put.dma_recv_pct", "%"},
    // net: T-net, B-net, S-net
    {"net.tnet.messages", "count"},
    {"net.tnet.wire_bytes", "count"},
    {"net.tnet.mean_hops", "hops"},
    {"net.tnet.latency_us_mean", "model_us"},
    {"net.bnet.broadcasts", "count"},
    {"net.snet.episodes", "count"},
    {"net.put.wire_pct", "%"},
    // core: Context API and run_spmd
    {"core.ops", "count"},
    {"core.makespan_us", "model_us"},
    {"core.idle_pct", "%"},
    {"core.put_oneway_us.b16", "model_us"},
    {"core.put_oneway_us.b1024", "model_us"},
    {"core.put_oneway_us.b65536", "model_us"},
    {"core.put_model_err_pct", "%"},
    // runtime: VPP Fortran run-time system
    {"runtime.puts_issued", "count"},
    {"runtime.acks_issued", "count"},
    {"runtime.moves", "count"},
    {"runtime.overlap_fix_us", "model_us"},
    // apps and mlsim
    {"apps.trace_events", "count"},
    {"mlsim.messages", "count"},
    {"mlsim.speedup_plus.EP", "x"},
    {"mlsim.speedup_plus.CG", "x"},
    {"mlsim.speedup_plus.TC_st", "x"},
    {"mlsim.speedup_plus.TC_no_st", "x"},
    {"mlsim.speedup_plus.MatMul", "x"},
    {"mlsim.speedup_plus.SCG", "x"},
    {"mlsim.table2_err_pct", "%"},
    {"mlsim.table2_worst_pct", "%"},
    // obs: registry, spans, flight recorder, critical path
    {"obs.registry_paths", "count"},
    {"obs.flight_events", "count"},
    {"obs.span_events", "count"},
    {"obs.spans_dropped", "count"},
    {"obs.critpath_coverage", "ratio"},
    {"obs.trace_overhead_pct", "%"},
    // serve: gang scheduler
    {"serve.jobs", "count"},
    {"serve.attempts", "count"},
    {"serve.retried", "count"},
    {"serve.shed", "count"},
    {"serve.starved", "count"},
    {"serve.quarantined", "count"},
    {"serve.utilization_pct", "%"},
    {"serve.queue_wait_us_p50", "model_us"},
    {"serve.fairness_x1000", "count"},
    {"serve.jobs_done_pct", "%"},
    {"serve.slo_met_pct", "%"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload emulator_mix|paper_replay --seed N "
                 "--seconds S --trace 0|1 "
                 "[--spans-out FILE]\n",
                 why);
    std::exit(2);
}

std::unique_ptr<Workload>
make_workload(const std::string &name, std::uint64_t seed)
{
    if (name == "emulator_mix")
        return make_emulator_mix(seed);
    if (name == "paper_replay")
        return make_paper_replay(seed);
    usage(("unknown workload '" + name + "'").c_str());
}

std::string
fingerprint_text(const PassResult &r)
{
    std::string s;
    for (const auto &[k, v] : r.fingerprint)
        s += (s.empty() ? "" : " ") + k + "=" + std::to_string(v);
    return s;
}

void
put_metric(std::string &json, const char *name, double value,
           const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name, value, unit);
    json += buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string spansOut;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            trace = std::atoi(v.c_str());
        else if (a == "--spans-out")
            spansOut = v;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1))
        usage("need --workload, --seconds > 0 and --trace 0|1");

    std::unique_ptr<Workload> w = make_workload(workload, seed);
    SpanLog log;

    // Warm-up: fills the DRAM-image and pool caches, fixes the run's
    // fingerprint; not timed into any metric.
    PassResult warm = w->pass(log, 0, false);

    std::uint64_t attempted = warm.attempted, failed = warm.failed;
    std::vector<std::string> errors = warm.errors;
    bool stable = true;
    std::vector<double> setup, run, teardown, wallUntraced, wallTraced;
    std::vector<double> wallAll, opMs;
    // Each step's best host time over the untraced passes. Contention
    // on a shared host only ever slows a step down, so the best time
    // is the step's own cost; a pass total is that plus whatever
    // slowed it.
    std::vector<double> bestSetup, bestRun, bestTeardown;
    auto keep_best = [](std::vector<double> &best,
                        const std::vector<double> &steps) {
        if (best.empty())
            best = steps;
        for (std::size_t k = 0; k < best.size(); ++k)
            best[k] = std::min(best[k], steps[k]);
    };
    std::map<std::string, std::vector<double>> layerVals;
    // Reference kernel samples, taken between untraced passes: their
    // best says how fast the host ran during this run.
    std::vector<double> refTimes;

    const int minPasses = trace ? 4 : 3;
    double start = host_now();
    for (std::uint64_t n = 1;; ++n) {
        bool traced = trace == 1 && n % 2 == 1;
        log.set_enabled(traced);
        double t0 = host_now();
        PassResult r = w->pass(log, n, traced);
        double wall = host_now() - t0;
        log.set_enabled(false);
        wallAll.push_back(wall);

        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &e : r.errors)
            if (errors.size() < 8)
                errors.push_back(e);
        if (r.fingerprint != warm.fingerprint) {
            stable = false;
            errors.push_back("pass " + std::to_string(n) +
                             " fingerprint differs: " +
                             fingerprint_text(r) + " vs " +
                             fingerprint_text(warm));
        }
        if (r.setup.size() != warm.setup.size() ||
            r.run.size() != warm.run.size() ||
            r.teardown.size() != warm.teardown.size()) {
            stable = false;
            errors.push_back("pass " + std::to_string(n) +
                             " timed other steps than the warm-up");
        } else if (!traced) {
            keep_best(bestSetup, r.setup);
            keep_best(bestRun, r.run);
            keep_best(bestTeardown, r.teardown);
        }
        if (traced) {
            wallTraced.push_back(wall);
            for (const auto &[k, v] : r.layer)
                layerVals[k].push_back(v);
        } else {
            wallUntraced.push_back(wall);
            setup.push_back(total(r.setup));
            run.push_back(total(r.run));
            teardown.push_back(total(r.teardown));
            opMs.insert(opMs.end(), r.opMs.begin(), r.opMs.end());
            if (trace == 0)
                for (int i = 0; i < 3; ++i)
                    refTimes.push_back(reference_seconds());
        }
        // Stop before a pass that would run past the measuring time.
        if (static_cast<int>(n) >= minPasses &&
            host_now() - start + median(wallAll) > seconds)
            break;
    }

    std::printf("workload %s seed %llu: %zu passes untraced, %zu traced\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                wallUntraced.size(), wallTraced.size());
    std::printf("fingerprint: %s\n", fingerprint_text(warm).c_str());
    std::printf("host medians per pass: setup %.6f s, run %.6f s, "
                "teardown %.6f s\n",
                median(setup), median(run), median(teardown));
    std::printf("host best per step, summed: setup %.6f s, run %.6f s, "
                "teardown %.6f s over %zu steps\n",
                total(bestSetup), total(bestRun), total(bestTeardown),
                bestSetup.size() + bestRun.size() + bestTeardown.size());
    std::string summary = w->summary();
    if (!summary.empty())
        std::printf("%s", summary.c_str());
    if (opMs.size() >= 20) {
        // Tail: the highest percentile with at least 10 samples beyond.
        std::size_t n = opMs.size();
        double pct = 100.0 * static_cast<double>(n - 10) /
                     static_cast<double>(n);
        std::printf("%s latency: p50 %.3f ms, p%.1f %.3f ms over %zu "
                    "samples\n",
                    w->op_name(), median(opMs), pct,
                    quantile(opMs, pct / 100.0), n);
    }
    for (const std::string &e : errors)
        std::printf("error: %s\n", e.c_str());

    std::string metrics;
    if (trace == 0) {
        // Host times scaled to a host on which the reference kernel
        // takes reference_nominal_s: the host's drift moves the
        // reference and the workload alike, and cancels.
        double refBest = *std::min_element(refTimes.begin(), refTimes.end());
        double scale = reference_nominal_s / refBest;
        std::printf("reference kernel: best %.6f s, median %.6f s over %zu "
                    "samples; host times scaled by %.4f\n",
                    refBest, median(refTimes), refTimes.size(), scale);
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        double best = total(bestSetup) + total(bestRun) + total(bestTeardown);
        std::map<std::string, double> out = {
            {"setup_s", scale * total(bestSetup)},
            {"run_s", scale * total(bestRun)},
            {"ops_per_s", static_cast<double>(warm.ops) / (scale * best)},
            {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0}};
        for (const MetricDef &m : end_to_end)
            put_metric(metrics, m.name, out[m.name], m.unit);
    } else {
        std::map<std::string, double> out;
        for (const auto &[k, vals] : layerVals)
            out[k] = median(vals);
        finish_machine_ratios(out);

        // Host shares from the spans; the counter reads of traced
        // passes ("trace" layer) are overhead, not a layer.
        std::map<std::string, double> self = log.self_seconds();
        std::map<std::string, double> byLayer;
        double total = 0.0;
        for (const auto &[k, s] : self) {
            std::string layer = k.substr(0, k.find('.'));
            if (layer == "trace")
                continue;
            byLayer[layer] += s;
            total += s;
        }
        auto pct = [total](double s) {
            return total > 0.0 ? 100.0 * s / total : 0.0;
        };
        for (const char *layer : host_layers)
            out[std::string(layer) + ".host_pct"] = pct(byLayer[layer]);
        out["hw.construct_pct"] = pct(self["hw.construct"]);
        out["hw.destroy_pct"] = pct(self["hw.destroy"]);
        out["core.spawn_pct"] = pct(self["core.spawn"]);
        out["core.reap_pct"] = pct(self["core.reap"]);
        out["obs.report_pct"] = pct(self["obs.report"]);

        // Rates over the traced passes' summed counters.
        double passes = static_cast<double>(wallTraced.size());
        auto rate = [passes](double perPass, double secs) {
            return secs > 0.0 ? perPass * passes / secs : 0.0;
        };
        double simRun = byLayer["sim"];
        out["sim.events_per_s"] = rate(out["sim.events"], simRun);
        out["hw.construct_cells_per_s"] =
            rate(out["hw.cells_built"], self["hw.construct"]);
        out["hw.destroy_cells_per_s"] =
            rate(out["hw.cells_built"], self["hw.destroy"]);
        out["mlsim.trace_events_per_s"] =
            rate(out["_mlsim.replayed_events"], byLayer["mlsim"]);
        double tr = median(wallTraced), un = median(wallUntraced);
        out["obs.trace_overhead_pct"] =
            un > 0.0 ? 100.0 * (tr / un - 1.0) : 0.0;

        for (const MetricDef &m : per_layer)
            put_metric(metrics, m.name, out[m.name], m.unit);
        if (!spansOut.empty() && !log.write_chrome(spansOut))
            std::printf("error: cannot write spans to %s\n",
                        spansOut.c_str());
    }

    bool correct = stable && failed == 0 && attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}
