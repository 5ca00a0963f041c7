/**
 * @file
 * Microbenchmarks of the PUT/GET primitives on the functional
 * machine (Section 1.3's PUT/GET-vs-SEND/RECEIVE argument).
 *
 * Wall time measures the simulator itself; the interesting output is
 * the simulated microseconds reported as counters:
 *  - sim_us_per_op: simulated latency of one operation
 *  - sim_MBps: simulated delivered bandwidth.
 *
 * Carries its own main so three extra flags ride alongside the
 * google-benchmark ones:
 *  - --profile            run a span-profiled PUT pass after the
 *                         suite and print the critical-path table
 *  - --profile-out=FILE   write that breakdown as JSON
 *                         (default PROFILE_micro_putget.json)
 *  - --span-trace-out=F   write the pass's span rings as Chrome
 *                         trace JSON
 * plus the repo-wide --json-out (obs/cli.hh) for BENCH_*.json.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "obs/cli.hh"
#include "obs/critpath.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "sim/fiber.hh"

using namespace ap;
using namespace ap::core;

namespace
{

hw::MachineConfig
cfg2()
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 8 << 20;
    return cfg;
}

} // namespace

/** One-way PUT latency until the receiver's flag fires. */
static void
BM_PutLatency(benchmark::State &state)
{
    std::uint32_t bytes = static_cast<std::uint32_t>(state.range(0));
    double sim_us = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        hw::Machine m(cfg2());
        Tick dur = 0;
        run_spmd(m, [&](Context &ctx) {
            Addr buf = ctx.alloc(bytes);
            Addr rf = ctx.alloc_flag();
            ctx.barrier();
            Tick t0 = ctx.now();
            if (ctx.id() == 0)
                ctx.put(1, buf, buf, bytes, no_flag, rf);
            if (ctx.id() == 1) {
                ctx.wait_flag(rf, 1);
                dur = ctx.now() - t0;
            }
        });
        sim_us += ticks_to_us(dur);
        ++ops;
    }
    state.counters["sim_us_per_op"] =
        sim_us / static_cast<double>(ops);
    state.counters["sim_MBps"] =
        bytes / (sim_us / static_cast<double>(ops));
}
BENCHMARK(BM_PutLatency)->Arg(8)->Arg(1024)->Arg(65536)->Arg(1 << 20);

/** Pipelined PUT bandwidth: many back-to-back transfers. */
static void
BM_PutBandwidth(benchmark::State &state)
{
    std::uint32_t bytes = static_cast<std::uint32_t>(state.range(0));
    constexpr int count = 64;
    double sim_us = 0;
    std::uint64_t rounds = 0;
    for (auto _ : state) {
        hw::Machine m(cfg2());
        Tick dur = 0;
        run_spmd(m, [&](Context &ctx) {
            Addr buf = ctx.alloc(bytes);
            Addr rf = ctx.alloc_flag();
            ctx.barrier();
            Tick t0 = ctx.now();
            if (ctx.id() == 0)
                for (int i = 0; i < count; ++i)
                    ctx.put(1, buf, buf, bytes, no_flag, rf);
            if (ctx.id() == 1) {
                ctx.wait_flag(rf, count);
                dur = ctx.now() - t0;
            }
        });
        sim_us += ticks_to_us(dur);
        ++rounds;
    }
    double us = sim_us / static_cast<double>(rounds);
    state.counters["sim_MBps"] =
        static_cast<double>(bytes) * count / us;
}
BENCHMARK(BM_PutBandwidth)->Arg(64)->Arg(4096)->Arg(65536);

/** GET round trip. */
static void
BM_GetLatency(benchmark::State &state)
{
    std::uint32_t bytes = static_cast<std::uint32_t>(state.range(0));
    double sim_us = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        hw::Machine m(cfg2());
        Tick dur = 0;
        run_spmd(m, [&](Context &ctx) {
            Addr buf = ctx.alloc(bytes);
            Addr rf = ctx.alloc_flag();
            ctx.barrier();
            if (ctx.id() == 0) {
                Tick t0 = ctx.now();
                ctx.get(1, buf, buf, bytes, no_flag, rf);
                ctx.wait_flag(rf, 1);
                dur = ctx.now() - t0;
            }
        });
        sim_us += ticks_to_us(dur);
        ++ops;
    }
    state.counters["sim_us_per_op"] =
        sim_us / static_cast<double>(ops);
}
BENCHMARK(BM_GetLatency)->Arg(8)->Arg(4096)->Arg(65536);

/**
 * PUT/GET vs SEND/RECEIVE one-way delivery into the user area — the
 * buffering copy is the architectural difference.
 */
static void
BM_SendRecvLatency(benchmark::State &state)
{
    std::uint32_t bytes = static_cast<std::uint32_t>(state.range(0));
    double sim_us = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        hw::Machine m(cfg2());
        Tick dur = 0;
        run_spmd(m, [&](Context &ctx) {
            Addr buf = ctx.alloc(bytes);
            ctx.barrier();
            Tick t0 = ctx.now();
            if (ctx.id() == 0)
                ctx.send(1, 1, buf, bytes);
            if (ctx.id() == 1) {
                ctx.recv(0, 1, buf, bytes);
                dur = ctx.now() - t0;
            }
        });
        sim_us += ticks_to_us(dur);
        ++ops;
    }
    state.counters["sim_us_per_op"] =
        sim_us / static_cast<double>(ops);
}
BENCHMARK(BM_SendRecvLatency)->Arg(8)->Arg(1024)->Arg(65536);

namespace
{

/**
 * The --profile pass: one pipelined PUT burst on a two-cell machine
 * with full span recording, fed to the critical-path profiler. The
 * acceptance bar is >= 95% of the end-to-end PUT latency attributed
 * to named stages.
 */
void
run_profile_pass(const std::string &profileOut,
                 const std::string &spanTraceOut,
                 obs::BenchReport &report)
{
    constexpr int count = 64;
    constexpr std::uint32_t bytes = 4096;
    hw::MachineConfig cfg = cfg2();
    cfg.spanMode = obs::SpanMode::full;
    hw::Machine m(cfg);
    run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(bytes);
        Addr rf = ctx.alloc_flag();
        ctx.barrier();
        if (ctx.id() == 0)
            for (int i = 0; i < count; ++i)
                ctx.put(1, buf, buf, bytes, no_flag, rf);
        if (ctx.id() == 1)
            ctx.wait_flag(rf, count);
    });

    obs::CritPathReport rep =
        obs::analyze_spans(m.spans().events(),
                           m.spans().full_dropped());
    std::printf("\n-- span profile: %d x %u B PUT --\n%s", count,
                bytes, rep.text().c_str());
    if (!profileOut.empty()) {
        if (!obs::write_file(profileOut, rep.json()))
            fatal("cannot write profile to %s", profileOut.c_str());
        std::printf("profile JSON written to %s\n",
                    profileOut.c_str());
    }
    if (!spanTraceOut.empty()) {
        if (!m.dump_flight_recorder(spanTraceOut))
            fatal("cannot write span trace to %s",
                  spanTraceOut.c_str());
        std::printf("span Chrome trace written to %s\n",
                    spanTraceOut.c_str());
    }
    report.set("profile.coverage", rep.coverage());
    report.set("profile.put_coverage",
               rep.op_coverage(obs::SpanOp::put));
    report.set("profile.traces", rep.traces);
    report.set("profile.events", rep.events);
    report.set("profile.end_to_end_us",
               ticks_to_us(rep.endToEndTicks));
}

/**
 * The speed pass: host-throughput numbers for the perf gate.
 *
 * Two measurements on a fixed PUT-burst workload:
 *  - speed.events_per_sec / speed.put_ops_per_sec over fresh
 *    machines (the "cold" shape stress loops exercise);
 *  - alloc.steady_*_delta: kernel/payload allocation-counter growth
 *    of a second wave on one warmed-up machine. The hot path's
 *    zero-allocation contract says these must be exactly zero, and
 *    CTest gate_alloc asserts that on every run.
 * And one on a bare fiber:
 *  - speed.fiber_switch.wall_ms: 10^6 resume/yield round trips, the
 *    switch every Process::delay/wait pays.
 */
void
run_speed_pass(obs::BenchReport &report)
{
    using Clock = std::chrono::steady_clock;
    constexpr int reps = 100;
    constexpr int count = 64;
    constexpr std::uint32_t bytes = 4096;

    auto burst = [&](hw::Machine &m) {
        run_spmd(m, [&](Context &ctx) {
            Addr buf = ctx.alloc(bytes);
            Addr rf = ctx.alloc_flag();
            ctx.barrier();
            if (ctx.id() == 0)
                for (int i = 0; i < count; ++i)
                    ctx.put(1, buf, buf, bytes, no_flag, rf);
            if (ctx.id() == 1)
                ctx.wait_flag(rf, count);
        });
    };

    std::uint64_t events = 0;
    auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
        hw::Machine m(cfg2());
        burst(m);
        events += m.sim().executed();
    }
    double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    report.set("speed.wall_s", wall);
    report.set("speed.events_per_sec",
               static_cast<double>(events) / wall);
    report.set("speed.put_ops_per_sec",
               static_cast<double>(reps) * count / wall);
    std::printf("\n-- speed: %d x %d x %u B PUT, %.3f s, "
                "%.2fM events/s --\n",
                reps, count, bytes, wall,
                static_cast<double>(events) / wall / 1e6);

    constexpr int roundTrips = 1000000;
    sim::Fiber fiber([] {
        for (int i = 0; i < roundTrips; ++i)
            sim::Fiber::yield();
    });
    fiber.resume(); // first entry is not a round trip
    t0 = Clock::now();
    while (!fiber.finished())
        fiber.resume();
    double switchMs =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    report.set("speed.fiber_switch.wall_ms", switchMs);
    std::printf("-- fiber switch: %d round trips, %.1f ms, "
                "%.1f ns each --\n",
                roundTrips, switchMs, switchMs * 1e6 / roundTrips);

    // Steady state on one machine: wave 2 must allocate nothing.
    hw::Machine m(cfg2());
    burst(m);
    auto allocAt = [&]() {
        sim::SimAllocStats a = m.sim().alloc_stats();
        std::uint64_t payloadMiss =
            m.stats_registry().sum("sim.alloc.payload_miss");
        return std::tuple{a.poolMisses, a.fnHeap, payloadMiss};
    };
    auto [miss1, heap1, pay1] = allocAt();
    burst(m);
    auto [miss2, heap2, pay2] = allocAt();
    report.set("alloc.steady_pool_miss_delta", miss2 - miss1);
    report.set("alloc.steady_fn_heap_delta", heap2 - heap1);
    report.set("alloc.steady_payload_miss_delta", pay2 - pay1);
    std::printf("-- steady-state alloc deltas: pool_miss=%llu "
                "fn_heap=%llu payload_miss=%llu --\n",
                static_cast<unsigned long long>(miss2 - miss1),
                static_cast<unsigned long long>(heap2 - heap1),
                static_cast<unsigned long long>(pay2 - pay1));
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("micro_putget");
    bool profile = false;
    std::string profileOut = "PROFILE_micro_putget.json";
    std::string spanTraceOut;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--profile") == 0)
            profile = true;
        else if (std::strncmp(a, "--profile-out=", 14) == 0) {
            profileOut = a + 14;
            profile = true;
        } else if (std::strncmp(a, "--span-trace-out=", 17) == 0) {
            spanTraceOut = a + 17;
            profile = true;
        } else if (!report.consume_arg(a))
            rest.push_back(argv[i]);
    }
    int bargc = static_cast<int>(rest.size());
    benchmark::Initialize(&bargc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (profile)
        run_profile_pass(profileOut, spanTraceOut, report);
    run_speed_pass(report);
    report.write();
    return 0;
}
