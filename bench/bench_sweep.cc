/**
 * @file
 * Performance-model observatory driver: parameterized sweeps over
 * the paper kernels and the serving layer, emitting structured
 * SWEEP_*.json datasets and (with --fit) fitted MODEL_*.json scaling
 * laws via src/model. tools/model_check.py gates fresh measurements
 * against the committed models under bench/models/.
 *
 * Sweeps (parameter axis -> metrics):
 *   putlat   message bytes   -> PUT issue/deliver latency, bandwidth
 *   hops     torus distance  -> PUT deliver latency (8x8 machine)
 *   cells    PHOLD cells     -> kernel events, events/sec
 *   threads  kernel workers  -> events/sec, speedup (16x16 PHOLD)
 *   droprate message loss %  -> reliable PUT latency, retransmits
 *   serve    job arrival us  -> gang-sched throughput, latency
 *
 * The default set {putlat, cells, serve} is the committed trio;
 * --sweep=all or --sweep=a,b,c selects others. --quick keeps each
 * per-point workload identical (same seeds, horizons, job counts)
 * and only thins the parameter values, so quick CI measurements stay
 * comparable against models fitted from full sweeps.
 *
 * --calibrate derives MLSim cost parameters from emulator
 * measurements (fits over the same machinery), diffs them against
 * the hand-tuned constants of mlsim::Params::ap1000_plus(), and
 * re-runs the Figure 7 overhead model and Table 2 replays with the
 * calibrated parameter file as a sensitivity check.
 *
 *   bench_sweep [--sweep=LIST] [--quick] [--fit] [--calibrate]
 *               [--out-dir=DIR] [--json-out[=FILE]]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "core/ap1000p.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "mlsim/costmodel.hh"
#include "mlsim/params.hh"
#include "mlsim/replay.hh"
#include "model/fit.hh"
#include "model/modelset.hh"
#include "obs/cli.hh"
#include "obs/critpath.hh"
#include "obs/span.hh"
#include "serve/job.hh"
#include "serve/scheduler.hh"
#include "sim/eventq.hh"

using namespace ap;
using namespace ap::core;

namespace
{

// ---------------------------------------------------------------
// shared plumbing
// ---------------------------------------------------------------

std::string outDir = ".";

std::string
out_path(const std::string &file)
{
    if (outDir.empty() || outDir == ".")
        return file;
    return outDir + "/" + file;
}

/** "0.5" is a path separator hazard in report keys: "x0p5". */
std::string
x_key(double x)
{
    std::string s = strprintf("x%g", x);
    for (char &c : s)
        if (c == '.')
            c = 'p';
    return s;
}

/** Registry sums captured as a sweep point's provenance snapshot. */
std::map<std::string, std::uint64_t>
registry_snapshot(hw::Machine &m,
                  std::initializer_list<const char *> patterns)
{
    std::map<std::string, std::uint64_t> out;
    for (const char *p : patterns)
        out[p] = m.stats_registry().sum(p);
    return out;
}

void
print_sweep(const model::SweepData &d)
{
    std::vector<std::string> metrics = d.metric_names();
    std::vector<std::string> headers;
    headers.push_back(d.param + " [" + d.unit + "]");
    for (const std::string &mname : metrics)
        headers.push_back(mname);
    Table t(headers);
    std::vector<model::SweepPoint> rows = d.points;
    std::sort(rows.begin(), rows.end(),
              [](const model::SweepPoint &a,
                 const model::SweepPoint &b) { return a.x < b.x; });
    for (const model::SweepPoint &p : rows) {
        std::vector<std::string> row;
        row.push_back(strprintf("%g", p.x));
        for (const std::string &mname : metrics) {
            auto it = p.metrics.find(mname);
            row.push_back(it == p.metrics.end()
                              ? "-"
                              : strprintf("%.4g", it->second));
        }
        t.add_row(row);
    }
    std::printf("-- sweep %s: %s vs %s --\n", d.sweep.c_str(),
                d.bench.c_str(), d.param.c_str());
    t.print();
    std::printf("\n");
}

void
report_sweep(obs::BenchReport &report, const model::SweepData &d)
{
    for (const model::SweepPoint &p : d.points)
        for (const auto &[mname, v] : p.metrics)
            report.set(d.sweep + "." + x_key(p.x) + "." + mname, v);
}

// ---------------------------------------------------------------
// putlat / hops: PUT latency on the functional machine
// ---------------------------------------------------------------

hw::MachineConfig
two_cell_config()
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 8 << 20;
    return cfg;
}

struct PutMeasure
{
    double issueUs = 0.0;
    double deliverUs = 0.0;
};

/** One-way PUT 0 -> @p dst on @p m; deliver timed at the receiver. */
PutMeasure
measure_put(hw::Machine &m, CellId dst, std::uint32_t bytes)
{
    PutMeasure out;
    Tick issue = 0, deliver = 0;
    SpmdResult r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(bytes);
        Addr rf = ctx.alloc_flag();
        ctx.barrier();
        Tick t0 = ctx.now();
        if (ctx.id() == 0) {
            ctx.put(dst, buf, buf, bytes, no_flag, rf);
            issue = ctx.now() - t0;
        }
        if (ctx.id() == dst) {
            ctx.wait_flag(rf, 1);
            deliver = ctx.now() - t0;
        }
    });
    if (r.failed())
        fatal("put measurement failed (dst=%d bytes=%u)", dst,
              bytes);
    out.issueUs = ticks_to_us(issue);
    out.deliverUs = ticks_to_us(deliver);
    return out;
}

model::SweepData
run_putlat(bool quick)
{
    model::SweepData d;
    d.sweep = "putlat";
    d.bench = "micro_putget";
    d.param = "bytes";
    d.unit = "B";
    const std::vector<std::uint32_t> sizes =
        quick ? std::vector<std::uint32_t>{64, 1024, 16384}
              : std::vector<std::uint32_t>{64, 256, 1024, 4096,
                                           16384, 65536};
    for (std::uint32_t bytes : sizes) {
        hw::Machine m(two_cell_config());
        PutMeasure pm = measure_put(m, 1, bytes);
        model::SweepPoint p;
        p.x = bytes;
        p.metrics["issue_us"] = pm.issueUs;
        p.metrics["deliver_us"] = pm.deliverUs;
        p.metrics["mb_s"] =
            pm.deliverUs > 0 ? bytes / pm.deliverUs : 0.0;
        p.registry = registry_snapshot(
            m, {"tnet.messages", "tnet.payload_bytes"});
        d.points.push_back(std::move(p));
    }
    return d;
}

/** First cell at torus distance @p hops from cell 0. */
CellId
cell_at_distance(const hw::Machine &m, int hops)
{
    for (CellId c = 1; c < m.config().cells; ++c)
        if (m.topology().distance(0, c) == hops)
            return c;
    return -1;
}

model::SweepData
run_hops(bool quick)
{
    model::SweepData d;
    d.sweep = "hops";
    d.bench = "micro_putget";
    d.param = "hops";
    d.unit = "hops";
    constexpr std::uint32_t bytes = 256;
    const std::vector<int> hopList =
        quick ? std::vector<int>{1, 2, 4, 8}
              : std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8};
    for (int hops : hopList) {
        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(64);
        hw::Machine m(cfg);
        CellId dst = cell_at_distance(m, hops);
        if (dst < 0)
            fatal("no cell at distance %d on an 8x8 torus", hops);
        PutMeasure pm = measure_put(m, dst, bytes);
        model::SweepPoint p;
        p.x = hops;
        p.metrics["deliver_us"] = pm.deliverUs;
        p.registry = registry_snapshot(m, {"tnet.messages"});
        d.points.push_back(std::move(p));
    }
    return d;
}

// ---------------------------------------------------------------
// cells / threads: the PHOLD kernel sweep (bench_scale's workload)
// ---------------------------------------------------------------

constexpr Tick pholdLookahead = 320;
constexpr Tick pholdHorizon = 100000;

struct PholdResult
{
    std::uint64_t events = 0;
    double seconds = 0.0;
};

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

PholdResult
run_phold(int side, int threads)
{
    const int cells = side * side;
    sim::Simulator sim(threads, cells, pholdLookahead);

    std::vector<std::uint64_t> state(
        static_cast<std::size_t>(cells));
    for (int c = 0; c < cells; ++c)
        state[static_cast<std::size_t>(c)] =
            0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(c);

    std::function<void(int, Tick)> fire = [&](int cell, Tick when) {
        sim.schedule_for(cell, when, [&, cell]() {
            std::uint64_t &s =
                state[static_cast<std::size_t>(cell)];
            s = mix(s);
            int next = cell;
            Tick delay = 40 + static_cast<Tick>(s % 64);
            if ((s & 3) == 0) {
                int x = cell % side;
                int y = cell / side;
                switch ((s >> 2) & 3) {
                  case 0: x = (x + 1) % side; break;
                  case 1: x = (x + side - 1) % side; break;
                  case 2: y = (y + 1) % side; break;
                  default: y = (y + side - 1) % side; break;
                }
                next = y * side + x;
                delay = pholdLookahead + static_cast<Tick>(s % 256);
            }
            Tick when2 = sim.now() + delay;
            if (when2 < pholdHorizon)
                fire(next, when2);
        });
    };
    for (int c = 0; c < cells; ++c)
        fire(c, static_cast<Tick>(
                    state[static_cast<std::size_t>(c)] % 128));

    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    auto t1 = std::chrono::steady_clock::now();
    PholdResult r;
    r.events = sim.executed();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

model::SweepData
run_cells(bool quick)
{
    model::SweepData d;
    d.sweep = "cells";
    d.bench = "bench_scale";
    d.param = "cells";
    d.unit = "cells";
    // Quick thins the sides but keeps the horizon, so every quick
    // point is an exact re-measurement of a full-sweep point.
    const std::vector<int> sides =
        quick ? std::vector<int>{8, 16, 24}
              : std::vector<int>{8, 12, 16, 24, 32};
    for (int side : sides) {
        PholdResult r = run_phold(side, 1);
        model::SweepPoint p;
        p.x = side * side;
        p.metrics["events"] = static_cast<double>(r.events);
        p.metrics["events_per_sec"] =
            r.seconds > 0
                ? static_cast<double>(r.events) / r.seconds
                : 0.0;
        d.points.push_back(std::move(p));
    }
    return d;
}

model::SweepData
run_threads(bool quick)
{
    model::SweepData d;
    d.sweep = "threads";
    d.bench = "bench_scale";
    d.param = "threads";
    d.unit = "workers";
    constexpr int side = 16;
    const std::vector<int> threadCounts =
        quick ? std::vector<int>{1, 2, 4}
              : std::vector<int>{1, 2, 4, 8};
    double baseEps = 0.0;
    for (int threads : threadCounts) {
        PholdResult r = run_phold(side, threads);
        double eps = r.seconds > 0
                         ? static_cast<double>(r.events) / r.seconds
                         : 0.0;
        if (threads == 1)
            baseEps = eps;
        model::SweepPoint p;
        p.x = threads;
        p.metrics["events"] = static_cast<double>(r.events);
        p.metrics["events_per_sec"] = eps;
        p.metrics["speedup"] = baseEps > 0 ? eps / baseEps : 0.0;
        d.points.push_back(std::move(p));
    }
    return d;
}

// ---------------------------------------------------------------
// droprate: reliable-layer recovery cost vs message loss
// ---------------------------------------------------------------

model::SweepData
run_droprate(bool quick)
{
    model::SweepData d;
    d.sweep = "droprate";
    d.bench = "reliable_overhead";
    d.param = "drop_pct";
    d.unit = "%";
    const std::vector<double> drops =
        quick ? std::vector<double>{0.5, 2.0, 8.0}
              : std::vector<double>{0.5, 1.0, 2.0, 4.0, 8.0};
    constexpr int latencyOps = 100;
    constexpr int streamBlocks = 32;
    constexpr int blockBytes = 1024;
    for (double pct : drops) {
        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
        cfg.reliableNet = true;
        cfg.faults.dropProb = pct / 100.0;
        cfg.faults.seed = 1234;
        cfg.retry.watchdogUs = 1e6;
        hw::Machine m(cfg);
        double latencyUs = 0.0, streamMbS = 0.0;
        SpmdResult r = run_spmd(m, [&](Context &ctx) {
            if (ctx.id() != 0)
                return;
            Addr buf = ctx.alloc(blockBytes);
            Tick t0 = ctx.now();
            for (int i = 0; i < latencyOps; ++i) {
                ctx.put(1, 0x800, buf, 64, no_flag, no_flag, true);
                ctx.wait_all_acks();
            }
            latencyUs = ticks_to_us(ctx.now() - t0) / latencyOps;
            t0 = ctx.now();
            for (int k = 0; k < streamBlocks; ++k) {
                Addr raddr =
                    0x800 + static_cast<Addr>(k) *
                                static_cast<Addr>(blockBytes);
                ctx.put(1, raddr, buf, blockBytes, no_flag, no_flag,
                        true);
            }
            ctx.wait_all_acks();
            double us = ticks_to_us(ctx.now() - t0);
            streamMbS = us > 0 ? static_cast<double>(streamBlocks) *
                                     blockBytes / us
                               : 0.0;
        });
        if (r.failed())
            fatal("droprate sweep failed at %.1f%%", pct);
        model::SweepPoint p;
        p.x = pct;
        p.metrics["put_us"] = latencyUs;
        p.metrics["stream_mb_s"] = streamMbS;
        p.metrics["retransmits"] = static_cast<double>(
            m.stats_registry().sum("*.rnet.retransmits"));
        p.registry = registry_snapshot(
            m, {"tnet.dropped", "tnet.messages"});
        d.points.push_back(std::move(p));
    }
    return d;
}

// ---------------------------------------------------------------
// serve: gang-scheduler throughput/latency vs job arrival rate
// ---------------------------------------------------------------

model::SweepData
run_serve(bool quick)
{
    model::SweepData d;
    d.sweep = "serve";
    d.bench = "bench_serve";
    d.param = "arrival_us";
    d.unit = "us";
    // Derived from the simulated makespan, so exactly reproducible:
    // tight sim envelope, not the host shape gate the name implies.
    d.classes["jobs_per_sec"] = model::MetricClass::sim;
    const std::vector<double> arrivals =
        quick ? std::vector<double>{100.0, 400.0, 1600.0}
              : std::vector<double>{100.0, 200.0, 400.0, 800.0,
                                    1600.0};
    constexpr int cells = 16;
    constexpr int jobs = 32;
    for (double arrivalUs : arrivals) {
        hw::MachineConfig cfg =
            hw::MachineConfig::ap1000_plus(cells);
        cfg.retry.watchdogUs = 3000.0;
        hw::Machine m(cfg);

        serve::TrafficConfig traffic;
        traffic.jobs = jobs;
        traffic.seed = 11;
        traffic.meanArrivalUs = arrivalUs;
        traffic.maxW = m.topology().width();
        traffic.maxH = m.topology().height();

        serve::GangScheduler sched(m, serve::ServeConfig{});
        sched.schedule_stream(serve::generate_stream(traffic));
        m.run_to_completion();
        sched.finalize();

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
        double meanLat = 0.0, p95Lat = 0.0;
        for (double v : lat)
            meanLat += v;
        if (!lat.empty()) {
            meanLat /= static_cast<double>(lat.size());
            p95Lat = lat[std::min(
                lat.size() - 1,
                static_cast<std::size_t>(
                    static_cast<double>(lat.size()) * 0.95))];
        }
        double makespanUs =
            lastFinish > firstSubmit
                ? ticks_to_us(lastFinish - firstSubmit)
                : 0.0;
        serve::ServeTotals tot = sched.totals();

        model::SweepPoint p;
        p.x = arrivalUs;
        p.metrics["completed"] =
            static_cast<double>(tot.completed);
        p.metrics["jobs_per_sec"] =
            makespanUs > 0
                ? static_cast<double>(tot.completed) * 1e6 /
                      makespanUs
                : 0.0;
        p.metrics["mean_latency_us"] = meanLat;
        p.metrics["p95_latency_us"] = p95Lat;
        p.registry =
            registry_snapshot(m, {"tnet.messages", "snet.barriers"});
        d.points.push_back(std::move(p));
    }
    return d;
}

// ---------------------------------------------------------------
// --calibrate: derive MLSim cost parameters from emulator fits
// ---------------------------------------------------------------

double
stage_mean_us(const obs::CritPathReport &rep, obs::SpanStage st)
{
    const obs::StageAttribution &s =
        rep.stages[static_cast<std::size_t>(st)];
    return s.events
               ? ticks_to_us(s.busyTicks) /
                     static_cast<double>(s.events)
               : 0.0;
}

/** Span-profiled PUT burst; returns the critical-path attribution. */
obs::CritPathReport
profile_put_burst(std::uint32_t bytes)
{
    constexpr int count = 64;
    hw::MachineConfig cfg = two_cell_config();
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
    return obs::analyze_spans(m.spans().events(),
                              m.spans().full_dropped());
}

/** Span-profiled SEND burst (ring-buffer path). */
obs::CritPathReport
profile_send_burst(std::uint32_t bytes)
{
    constexpr int count = 16;
    hw::MachineConfig cfg = two_cell_config();
    cfg.spanMode = obs::SpanMode::full;
    hw::Machine m(cfg);
    run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(bytes);
        ctx.barrier();
        if (ctx.id() == 0)
            for (int i = 0; i < count; ++i)
                ctx.send(1, 7, buf, bytes);
        if (ctx.id() == 1)
            for (int i = 0; i < count; ++i)
                ctx.recv(0, 7, buf, bytes);
    });
    return obs::analyze_spans(m.spans().events(),
                              m.spans().full_dropped());
}

/** RECV search+copy time with the message long since deposited. */
double
measure_recv_us(std::uint32_t bytes)
{
    hw::Machine m(two_cell_config());
    Tick dur = 0;
    run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(bytes);
        ctx.barrier();
        if (ctx.id() == 0)
            ctx.send(1, 7, buf, bytes);
        if (ctx.id() == 1) {
            // Idle long enough that the deposit DMA has certainly
            // finished: what remains is ring search + user-area copy.
            ctx.compute_us(5000.0);
            Tick t0 = ctx.now();
            ctx.recv(0, 7, buf, bytes);
            dur = ctx.now() - t0;
        }
    });
    return ticks_to_us(dur);
}

/** S-net release: mean barrier-stage span over a barrier burst. */
double
measure_barrier_us()
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.spanMode = obs::SpanMode::full;
    hw::Machine m(cfg);
    run_spmd(m, [&](Context &ctx) {
        for (int i = 0; i < 8; ++i)
            ctx.barrier();
    });
    return stage_mean_us(obs::analyze_spans(m.spans().events(),
                                            m.spans().full_dropped()),
                         obs::SpanStage::barrier);
}

struct CalibRow
{
    const char *param;
    double hand;
    double derived;
    const char *how;
};

void
run_calibration(bool quick, obs::BenchReport &report)
{
    std::printf("-- MLSim calibration: derived from emulator fits "
                "--\n\n");

    // PUT latency vs bytes on adjacent cells: the per-byte slope is
    // the effective wire+DMA byte cost, the issue time the enqueue.
    std::vector<model::Point> deliverPts;
    double issueSum = 0.0;
    const std::vector<std::uint32_t> sizes = {64, 1024, 4096,
                                              16384};
    for (std::uint32_t bytes : sizes) {
        hw::Machine m(two_cell_config());
        PutMeasure pm = measure_put(m, 1, bytes);
        deliverPts.push_back({static_cast<double>(bytes),
                              pm.deliverUs});
        issueSum += pm.issueUs;
    }
    model::Line deliverLine = model::linear_fit(deliverPts);
    double issueUs =
        issueSum / static_cast<double>(sizes.size());

    // PUT latency vs hop distance at fixed size: per-hop T-net delay.
    std::vector<model::Point> hopPts;
    for (int hops : {1, 2, 3, 4}) {
        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(64);
        hw::Machine m(cfg);
        CellId dst = cell_at_distance(m, hops);
        PutMeasure pm = measure_put(m, dst, 64);
        hopPts.push_back({static_cast<double>(hops),
                          pm.deliverUs});
    }
    model::Line hopLine = model::linear_fit(hopPts);

    // Span-profiled bursts: the dma_send stage mean vs bytes has the
    // DMA setup as its intercept; ring_deposit likewise for SEND.
    std::vector<model::Point> dmaPts, ringPts;
    for (std::uint32_t bytes : {64u, 1024u, 4096u}) {
        obs::CritPathReport put = profile_put_burst(bytes);
        dmaPts.push_back(
            {static_cast<double>(bytes),
             stage_mean_us(put, obs::SpanStage::dma_send)});
        obs::CritPathReport send = profile_send_burst(bytes);
        ringPts.push_back(
            {static_cast<double>(bytes),
             stage_mean_us(send, obs::SpanStage::ring_deposit)});
    }
    model::Line dmaLine = model::linear_fit(dmaPts);
    model::Line ringLine = model::linear_fit(ringPts);

    // RECV on an already-deposited message: search + per-byte copy.
    std::vector<model::Point> recvPts;
    for (std::uint32_t bytes : {64u, 1024u, 4096u, 16384u})
        recvPts.push_back({static_cast<double>(bytes),
                           measure_recv_us(bytes)});
    model::Line recvLine = model::linear_fit(recvPts);

    double barrierUs = measure_barrier_us();

    mlsim::Params hand = mlsim::Params::ap1000_plus();
    const std::vector<CalibRow> rows = {
        {"put_enqueue_time", hand.put_enqueue_time, issueUs,
         "PUT issue time, mean over sizes"},
        {"put_dma_set_time", hand.put_dma_set_time,
         dmaLine.intercept, "dma_send stage intercept vs bytes"},
        {"network_delay_time", hand.network_delay_time,
         hopLine.slope, "deliver slope vs torus hops"},
        {"network_msg_time", hand.network_msg_time,
         deliverLine.slope, "deliver slope vs bytes"},
        {"recv_search_time", hand.recv_search_time,
         recvLine.intercept, "RECV intercept vs bytes"},
        {"recv_copy_time", hand.recv_copy_time, recvLine.slope,
         "RECV slope vs bytes"},
        {"barrier_time", hand.barrier_time, barrierUs,
         "mean S-net barrier episode"},
        {"recv_dma_set_time", hand.recv_dma_set_time,
         ringLine.intercept,
         "ring_deposit stage intercept vs bytes"},
    };

    Table t({"Parameter", "Hand us", "Derived us", "Drift %",
             "Derived from"});
    for (const CalibRow &r : rows) {
        double drift =
            r.hand != 0.0
                ? 100.0 * (r.derived - r.hand) / r.hand
                : 0.0;
        t.add_row({r.param, strprintf("%.3f", r.hand),
                   strprintf("%.3f", r.derived),
                   strprintf("%+.0f", drift), r.how});
        std::string k = strprintf("calib.%s", r.param);
        report.set(k + ".hand", r.hand);
        report.set(k + ".derived", r.derived);
        report.set(k + ".drift_pct", drift);
    }
    t.print();
    report.set("calib.params",
               static_cast<std::uint64_t>(rows.size()));

    // Calibrated parameter file: the derived values dropped into the
    // AP1000+ model (negative fit artifacts clamped at zero cost).
    mlsim::Params calib = hand;
    auto pos = [](double v) { return std::max(v, 0.0); };
    calib.name = "AP1000+ (calibrated)";
    calib.put_enqueue_time = pos(issueUs);
    calib.put_dma_set_time = pos(dmaLine.intercept);
    calib.network_delay_time = pos(hopLine.slope);
    calib.network_msg_time = pos(deliverLine.slope);
    calib.recv_search_time = pos(recvLine.intercept);
    calib.recv_copy_time = pos(recvLine.slope);
    calib.barrier_time = pos(barrierUs);
    calib.recv_dma_set_time = pos(ringLine.intercept);

    // Figure 7 sensitivity: the closed-form overhead columns under
    // both parameter files.
    mlsim::CostModel handModel(hand), calibModel(calib);
    std::printf("\nFigure 7 sensitivity (AP1000+ overheads, hand vs "
                "calibrated):\n");
    Table f({"Bytes", "Send us (hand)", "Send us (calib)",
             "Net us 1hop (hand)", "Net us 1hop (calib)"});
    for (std::uint32_t bytes : {64u, 1024u, 16384u}) {
        f.add_row(
            {strprintf("%u", bytes),
             strprintf("%.2f", handModel.put_send_overhead(bytes)),
             strprintf("%.2f",
                       calibModel.put_send_overhead(bytes)),
             strprintf("%.2f", handModel.network(1, bytes)),
             strprintf("%.2f", calibModel.network(1, bytes))});
        std::string k = strprintf("calib.fig7.b%u", bytes);
        report.set(k + ".send_us_hand",
                   handModel.put_send_overhead(bytes));
        report.set(k + ".send_us_calib",
                   calibModel.put_send_overhead(bytes));
        report.set(k + ".net_us_hand",
                   handModel.network(1, bytes));
        report.set(k + ".net_us_calib",
                   calibModel.network(1, bytes));
    }
    f.print();

    // Table 2 sensitivity: replay the application traces under the
    // calibrated file; the speedup-vs-AP1000 deltas bound how much
    // the headline reproduction depends on the hand-tuned values.
    mlsim::Params base = mlsim::Params::ap1000();
    std::printf("\nTable 2 sensitivity (speedup vs AP1000):\n");
    Table s({"App", "Hand", "Calibrated", "Delta %"});
    auto suite = apps::standard_suite();
    std::size_t appCount =
        quick ? std::min<std::size_t>(2, suite.size())
              : suite.size();
    for (std::size_t i = 0; i < appCount; ++i) {
        const auto &app = suite[i];
        core::Trace trace = app->generate();
        double tBase =
            mlsim::Replay(trace, base).run().totalUs;
        double tHand =
            mlsim::Replay(trace, hand).run().totalUs;
        double tCalib =
            mlsim::Replay(trace, calib).run().totalUs;
        if (tHand <= 0 || tCalib <= 0)
            continue;
        double sHand = tBase / tHand;
        double sCalib = tBase / tCalib;
        double delta = 100.0 * (sCalib - sHand) / sHand;
        s.add_row({app->info().name, strprintf("%.2f", sHand),
                   strprintf("%.2f", sCalib),
                   strprintf("%+.1f", delta)});
        std::string k = app->info().name;
        for (char &c : k)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        report.set("calib.table2." + k + ".speedup_hand", sHand);
        report.set("calib.table2." + k + ".speedup_calib", sCalib);
        report.set("calib.table2." + k + ".delta_pct", delta);
    }
    s.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("bench_sweep");
    bool quick = false, fit = false, calibrate = false;
    std::string sweepArg = "putlat,cells,serve";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (report.consume_arg(argv[i]))
            continue;
        if (a == "--quick")
            quick = true;
        else if (a == "--fit")
            fit = true;
        else if (a == "--calibrate")
            calibrate = true;
        else if (a.rfind("--sweep=", 0) == 0)
            sweepArg = a.substr(8);
        else if (a.rfind("--out-dir=", 0) == 0)
            outDir = a.substr(10);
        else
            fatal("unknown argument '%s' (bench_sweep "
                  "[--sweep=LIST|all] [--quick] [--fit] "
                  "[--calibrate] [--out-dir=DIR] "
                  "[--json-out[=FILE]])",
                  a.c_str());
    }

    using Runner = model::SweepData (*)(bool);
    const std::vector<std::pair<std::string, Runner>> runners = {
        {"putlat", run_putlat},     {"hops", run_hops},
        {"cells", run_cells},       {"threads", run_threads},
        {"droprate", run_droprate}, {"serve", run_serve},
    };

    std::vector<std::string> selected;
    if (sweepArg == "all") {
        for (const auto &[name, fn] : runners)
            selected.push_back(name);
    } else {
        std::string rest = sweepArg;
        while (!rest.empty()) {
            std::size_t comma = rest.find(',');
            selected.push_back(rest.substr(0, comma));
            rest = comma == std::string::npos
                       ? ""
                       : rest.substr(comma + 1);
        }
    }

    std::printf("Performance-model observatory sweeps%s\n\n",
                quick ? " (quick)" : "");

    int ran = 0;
    for (const std::string &name : selected) {
        Runner fn = nullptr;
        for (const auto &[rname, rfn] : runners)
            if (rname == name)
                fn = rfn;
        if (!fn)
            fatal("unknown sweep '%s' (putlat, hops, cells, "
                  "threads, droprate, serve)",
                  name.c_str());
        model::SweepData d = fn(quick);
        print_sweep(d);
        report_sweep(report, d);
        std::string sweepPath = out_path("SWEEP_" + name + ".json");
        if (!d.write(sweepPath))
            fatal("cannot write %s", sweepPath.c_str());
        std::printf("sweep dataset written to %s\n\n",
                    sweepPath.c_str());
        if (fit) {
            model::SweepModel sm = model::fit_sweep(d);
            std::printf("%s", sm.text().c_str());
            std::string modelPath =
                out_path("MODEL_" + name + ".json");
            if (!sm.write(modelPath))
                fatal("cannot write %s", modelPath.c_str());
            std::printf("fitted model written to %s\n\n",
                        modelPath.c_str());
        }
        ++ran;
    }
    report.set("sweeps_run", static_cast<std::uint64_t>(ran));

    if (calibrate)
        run_calibration(quick, report);

    if (!report.write())
        fatal("cannot write %s", report.path().c_str());
    return 0;
}
