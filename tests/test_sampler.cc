/**
 * @file
 * Timeline-sampler tests: period boundary math (including tick
 * saturation), bounded-ring wrap-around, delta-vs-level series
 * correctness against hand-computed snapshots, driving a real event
 * queue in period slices, JSON schema, the CSV export round-trip,
 * the registry's skip-prefix dump, and the observer guarantee —
 * sampling must not perturb the byte-identity between one kernel
 * thread and several — and a run whose waits arm watchdog deadlines
 * ends its timeline with the program, inside the sample ring.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/types.hh"
#include "core/program.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "obs/json.hh"
#include "obs/sampler.hh"
#include "obs/stats_registry.hh"
#include "sim/eventq.hh"

using namespace ap;
using namespace ap::obs;

namespace
{

/** Sum one series across all retained samples. */
std::int64_t
series_total(const TimelineSampler &tl, std::size_t idx)
{
    std::int64_t sum = 0;
    for (const TimelineSample &s : tl.samples())
        sum += s.values[idx];
    return sum;
}

} // namespace

TEST(Sampler, NextBoundaryIsStrictlyAfterNow)
{
    StatsRegistry reg;
    TimelineSampler tl(reg, 100);
    EXPECT_EQ(tl.next_boundary(0), 100u);
    EXPECT_EQ(tl.next_boundary(1), 100u);
    EXPECT_EQ(tl.next_boundary(99), 100u);
    EXPECT_EQ(tl.next_boundary(100), 200u); // strictly after
    EXPECT_EQ(tl.next_boundary(101), 200u);
    EXPECT_EQ(tl.next_boundary(1000), 1100u);
}

TEST(Sampler, NextBoundarySaturatesNearMaxTick)
{
    StatsRegistry reg;
    TimelineSampler tl(reg, 100);
    EXPECT_EQ(tl.next_boundary(max_tick), max_tick);
    EXPECT_EQ(tl.next_boundary(max_tick - 1), max_tick);

    TimelineSampler one(reg, 1);
    EXPECT_EQ(one.next_boundary(max_tick - 1), max_tick);
    EXPECT_EQ(one.next_boundary(max_tick), max_tick);
}

TEST(Sampler, RingWrapsKeepingNewestOldestFirst)
{
    StatsRegistry reg;
    std::uint64_t c = 0;
    reg.add_counter("x.count", &c);
    TimelineSampler tl(reg, 10, {{"count", "x.count", false}},
                       /*capacity=*/4);
    tl.start();
    for (Tick t = 10; t <= 70; t += 10) {
        ++c;
        tl.sample(t);
    }
    EXPECT_EQ(tl.taken(), 7u);
    EXPECT_EQ(tl.size(), 4u);
    EXPECT_EQ(tl.dropped(), 3u);
    std::vector<TimelineSample> rows = tl.samples();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows.front().tick, 40u); // oldest retained
    EXPECT_EQ(rows.back().tick, 70u);
    for (const TimelineSample &s : rows)
        EXPECT_EQ(s.values[0], 1); // one increment per period
}

TEST(Sampler, DeltaAndLevelSeriesAgainstHandComputedSnapshots)
{
    StatsRegistry reg;
    std::uint64_t a0 = 0, a1 = 0, depth = 0;
    reg.add_counter("cell0.msc.puts_sent", &a0);
    reg.add_counter("cell1.msc.puts_sent", &a1);
    reg.add_gauge("net.depth", &depth);

    TimelineSampler tl(reg, 100,
                       {{"puts", "*.msc.puts_sent", false},
                        {"depth", "net.depth", true}});
    tl.start();

    a0 = 5;
    a1 = 2;
    depth = 9;
    tl.sample(100);
    a0 = 6; // +1
    a1 = 10; // +8
    depth = 3;
    tl.sample(200);
    tl.sample(300); // nothing moved

    std::vector<TimelineSample> rows = tl.samples();
    ASSERT_EQ(rows.size(), 3u);
    // Delta series: summed change across the matching paths.
    EXPECT_EQ(rows[0].values[0], 7);
    EXPECT_EQ(rows[1].values[0], 9);
    EXPECT_EQ(rows[2].values[0], 0);
    // Level series: the absolute value at the sample instant.
    EXPECT_EQ(rows[0].values[1], 9);
    EXPECT_EQ(rows[1].values[1], 3);
    EXPECT_EQ(rows[2].values[1], 3);
}

TEST(Sampler, DeltaOfPathsJoiningAndLeavingTheRegistry)
{
    // The header's rule: a delta series differences two sums, so a
    // path that joins counts from zero and a path that leaves takes
    // its last value out of that period's delta.
    StatsRegistry reg;
    std::uint64_t a0 = 3, a1 = 4;
    reg.add_counter("cell0.msc.puts_sent", &a0);
    TimelineSampler tl(reg, 100, {{"puts", "*.msc.puts_sent", false}});
    tl.start();

    reg.add_counter("cell1.msc.puts_sent", &a1);
    tl.sample(100);
    a0 = 5;
    reg.remove_prefix("cell1.");
    tl.sample(200);

    std::vector<TimelineSample> rows = tl.samples();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].values[0], 4);      // cell1 joined at 4
    EXPECT_EQ(rows[1].values[0], 2 - 4);  // cell0 +2, cell1 left
}

TEST(Sampler, DrivesARealSimulatorInPeriodSlices)
{
    StatsRegistry reg;
    std::uint64_t fired = 0;
    reg.add_counter("app.fired", &fired);

    sim::Simulator sim;
    for (Tick t = 50; t <= 1000; t += 50)
        sim.schedule(t, [&]() { ++fired; });

    TimelineSampler tl(reg, 100, {{"fired", "app.fired", false}});
    tl.run(sim);

    EXPECT_TRUE(sim.empty());
    EXPECT_EQ(fired, 20u);
    // Ten 100-tick boundaries cover [0, 1000]; each saw two events.
    EXPECT_EQ(tl.taken(), 10u);
    std::vector<TimelineSample> rows = tl.samples();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].tick, (i + 1) * 100);
        EXPECT_EQ(rows[i].values[0], 2);
    }
    EXPECT_EQ(series_total(tl, 0), 20);
}

TEST(Sampler, SparseQueueStillTerminatesAndSamplesOnce)
{
    StatsRegistry reg;
    std::uint64_t fired = 0;
    reg.add_counter("app.fired", &fired);

    sim::Simulator sim;
    // One event far beyond the first boundary: run_until() does not
    // advance the clock through empty periods, so run() must step
    // boundaries forward itself instead of spinning.
    sim.schedule(100000, [&]() { ++fired; });

    TimelineSampler tl(reg, 10, {{"fired", "app.fired", false}});
    tl.run(sim);
    EXPECT_TRUE(sim.empty());
    EXPECT_EQ(fired, 1u);
    EXPECT_GE(tl.taken(), 1u);
    EXPECT_EQ(series_total(tl, 0), 1);
}

TEST(Sampler, JsonIsValidTimelineSchema)
{
    StatsRegistry reg;
    std::uint64_t c = 0;
    reg.add_counter("x.count", &c);
    TimelineSampler tl(reg, us_to_ticks(1.0),
                       {{"count", "x.count", false},
                        {"count_level", "x.count", true}});
    tl.start();
    c = 3;
    tl.sample(us_to_ticks(1.0));
    c = 8;
    tl.sample(us_to_ticks(2.0));

    std::string doc = tl.json();
    std::string err;
    EXPECT_TRUE(json_valid(doc, &err)) << err;
    EXPECT_NE(doc.find("\"kind\": \"timeline\""), std::string::npos);
    EXPECT_NE(doc.find("\"period_us\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"count\""), std::string::npos);
    EXPECT_NE(doc.find("\"t_us\": 1"), std::string::npos);
    EXPECT_TRUE(json_valid(tl.json(false), &err)) << err;
}

namespace
{

/** Split one CSV line on commas (no escaping in timeline CSV). */
std::vector<std::string>
csv_fields(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

} // namespace

TEST(Sampler, CsvRoundTripsTheRetainedSamples)
{
    StatsRegistry reg;
    std::uint64_t c = 0, depth = 0;
    reg.add_counter("x.count", &c);
    reg.add_gauge("x.depth", &depth);
    TimelineSampler tl(reg, us_to_ticks(2.0),
                       {{"count", "x.count", false},
                        {"depth", "x.depth", true}});
    tl.start();
    c = 3;
    depth = 7;
    tl.sample(us_to_ticks(2.0));
    c = 11;
    depth = 4;
    tl.sample(us_to_ticks(4.0));

    std::string doc = tl.csv();
    std::vector<std::string> lines;
    std::size_t start = 0, nl;
    while ((nl = doc.find('\n', start)) != std::string::npos) {
        lines.push_back(doc.substr(start, nl - start));
        start = nl + 1;
    }
    EXPECT_EQ(start, doc.size()) << "CSV must end in a newline";

    // Header row names every series after the time column.
    ASSERT_EQ(lines.size(), 3u);
    std::vector<std::string> head = csv_fields(lines[0]);
    ASSERT_EQ(head.size(), 3u);
    EXPECT_EQ(head[0], "t_us");
    EXPECT_EQ(head[1], "count");
    EXPECT_EQ(head[2], "depth");

    // Each data row round-trips one retained sample exactly.
    std::vector<TimelineSample> rows = tl.samples();
    ASSERT_EQ(rows.size(), lines.size() - 1);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::vector<std::string> f = csv_fields(lines[i + 1]);
        ASSERT_EQ(f.size(), rows[i].values.size() + 1);
        EXPECT_DOUBLE_EQ(std::stod(f[0]),
                         ticks_to_us(rows[i].tick));
        for (std::size_t j = 0; j < rows[i].values.size(); ++j)
            EXPECT_EQ(std::stoll(f[j + 1]), rows[i].values[j]);
    }
    // And the parsed values are the hand-computed ones.
    std::vector<std::string> r0 = csv_fields(lines[1]);
    EXPECT_EQ(r0[1], "3");
    EXPECT_EQ(r0[2], "7");
    std::vector<std::string> r1 = csv_fields(lines[2]);
    EXPECT_EQ(r1[1], "8"); // delta: 11 - 3
    EXPECT_EQ(r1[2], "4"); // level
}

TEST(Sampler, WriteCsvMatchesCsvString)
{
    StatsRegistry reg;
    std::uint64_t c = 0;
    reg.add_counter("x.count", &c);
    TimelineSampler tl(reg, us_to_ticks(1.0),
                       {{"count", "x.count", false}});
    tl.start();
    c = 5;
    tl.sample(us_to_ticks(1.0));

    std::string path =
        ::testing::TempDir() + "/ap_sampler_roundtrip.csv";
    ASSERT_TRUE(tl.write_csv(path));
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), tl.csv());
    std::remove(path.c_str());
}

TEST(Sampler, DefaultSeriesCoverTheMachineDashboard)
{
    std::vector<SeriesSpec> specs = TimelineSampler::default_series();
    ASSERT_FALSE(specs.empty());
    bool events = false, pending = false;
    for (const SeriesSpec &s : specs) {
        if (s.name == "events")
            events = true;
        if (s.name == "pending_events") {
            pending = true;
            EXPECT_TRUE(s.level);
        }
    }
    EXPECT_TRUE(events);
    EXPECT_TRUE(pending);
}

TEST(StatsRegistry, DumpSkipPrefixOmitsTheSubtree)
{
    StatsRegistry reg;
    std::uint64_t a = 1, b = 2;
    reg.add_counter("sim.shard.0.executed", &a);
    reg.add_counter("tnet.messages", &b);

    std::string full = reg.dump_json(false);
    EXPECT_NE(full.find("shard"), std::string::npos);
    EXPECT_NE(full.find("tnet"), std::string::npos);

    std::string filtered = reg.dump_json(false, "sim.");
    EXPECT_EQ(filtered.find("shard"), std::string::npos);
    EXPECT_NE(filtered.find("tnet"), std::string::npos);
    std::string err;
    EXPECT_TRUE(json_valid(filtered, &err)) << err;

    std::string text = reg.dump_text("sim.");
    EXPECT_EQ(text.find("sim.shard"), std::string::npos);
    EXPECT_NE(text.find("tnet.messages"), std::string::npos);
}

// ------------------------------------------------- observer guarantee

namespace
{

/** A small deterministic ring-PUT workload. */
void
ring_body(core::Context &ctx)
{
    int p = ctx.nprocs();
    CellId right = (ctx.id() + 1) % p;
    Addr buf = ctx.alloc(128);
    Addr flag = ctx.alloc_flag();
    for (int round = 0; round < 4; ++round) {
        ctx.poke_u32(buf, static_cast<std::uint32_t>(
                              ctx.id() * 100 + round));
        ctx.put(right, buf + 64, buf, 32, no_flag, flag);
        ctx.wait_flag(flag, static_cast<std::uint64_t>(round) + 1);
        ctx.barrier();
    }
}

/** Run the workload; @return the machine-behavior stats dump (the
 *  kernel's "sim." self-telemetry excluded) plus the finish tick. */
std::pair<std::string, Tick>
run_ring(int threads, bool sampled,
         std::uint64_t *samplesTaken = nullptr)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.memBytesPerCell = 1 << 20;
    cfg.threads = threads;
    hw::Machine m(cfg);
    if (sampled)
        m.enable_timeline(/*periodUs=*/2.0);
    core::SpmdResult r = core::run_spmd(m, ring_body);
    EXPECT_FALSE(r.deadlock);
    EXPECT_TRUE(r.errors.empty());
    if (samplesTaken != nullptr)
        *samplesTaken = m.timeline()->taken();
    return {m.stats_registry().dump_json(false, "sim."),
            r.finishTick};
}

} // namespace

TEST(Sampler, ObserverDoesNotPerturbShardedByteIdentity)
{
    auto [plain, plainTick] = run_ring(1, false);

    std::uint64_t taken = 0;
    auto [sampled, sampledTick] = run_ring(1, true, &taken);
    EXPECT_GT(taken, 0u) << "sampler never fired";
    EXPECT_EQ(plainTick, sampledTick);
    EXPECT_EQ(plain, sampled)
        << "sampling a sequential run changed machine behavior";

    // The parallel kernel, sampled between run slices, must match.
    for (int threads : {2, 4}) {
        std::uint64_t ptaken = 0;
        auto [par, parTick] = run_ring(threads, true, &ptaken);
        EXPECT_GT(ptaken, 0u);
        EXPECT_EQ(plainTick, parTick) << threads << " threads";
        EXPECT_EQ(plain, par)
            << "sampled parallel run at " << threads
            << " threads diverged from one thread";
    }
}

TEST(Sampler, WaitDeadlinesLeaveNoIdleTail)
{
    // Every flag wait arms a 100 ms watchdog deadline and cancels it
    // once the wait ends, so the run, and the timeline with it, stops
    // at the program's last event rather than at the last deadline.
    for (int threads : {1, 4}) {
        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
        cfg.memBytesPerCell = 1 << 20;
        cfg.threads = threads;
        cfg.retry.watchdogUs = 100000;
        hw::Machine m(cfg);
        const double periodUs = 2.0;
        m.enable_timeline(periodUs);
        core::SpmdResult r = core::run_spmd(m, ring_body);
        EXPECT_TRUE(r.errors.empty());
        const TimelineSampler &tl = *m.timeline();
        EXPECT_EQ(tl.dropped(), 0u) << threads << " threads";
        ASSERT_GT(tl.size(), 0u);
        Tick last = tl.samples().back().tick;
        Tick now = m.sim().now();
        EXPECT_GE(last, now);
        EXPECT_LT(last - now, us_to_ticks(periodUs))
            << threads << " threads";
    }
}
