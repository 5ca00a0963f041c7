/**
 * @file
 * Telemetry-layer tests: JSON emitter/validator, the stats registry
 * (paths, pattern queries, subtree removal, dumps, per-cell schema
 * rows, golden dumps of two 16-cell runs), the shared telemetry
 * flags, span-layer annotations and the Chrome trace
 * Machine::write_trace() renders from them, and the full-log
 * timeline of a two-cell PUT program.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "mlsim/costmodel.hh"
#include "obs/cli.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/stats_registry.hh"
#include "runtime/rts.hh"
#include "sim/eventq.hh"
#include "sim/process.hh"

using namespace ap;
using namespace ap::obs;

// ------------------------------------------------------------------- json

TEST(Json, DottedPathsNest)
{
    JsonTree t;
    t.set("a.b.x", std::uint64_t{1});
    t.set("a.b.y", 2.5);
    t.set_string("a.name", "hi \"there\"\n");
    std::string out = t.render(false);
    std::string err;
    EXPECT_TRUE(json_valid(out, &err)) << err;
    EXPECT_NE(out.find("\"x\": 1"), std::string::npos);
    EXPECT_NE(out.find("\\\"there\\\"\\n"), std::string::npos);
}

TEST(Json, ValidatorAcceptsAndRejects)
{
    EXPECT_TRUE(json_valid("{\"a\": [1, 2.5, -3e2, true, null]}"));
    EXPECT_TRUE(json_valid("[]"));
    std::string err;
    EXPECT_FALSE(json_valid("{\"a\": }", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(json_valid("{\"a\": 1} trailing"));
    EXPECT_FALSE(json_valid("{'a': 1}"));
    EXPECT_FALSE(json_valid(""));
}

// --------------------------------------------------------------- registry

TEST(StatsRegistry, PatternQueriesAndRemoval)
{
    StatsRegistry r;
    std::uint64_t a = 3, b = 7, other = 100;
    r.add_counter("cell0.msc.puts_sent", &a);
    r.add_counter("cell1.msc.puts_sent", &b);
    r.add_counter("cell1.mc.loads", &other);
    Histogram h;
    h.sample(4);
    r.add_histogram("cell0.msc.latency", &h);
    r.add_gauge("machine.level", [] { return std::uint64_t{9}; });

    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r.value("cell0.msc.puts_sent"), 3u);
    EXPECT_EQ(r.value("cell0.msc.latency"), 1u); // histogram count
    EXPECT_EQ(r.value("no.such.path"), 0u);
    EXPECT_EQ(r.sum("*.msc.puts_sent"), 10u);
    EXPECT_EQ(r.sum("*.*.puts_sent"), 10u);
    EXPECT_EQ(r.sum("*.puts_sent"), 0u); // '*' is one segment

    std::string who;
    EXPECT_EQ(r.max_over("*.msc.puts_sent", &who), 7u);
    EXPECT_EQ(who, "cell1.msc.puts_sent");

    b = 11; // entries read live values
    EXPECT_EQ(r.value("cell1.msc.puts_sent"), 11u);

    r.remove_prefix("cell1.");
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.find("cell1.msc.puts_sent"), nullptr);
    EXPECT_NE(r.find("cell0.msc.puts_sent"), nullptr);
}

TEST(StatsRegistry, SnapshotDiffReportsOnlyChange)
{
    StatsRegistry r;
    std::uint64_t puts = 3, gets = 5;
    r.add_counter("cell0.msc.puts_sent", &puts);
    r.add_counter("cell0.msc.gets_sent", &gets);

    StatsRegistry::Snapshot before = r.snapshot();
    EXPECT_EQ(before.at("cell0.msc.puts_sent"), 3u);

    puts = 10; // +7
    std::uint64_t late = 2;
    r.add_counter("cell0.msc.late", &late); // born after the snapshot

    std::map<std::string, std::int64_t> d = r.delta_since(before);
    EXPECT_EQ(d.at("cell0.msc.puts_sent"), 7);
    EXPECT_EQ(d.at("cell0.msc.gets_sent"), 0);
    EXPECT_EQ(d.at("cell0.msc.late"), 2); // counts from zero

    std::string text = StatsRegistry::delta_text(d);
    EXPECT_NE(text.find("puts_sent"), std::string::npos);
    EXPECT_NE(text.find("+7"), std::string::npos);
    // Zero rows are dropped from the table.
    EXPECT_EQ(text.find("gets_sent"), std::string::npos);
    // Largest magnitude first, and maxRows cuts with a marker.
    std::string one = StatsRegistry::delta_text(d, 1);
    EXPECT_NE(one.find("puts_sent"), std::string::npos);
    EXPECT_NE(one.find("more)"), std::string::npos);
    EXPECT_EQ(StatsRegistry::delta_text({}).find("(no change)"), 0u);
}

TEST(StatsRegistry, DumpsAreWellFormed)
{
    StatsRegistry r;
    std::uint64_t v = 42;
    r.add_counter("cell0.msc.puts_sent", &v);
    Histogram h;
    h.sample(3);
    h.sample(100);
    r.add_histogram("cell0.msc.sizes", &h);

    std::string err;
    EXPECT_TRUE(json_valid(r.dump_json(true), &err)) << err;
    EXPECT_TRUE(json_valid(r.dump_json(false), &err)) << err;
    EXPECT_NE(r.dump_json().find("\"puts_sent\""),
              std::string::npos);

    std::string text = r.dump_text();
    EXPECT_NE(text.find("cell0.msc.puts_sent"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
}

namespace
{

struct ProbeRow
{
    std::uint64_t hits = 0;
    Histogram lat;
};

constexpr StatField probe_fields[] = {
    counter_field<&ProbeRow::hits>("hits"),
    histogram_field<&ProbeRow::lat>("lat"),
};

} // namespace

TEST(StatsRegistry, SchemaRowsActAsCellPaths)
{
    StatsRegistry r;
    StatsRegistry::SchemaId x = r.add_schema("x.", probe_fields);
    EXPECT_EQ(r.add_schema("x.", probe_fields), x);
    EXPECT_NE(r.add_schema("y.", probe_fields), x); // no rows, no paths
    ProbeRow rows[12];
    rows[2].hits = 5;
    rows[3].hits = 1;
    rows[10].hits = 5;
    rows[4].lat.sample(8);
    for (int c = 0; c < 12; ++c)
        r.set_row(x, c, &rows[c]);

    EXPECT_EQ(r.size(), 24u);
    std::vector<std::string> p = r.paths();
    ASSERT_EQ(p.size(), 24u);
    EXPECT_EQ(p[0], "cell0.x.hits");
    EXPECT_EQ(p[4], "cell10.x.hits"); // lexicographic, not numeric
    EXPECT_EQ(r.value("cell3.x.hits"), 1u);
    EXPECT_EQ(r.value("cell03.x.hits"), 0u);
    EXPECT_EQ(r.value("cell4.x.lat"), 1u); // histogram count
    EXPECT_EQ(r.sum("*.x.hits"), 11u);
    EXPECT_EQ(r.sum("cell2.*.hits"), 5u);
    EXPECT_EQ(r.sum("*.hits"), 0u);
    std::string who;
    EXPECT_EQ(r.max_over("*.*.hits", &who), 5u);
    EXPECT_EQ(who, "cell10.x.hits");

    const StatEntry *e = r.find("cell4.x.lat");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->hist, &rows[4].lat);
    EXPECT_EQ(r.find("cell4.x.lat"), e);
    rows[3].hits = 9; // rows are read live
    EXPECT_EQ(r.find("cell3.x.hits")->value(), 9u);

    r.set_row(x, 4, nullptr);
    EXPECT_EQ(r.find("cell4.x.lat"), nullptr);
    EXPECT_EQ(r.size(), 22u);
    EXPECT_EQ(r.snapshot().count("cell4.x.hits"), 0u);
}

TEST(StatsRegistry, RuntimeRegistersAndUnregistersItsSubtree)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    hw::Machine m(cfg);

    bool seenWhileAlive = false;
    core::run_spmd(m, [&](core::Context &ctx) {
        {
            rt::Runtime rts(ctx);
            if (ctx.id() == 0)
                seenWhileAlive =
                    ctx.owner().stats_registry().find(
                        "cell0.rts.puts_issued") != nullptr;
            ctx.barrier();
        }
        ctx.barrier();
    });
    EXPECT_TRUE(seenWhileAlive);
    EXPECT_EQ(m.stats_registry().find("cell0.rts.puts_issued"),
              nullptr);
    EXPECT_EQ(m.stats_registry().find("cell1.rts.puts_issued"),
              nullptr);
}

TEST(StatsRegistry, RuntimesBindRowsFromEveryShard)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(8);
    cfg.memBytesPerCell = 1 << 20;
    cfg.threads = 4;
    hw::Machine m(cfg);
    std::size_t before = m.stats_registry().size();
    std::size_t alive = 0;
    auto r = core::run_spmd(m, [&](core::Context &ctx) {
        {
            rt::Runtime rts(ctx);
            ctx.barrier();
            if (ctx.id() == 0)
                alive = ctx.owner().stats_registry().size();
            ctx.barrier();
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(alive, before + 8u * 6u);
    EXPECT_EQ(m.stats_registry().size(), before);
}

// ---------------------------------------------- golden registry output

namespace
{

/** PUT/GET/SEND traffic whose volume differs from cell to cell. */
void
golden_program(core::Context &ctx)
{
    int p = ctx.nprocs();
    CellId right = (ctx.id() + 1) % p;
    CellId left = (ctx.id() + p - 1) % p;
    Addr buf = ctx.alloc(1024);
    Addr landing = ctx.alloc(1024);
    Addr flag = ctx.alloc_flag();
    Addr done = ctx.alloc_flag();
    std::uint32_t bytes = 64u << (ctx.id() % 4);
    ctx.put(right, landing, buf, bytes, no_flag, flag, /*ack=*/true);
    ctx.wait_all_acks();
    ctx.wait_flag(flag, 1);
    ctx.get(left, buf, landing + 512, bytes / 2, no_flag, done);
    ctx.wait_flag(done, 1);
    for (int i = 0; i <= ctx.id() % 3; ++i)
        ctx.send(right, i, buf, 48 + 16 * static_cast<std::uint32_t>(i));
    for (int i = 0; i <= left % 3; ++i)
        ctx.recv(left, i, landing, 1024);
    ctx.barrier();
}

/**
 * The three registry renderings the golden files under tests/golden/
 * pin byte for byte, at any kernel thread count (the kernel's own
 * "sim." subtree left out). A deliberate change to simulated
 * behaviour regenerates them by writing these strings out.
 */
struct GoldenDump
{
    std::string json, text, report;
};

GoldenDump
golden_dump(const hw::Machine &m)
{
    const StatsRegistry &r = m.stats_registry();
    return {r.dump_json(true, "sim."), r.dump_text("sim."), m.report()};
}

hw::MachineConfig
golden_config()
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(16);
    cfg.memBytesPerCell = 1 << 20;
    return cfg;
}

std::string
read_golden(const std::string &name)
{
    std::ifstream in(std::string(AP_GOLDEN_DIR) + "/" + name);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
expect_golden(const GoldenDump &d, const std::string &stem)
{
    EXPECT_EQ(d.json, read_golden(stem + ".json"));
    EXPECT_EQ(d.text, read_golden(stem + ".txt"));
    EXPECT_EQ(d.report, read_golden(stem + ".report.txt"));
}

} // namespace

TEST(StatsRegistry, GoldenOutputsOfAPutGetSendRun)
{
    for (int threads : {2, 4}) {
        hw::MachineConfig cfg = golden_config();
        cfg.threads = threads;
        hw::Machine par(cfg);
        ASSERT_FALSE(core::run_spmd(par, golden_program).failed());
        expect_golden(golden_dump(par), "registry_plain");
    }

    hw::Machine m(golden_config());
    auto r = core::run_spmd(m, golden_program);
    ASSERT_FALSE(r.deadlock);
    ASSERT_TRUE(r.errors.empty());
    expect_golden(golden_dump(m), "registry_plain");

    const StatsRegistry &reg = m.stats_registry();
    // 16 cells x 66 per-cell paths, plus the machine-wide ones.
    EXPECT_EQ(reg.size(), reg.paths().size());
    EXPECT_GT(reg.size(), 16u * 66u);
    const StatEntry *e = reg.find("cell5.msc.cmd_latency_us");
    ASSERT_NE(e, nullptr);
    ASSERT_NE(e->hist, nullptr);
    EXPECT_EQ(e->kind, StatKind::histogram);
    EXPECT_EQ(e->value(), m.cell(5).msc().stats().cmdLatencyUs.scalar()
                              .count());
    EXPECT_EQ(reg.value("cell13.msc.puts_sent"),
              m.cell(13).msc().stats().putsSent);
    EXPECT_EQ(reg.value("cell3.msc.user_queue.pushes"),
              m.cell(3).msc().user_queue().stats().pushes);
    EXPECT_EQ(reg.find("cell16.msc.puts_sent"), nullptr);
    EXPECT_EQ(reg.find("cell05.msc.puts_sent"), nullptr);
    EXPECT_EQ(reg.find("cell5.msc.no_such_counter"), nullptr);
    EXPECT_EQ(reg.find("cell5.rnet.data_sent"), nullptr); // rnet off
    std::uint64_t spills = 0;
    for (int c = 0; c < 16; ++c)
        for (const hw::CommandQueue *q :
             {&m.cell(c).msc().user_queue(),
              &m.cell(c).msc().system_queue(),
              &m.cell(c).msc().remote_queue(),
              &m.cell(c).msc().get_reply_queue(),
              &m.cell(c).msc().load_reply_queue()})
            spills += q->stats().spills;
    EXPECT_EQ(reg.sum("*.msc.*.spills"), spills);
    EXPECT_EQ(reg.sum("cell7.msc.sends_sent"),
              m.cell(7).msc().stats().sendsSent);
    // Cells 2, 5, 8, 11 and 14 tie at three SENDs each; the
    // lexicographically first path wins, so cell11 beats cell2.
    std::string who;
    EXPECT_EQ(reg.max_over("*.msc.sends_sent", &who), 3u);
    EXPECT_EQ(who, "cell11.msc.sends_sent");
}

TEST(StatsRegistry, GoldenOutputsOfAChaosRunWithTheRuntimeAlive)
{
    // The dump is taken with every cell's runtime alive, at the first
    // 1 us boundary after cell 0 leaves the overlap-fix barrier: the
    // kernel stops there with every shard quiescent, so the dump
    // reads the same at any thread count.
    for (int threads : {1, 2, 4}) {
        hw::MachineConfig cfg = golden_config();
        // Seeds 1-3 stall the program at an injected page fault
        // that nothing retries; 4 is the first that completes.
        cfg.faults = sim::FaultPlan::chaos(4);
        cfg.reliableNet = true;
        cfg.threads = threads;
        hw::Machine m(cfg);
        net::Snet::ContextId all = m.snet().create_context();
        std::vector<std::unique_ptr<sim::Process>> procs;
        std::vector<std::unique_ptr<core::Context>> ctxs;
        std::atomic<bool> fixed{false};
        for (int i = 0; i < m.size(); ++i) {
            procs.push_back(std::make_unique<sim::Process>(
                m.sim(), strprintf("cell%d", i),
                [&, i](sim::Process &) {
                    core::Context &ctx =
                        *ctxs[static_cast<std::size_t>(i)];
                    rt::Runtime rts(ctx);
                    rt::GArray2D a(ctx, 32, 32, rt::SplitDim::rows, 1);
                    golden_program(ctx);
                    rts.overlap_fix(a);
                    ctx.barrier();
                    if (ctx.id() == 0)
                        fixed = true;
                    ctx.compute_us(50.0);
                    ctx.barrier();
                }));
            ctxs.push_back(std::make_unique<core::Context>(
                m, i, *procs.back(), all, nullptr));
            procs.back()->set_affinity(i);
            procs.back()->start(0);
        }
        for (Tick t = 0; !fixed && !m.sim().empty();)
            m.sim().run_until(t += us_to_ticks(1.0));
        ASSERT_TRUE(fixed) << threads << " threads";
        GoldenDump live = golden_dump(m);
        std::size_t rtsPaths = m.stats_registry().size();
        m.sim().run();
        for (const auto &p : procs)
            ASSERT_TRUE(p->finished()) << threads << " threads";
        expect_golden(live, "registry_chaos");
        // The runtimes' six paths per cell left with them.
        EXPECT_EQ(m.stats_registry().size(), rtsPaths - 16u * 6u);
        EXPECT_EQ(m.stats_registry().find("cell0.rts.moves"), nullptr);
    }
}

// --------------------------------------------------- telemetry flags

TEST(ObsArgs, ConsumesOutputPaths)
{
    ObsOptions opt;
    EXPECT_TRUE(consume_obs_arg("--stats-out=s.json", opt));
    EXPECT_TRUE(consume_obs_arg("--trace-out=t.json", opt));
    EXPECT_EQ(opt.statsOut, "s.json");
    EXPECT_EQ(opt.traceOut, "t.json");
    EXPECT_TRUE(opt.any());

    EXPECT_FALSE(consume_obs_arg("--cells=4", opt));
    EXPECT_FALSE(consume_obs_arg("stray", opt));
}

TEST(ObsArgsDeathTest, TimelinePeriodIsAFiniteCountOfTicks)
{
    ObsOptions opt;
    EXPECT_TRUE(consume_obs_arg("--timeline-period-us=0.001", opt));
    EXPECT_EQ(opt.timelinePeriodUs, 0.001);
    // Non-finite, trailing characters, under one tick, past the tick
    // range: each exits 1 naming the argument.
    for (const char *bad : {"inf", "nan", "5x", "", "0.0001", "0", "-5",
                            "1e300"})
        EXPECT_EXIT(consume_obs_arg((std::string("--timeline-period-us=") +
                                     bad).c_str(),
                                    opt),
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: --timeline-period-us=") + bad +
                        ":")
            << bad;
}

// ------------------------------------------- span-layer annotations

TEST(Annotations, KeepSimulatedTimeAndTrack)
{
    SpanLayer layer(4, 16);
    // Flight mode keeps no annotations at all.
    layer.instant(2, "test", "mark", us_to_ticks(1.0));
    EXPECT_TRUE(layer.events().empty());

    layer.set_mode(SpanMode::full);
    layer.span(2, "test", "work", us_to_ticks(1.0), us_to_ticks(5.0),
               {"job", 7}, {"attempt", 2});
    layer.instant(machine_track, "test", "mark", us_to_ticks(5.0));

    const std::vector<SpanEvent> &log = layer.events();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].kind, SpanKind::span);
    EXPECT_EQ(log[0].begin, us_to_ticks(1.0));
    EXPECT_EQ(log[0].end, us_to_ticks(5.0));
    EXPECT_EQ(log[0].cell, 2);
    EXPECT_EQ(log[0].aux, 7u);
    EXPECT_EQ(log[0].aux2, 2u);
    EXPECT_EQ(span_name(log[0].name).name, "work");
    EXPECT_STREQ(span_name(log[0].name).cat, "test");
    EXPECT_STREQ(span_name(log[0].name).auxKey, "job");
    EXPECT_STREQ(span_name(log[0].name).aux2Key, "attempt");

    EXPECT_EQ(log[1].kind, SpanKind::instant);
    EXPECT_EQ(log[1].begin, us_to_ticks(5.0));
    EXPECT_EQ(log[1].end, us_to_ticks(5.0));
    EXPECT_EQ(log[1].cell, machine_track);
    EXPECT_EQ(span_name(log[1].name).name, "mark");

    // Annotations are untraced and stay out of the flight rings.
    for (const SpanEvent &ev : log)
        EXPECT_EQ(ev.traceId, 0u);
    EXPECT_TRUE(layer.flight_events().empty());
    EXPECT_EQ(layer.recorded(), 0u);
}

namespace
{

/** Read a whole file; empty when it cannot be opened. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Machine::write_trace() of @p m, read back from a temp file. */
std::string
trace_of(const hw::Machine &m, const char *file)
{
    std::string path = testing::TempDir() + file;
    EXPECT_TRUE(m.write_trace(path));
    std::string doc = slurp(path);
    std::remove(path.c_str());
    return doc;
}

/** The Chrome trace of a four-cell PUT ring whose cell 3 is killed
 *  at 200 us, run on @p threads kernel threads. */
std::string
kill_ring_trace(int threads)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.memBytesPerCell = 1 << 20;
    cfg.threads = threads;
    cfg.spanMode = SpanMode::full;
    cfg.faults.kills.push_back({3, 200.0});
    hw::Machine m(cfg);
    core::run_spmd(m, [](core::Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 3)
            return;
        CellId peer = (ctx.id() + 1) % 3;
        for (int i = 0; i < 4; ++i)
            ctx.put(peer, buf, buf, 64, no_flag, rf);
        ctx.wait_flag(rf, 4);
    });
    return trace_of(m, "ap_trace_kinds.json");
}

} // namespace

TEST(Annotations, WriteTraceIsTheSameAtEveryThreadCount)
{
    // A killed cell gives an instant, the PUT traffic stage spans.
    EXPECT_FALSE(hw::Machine(hw::MachineConfig::ap1000_plus(2))
                     .write_trace(testing::TempDir() + "off.json"));
    std::string doc = kill_ring_trace(1);
    std::string err;
    EXPECT_TRUE(json_valid(doc, &err)) << err;
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"kill\""), std::string::npos);
    EXPECT_NE(doc.find("\"args\": {\"cell\": 3}"), std::string::npos);
    EXPECT_NE(doc.find("\"otherData\": {\"dropped\": 0}"),
              std::string::npos);
    // The kernel's windows are host telemetry and stay out: two
    // threads record the same events, and the exporter's one order
    // makes the same bytes of them.
    EXPECT_EQ(kill_ring_trace(2), doc);
}

TEST(Annotations, OverflowTraceShowsSpillsOnTheTimeline)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    cfg.faults = sim::FaultPlan::overflows(7);
    cfg.spanMode = SpanMode::full;
    hw::Machine m(cfg);
    auto r = core::run_spmd(m, [](core::Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0)
            for (int i = 0; i < 16; ++i)
                ctx.put(1, buf, buf, 64, no_flag, rf);
        else
            ctx.wait_flag(rf, 16);
    });
    ASSERT_FALSE(r.failed());

    std::string doc = trace_of(m, "ap_trace_spill.json");
    EXPECT_NE(doc.find("\"name\": \"spill:user_queue\", \"cat\": "
                       "\"queue\", \"ph\": \"i\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"forced_spill\", \"cat\": "
                       "\"fault\", \"ph\": \"i\""),
              std::string::npos);
}

// ----------------------------------------------- end-to-end PUT timeline

TEST(Annotations, TwoCellPutFullLogReadsThePipelineInOrder)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    cfg.spanMode = SpanMode::full;
    hw::Machine m(cfg);

    auto r = core::run_spmd(m, [](core::Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64, no_flag, rf);
        if (ctx.id() == 1)
            ctx.wait_flag(rf, 1);
    });
    ASSERT_FALSE(r.deadlock);

    // Recording order of one flagged PUT: issue and queueing on the
    // sender, its gather DMA, the T-net flight (stamped at
    // injection), the receiving MSC+'s scatter and flag update, and
    // last the waiting processor's annotation span.
    std::vector<std::string> names;
    for (const SpanEvent &ev : m.spans().events())
        names.push_back(ev.name == 0 ? to_string(ev.stage)
                                     : span_name(ev.name).name);
    std::vector<std::string> expect = {
        "issue",    "queue", "dma_send", "net",
        "dma_recv", "flag",  "wait_flag",
    };
    EXPECT_EQ(names, expect);

    // Each stage lasts what its Figure 6 items cost, rounded to ticks
    // the way the emulator rounds them: the send DMA's setup and its
    // stream are two delays. Today 160, 3060, 4160 and 3060 ticks.
    const mlsim::Params c = mlsim::Params::ap1000_plus();
    std::map<std::string, Tick> length;
    for (const SpanEvent &ev : m.spans().events())
        if (ev.name == 0)
            length[to_string(ev.stage)] = ev.end - ev.begin;
    EXPECT_EQ(length["issue"], us_to_ticks(c.put_enqueue_time));
    EXPECT_EQ(length["dma_send"],
              us_to_ticks(c.put_dma_set_time) +
                  us_to_ticks(c.network_msg_time * 64));
    EXPECT_EQ(length["net"],
              us_to_ticks(mlsim::CostModel(c).network(
                  m.topology().distance(0, 1),
                  64 + net::Message::header_bytes)));
    EXPECT_EQ(length["dma_recv"],
              us_to_ticks(c.recv_dma_set_time +
                          c.network_msg_time * 64));
}
