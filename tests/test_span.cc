/**
 * @file
 * Causal-span layer tests: trace-id propagation of PUT/GET/SEND
 * operations across cells (including reliable-layer retransmits and
 * GET replies), exact critical-path attribution on a synthetic span
 * DAG, flight-recorder ring wrap-around, the full log's drop count
 * and its partial-profile report, full mode leaving the flight
 * rings and the profile as flight mode has them, and the postmortem
 * dump every CommError carries.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/program.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "obs/critpath.hh"
#include "obs/flight.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "sim/fault.hh"

using namespace ap;
using namespace ap::obs;

// The flight path stores events by value in preallocated rings: the
// record must stay plain data, and no larger than it has been.
static_assert(std::is_trivially_copyable_v<SpanEvent>);
static_assert(sizeof(SpanEvent) <= 40);

namespace
{

/** Events of one trace, in log order. */
std::vector<SpanEvent>
of_trace(const std::vector<SpanEvent> &events, std::uint64_t id)
{
    std::vector<SpanEvent> out;
    for (const SpanEvent &e : events)
        if (e.traceId == id)
            out.push_back(e);
    return out;
}

/** Trace ids whose issue event carries @p op. */
std::vector<std::uint64_t>
traces_of_op(const std::vector<SpanEvent> &events, SpanOp op)
{
    std::vector<std::uint64_t> out;
    for (const SpanEvent &e : events)
        if (e.op == op && e.stage == SpanStage::issue)
            out.push_back(e.traceId);
    return out;
}

bool
has_stage(const std::vector<SpanEvent> &events, SpanStage stage)
{
    for (const SpanEvent &e : events)
        if (e.stage == stage)
            return true;
    return false;
}

SpanEvent
ev(std::uint64_t id, SpanStage stage, Tick begin, Tick end,
   SpanOp op = SpanOp::none)
{
    SpanEvent e;
    e.traceId = id;
    e.begin = begin;
    e.end = end;
    e.cell = 0;
    e.stage = stage;
    e.op = op;
    return e;
}

} // namespace

// --------------------------------------------------------- flight ring

TEST(FlightRecorder, WrapAroundKeepsNewestOldestFirst)
{
    FlightRecorder fr(4);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        SpanEvent e;
        e.traceId = i;
        e.begin = i;
        e.end = i + 1;
        fr.push(e);
    }
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.dropped(), 6u);
    std::vector<SpanEvent> snap = fr.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Oldest retained first; the last four pushes survive.
    EXPECT_EQ(snap.front().traceId, 7u);
    EXPECT_EQ(snap.back().traceId, 10u);
    // Bounded snapshot keeps the *last* maxEvents.
    std::vector<SpanEvent> tail = fr.snapshot(2);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail.front().traceId, 9u);
    EXPECT_EQ(tail.back().traceId, 10u);
}

TEST(FlightRecorder, SpanLayerRingsWrapPerCell)
{
    SpanLayer layer(2, 4);
    layer.set_mode(SpanMode::flight);
    for (int i = 0; i < 10; ++i) {
        std::uint64_t id = layer.new_trace(0);
        layer.record(0, id, SpanStage::issue, i, i + 1);
    }
    EXPECT_EQ(layer.flight(0).size(), 4u);
    EXPECT_EQ(layer.flight(0).dropped(), 6u);
    EXPECT_EQ(layer.flight(1).size(), 0u);
    // Flight mode keeps no full log.
    EXPECT_TRUE(layer.events().empty());
    std::vector<SpanEvent> merged = layer.flight_events();
    EXPECT_EQ(merged.size(), 4u);
    for (std::size_t i = 1; i < merged.size(); ++i)
        EXPECT_LE(merged[i - 1].begin, merged[i].begin);
}

TEST(FullLog, CountsEventsDroppedAtItsBound)
{
    SpanLayer layer(1, 4);
    layer.set_mode(SpanMode::full);
    std::uint64_t id = layer.new_trace(0);
    layer.record(0, id, SpanStage::issue, 0, 10, SpanOp::put);
    layer.record(0, id, SpanStage::net, 10, 30);
    // Fill the bound, and three events past it, with annotations:
    // they count against the bound like any event.
    for (Tick t = 2; t < SpanLayer::default_full_capacity + 3; ++t)
        layer.instant(0, "test", "fill", t);
    EXPECT_EQ(layer.events().size(), SpanLayer::default_full_capacity);
    EXPECT_EQ(layer.full_dropped(), 3u);

    CritPathReport rep =
        analyze_spans(layer.events(), layer.full_dropped());
    EXPECT_EQ(rep.dropped, 3u);
    EXPECT_EQ(rep.traces, 1u);
    std::string text = rep.text();
    EXPECT_NE(text.find("PARTIAL: 3 span events dropped at the "
                        "1048576-event bound"),
              std::string::npos)
        << text;
    // The coverage line itself says what its percentage covers.
    std::size_t at = text.find("(coverage ");
    ASSERT_NE(at, std::string::npos) << text;
    std::string coverageLine = text.substr(at, text.find('\n', at) - at);
    EXPECT_EQ(coverageLine,
              "(coverage 100.0% of the retained events only; 3 span "
              "events dropped)")
        << text;
    std::string json = rep.json(false);
    std::string err;
    EXPECT_TRUE(json_valid(json, &err)) << err;
    EXPECT_NE(json.find("\"dropped\": 3"), std::string::npos) << json;

    // A complete log reports nothing partial.
    CritPathReport whole = analyze_spans(layer.events());
    EXPECT_EQ(whole.text().find("PARTIAL"), std::string::npos);
    EXPECT_NE(whole.text().find("(coverage 100.0%)\n"),
              std::string::npos)
        << whole.text();
    EXPECT_NE(whole.json(false).find("\"dropped\": 0"),
              std::string::npos);
}

// ------------------------------------------------------- id propagation

TEST(SpanPropagation, PutTraceCoversAllPipelineStages)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.spanMode = SpanMode::full;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        Addr buf = ctx.alloc(256);
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 256, no_flag, flag);
        else
            ctx.wait_flag(flag, 1); // recv_flag lands on the dst
    });
    ASSERT_FALSE(r.failed());

    const std::vector<SpanEvent> &log = m.spans().events();
    std::vector<std::uint64_t> puts = traces_of_op(log, SpanOp::put);
    ASSERT_EQ(puts.size(), 1u);
    std::vector<SpanEvent> trace = of_trace(log, puts.front());

    // One id threads the whole lifecycle: issue and DMA-send on the
    // sender, network flight, receive DMA and flag on the receiver.
    EXPECT_TRUE(has_stage(trace, SpanStage::issue));
    EXPECT_TRUE(has_stage(trace, SpanStage::queue));
    EXPECT_TRUE(has_stage(trace, SpanStage::dma_send));
    EXPECT_TRUE(has_stage(trace, SpanStage::net));
    EXPECT_TRUE(has_stage(trace, SpanStage::dma_recv));
    EXPECT_TRUE(has_stage(trace, SpanStage::flag));
    std::set<std::int32_t> cells;
    for (const SpanEvent &e : trace)
        cells.insert(e.cell);
    EXPECT_TRUE(cells.count(0));
    EXPECT_TRUE(cells.count(1));

    // The profiler's acceptance bar: >= 95% of the PUT's end-to-end
    // latency lands in named stages.
    CritPathReport rep = analyze_spans(log);
    EXPECT_GE(rep.op_coverage(SpanOp::put), 0.95);
    EXPECT_GT(rep.ops[static_cast<std::size_t>(SpanOp::put)].traces,
              0u);
}

TEST(SpanPropagation, GetReplySharesTheRequestTraceId)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.spanMode = SpanMode::full;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        Addr buf = ctx.alloc(256);
        if (ctx.id() == 0) {
            ctx.get(1, 0x8000, buf, 128, no_flag, flag);
            ctx.wait_flag(flag, 1);
        }
    });
    ASSERT_FALSE(r.failed());

    const std::vector<SpanEvent> &log = m.spans().events();
    std::vector<std::uint64_t> gets = traces_of_op(log, SpanOp::get);
    ASSERT_EQ(gets.size(), 1u);
    std::vector<SpanEvent> trace = of_trace(log, gets.front());

    // Request leg (0 -> 1) and reply leg (1 -> 0) both record a net
    // span under the same id, and the reply's receive DMA + flag
    // land back on the origin cell.
    int netSpans = 0;
    for (const SpanEvent &e : trace)
        if (e.stage == SpanStage::net)
            ++netSpans;
    EXPECT_GE(netSpans, 2);
    bool recvOnOrigin = false, flagOnOrigin = false;
    for (const SpanEvent &e : trace) {
        if (e.cell != 0)
            continue;
        if (e.stage == SpanStage::dma_recv)
            recvOnOrigin = true;
        if (e.stage == SpanStage::flag)
            flagOnOrigin = true;
    }
    EXPECT_TRUE(recvOnOrigin);
    EXPECT_TRUE(flagOnOrigin);
    EXPECT_GE(analyze_spans(log).op_coverage(SpanOp::get), 0.95);
}

TEST(SpanPropagation, RetransmitsBecomeChildSpansOfTheOriginalTrace)
{
    // Half the T-net messages drop; the reliable layer's go-back-N
    // recovery must tag every resend with the original operation's
    // trace id (stage retransmit, aux = try count).
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.spanMode = SpanMode::full;
    cfg.faults = sim::FaultPlan::drops(7, 0.5);
    cfg.reliableNet = true;
    cfg.retry.watchdogUs = 2000000.0;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        Addr buf = ctx.alloc(256);
        if (ctx.id() == 0)
            for (int i = 0; i < 16; ++i)
                ctx.put(1, buf, buf, 256, no_flag, flag);
        else
            ctx.wait_flag(flag, 16);
    });
    ASSERT_FALSE(r.failed())
        << (r.errors.empty() ? "deadlock" : r.errors.front());

    const std::vector<SpanEvent> &log = m.spans().events();
    std::set<std::uint64_t> issued;
    for (const SpanEvent &e : log)
        if (e.stage == SpanStage::issue)
            issued.insert(e.traceId);
    int retransmits = 0;
    for (const SpanEvent &e : log) {
        if (e.stage != SpanStage::retransmit)
            continue;
        ++retransmits;
        // A child span, not a fresh trace: the id was issued.
        EXPECT_TRUE(issued.count(e.traceId))
            << "retransmit of unknown trace " << e.traceId;
        EXPECT_GE(e.aux, 1u);
    }
    EXPECT_GT(retransmits, 0)
        << "50% drop over 16 PUTs produced no retransmission";
}

TEST(SpanPropagation, OffModeAllocatesNoIdsAndRecordsNothing)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.spanMode = SpanMode::off;
    hw::Machine m(cfg);
    EXPECT_EQ(m.spans().new_trace(0), 0u);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        Addr buf = ctx.alloc(64);
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64, no_flag, flag);
        else
            ctx.wait_flag(flag, 1);
        ctx.barrier();
    });
    ASSERT_FALSE(r.failed());
    EXPECT_EQ(m.spans().recorded(), 0u);
    EXPECT_TRUE(m.spans().flight_events().empty());
}

// --------------------------------------------------------- attribution

TEST(CritPath, ExactAttributionOnSyntheticDag)
{
    // issue [0,10], queue [10,20], net [15,40], dma_recv [40,50]:
    // the [15,20] overlap goes to net (latest begin wins), so
    // queue keeps exactly [10,15].
    std::vector<SpanEvent> log;
    log.push_back(ev(1, SpanStage::issue, 0, 10, SpanOp::put));
    log.push_back(ev(1, SpanStage::queue, 10, 20));
    log.push_back(ev(1, SpanStage::net, 15, 40));
    log.push_back(ev(1, SpanStage::dma_recv, 40, 50));

    CritPathReport rep = analyze_spans(log);
    EXPECT_EQ(rep.traces, 1u);
    EXPECT_EQ(rep.events, 4u);
    EXPECT_EQ(rep.endToEndTicks, 50u);
    EXPECT_EQ(rep.attributedTicks, 50u);
    EXPECT_DOUBLE_EQ(rep.coverage(), 1.0);
    auto busy = [&](SpanStage s) {
        return rep.stages[static_cast<std::size_t>(s)].busyTicks;
    };
    EXPECT_EQ(busy(SpanStage::issue), 10u);
    EXPECT_EQ(busy(SpanStage::queue), 5u);
    EXPECT_EQ(busy(SpanStage::net), 25u);
    EXPECT_EQ(busy(SpanStage::dma_recv), 10u);

    const OpAttribution &put =
        rep.ops[static_cast<std::size_t>(SpanOp::put)];
    EXPECT_EQ(put.traces, 1u);
    EXPECT_EQ(put.endToEndTicks, 50u);
    EXPECT_EQ(
        put.stageTicks[static_cast<std::size_t>(SpanStage::net)],
        25u);
}

TEST(CritPath, GapsCountAsUnattributed)
{
    // A [10,20] hole between the two spans must show up as lost
    // coverage, not be silently absorbed.
    std::vector<SpanEvent> log;
    log.push_back(ev(2, SpanStage::issue, 0, 10, SpanOp::get));
    log.push_back(ev(2, SpanStage::net, 20, 30));
    CritPathReport rep = analyze_spans(log);
    EXPECT_EQ(rep.endToEndTicks, 30u);
    EXPECT_EQ(rep.attributedTicks, 20u);
    EXPECT_NEAR(rep.coverage(), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(rep.op_coverage(SpanOp::get), 2.0 / 3.0, 1e-9);
}

TEST(CritPath, RetransmitChildStealsTimeFromItsParentSpan)
{
    // A retransmit inside a net span is the innermost cover of its
    // window; the parent keeps only the flanks.
    std::vector<SpanEvent> log;
    log.push_back(ev(3, SpanStage::net, 0, 100, SpanOp::put));
    log.push_back(ev(3, SpanStage::retransmit, 40, 60));
    CritPathReport rep = analyze_spans(log);
    auto busy = [&](SpanStage s) {
        return rep.stages[static_cast<std::size_t>(s)].busyTicks;
    };
    EXPECT_EQ(busy(SpanStage::net), 80u);
    EXPECT_EQ(busy(SpanStage::retransmit), 20u);
    EXPECT_DOUBLE_EQ(rep.coverage(), 1.0);
}

TEST(CritPath, ReportRendersTextAndValidJson)
{
    std::vector<SpanEvent> log;
    log.push_back(ev(4, SpanStage::issue, 0, 10, SpanOp::send));
    log.push_back(ev(4, SpanStage::net, 10, 30));
    CritPathReport rep = analyze_spans(log);
    std::string text = rep.text();
    EXPECT_NE(text.find("issue"), std::string::npos);
    EXPECT_NE(text.find("send"), std::string::npos);
    EXPECT_NE(text.find("coverage"), std::string::npos);
    std::string err;
    EXPECT_TRUE(json_valid(rep.json(), &err)) << err;
}

// ------------------------------------------------ full vs flight mode

namespace
{

bool
same_event(const SpanEvent &a, const SpanEvent &b)
{
    return a.traceId == b.traceId && a.begin == b.begin &&
           a.end == b.end && a.cell == b.cell && a.aux == b.aux &&
           a.aux2 == b.aux2 && a.stage == b.stage && a.op == b.op &&
           a.kind == b.kind && a.name == b.name;
}

/** A 16-cell run with PUTs, flag and ack waits and collectives, in
 *  span mode @p mode; @p full receives the full log. */
std::vector<SpanEvent>
flight_of_run(SpanMode mode, std::vector<SpanEvent> *full)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(16);
    cfg.memBytesPerCell = 1 << 20;
    cfg.spanMode = mode;
    hw::Machine m(cfg);
    core::SpmdResult r = core::run_spmd(m, [](core::Context &ctx) {
        Addr buf = ctx.alloc(256);
        Addr rf = ctx.alloc_flag();
        CellId next = (ctx.id() + 1) % ctx.nprocs();
        ctx.put(next, buf, buf, 256, no_flag, rf, true);
        ctx.wait_flag(rf, 1);
        ctx.wait_all_acks();
        ctx.barrier();
        ctx.allreduce(ctx.id(), core::ReduceOp::sum);
    });
    EXPECT_FALSE(r.failed());
    if (full)
        *full = m.spans().events();
    return m.spans().flight_events();
}

} // namespace

TEST(FullMode, KeepsFlightRingsAndCritPathAsInFlightMode)
{
    std::vector<SpanEvent> full;
    std::vector<SpanEvent> flight = flight_of_run(SpanMode::flight,
                                                  nullptr);
    std::vector<SpanEvent> withFull = flight_of_run(SpanMode::full,
                                                    &full);
    ASSERT_FALSE(flight.empty());
    ASSERT_EQ(flight.size(), withFull.size());
    for (std::size_t i = 0; i < flight.size(); ++i)
        EXPECT_TRUE(same_event(flight[i], withFull[i])) << "event " << i;

    // The full log carries annotations, and critpath never sees them.
    std::vector<SpanEvent> stagesOnly;
    for (const SpanEvent &e : full)
        if (e.traceId != 0)
            stagesOnly.push_back(e);
    ASSERT_LT(stagesOnly.size(), full.size());
    EXPECT_EQ(analyze_spans(full).json(), analyze_spans(stagesOnly).json());
}

// ----------------------------------------------------------- postmortem

TEST(Postmortem, CommErrorCarriesANonEmptyFlightDump)
{
    // Total loss, no retries: the flag never arrives, the watchdog
    // fires, and the CommError must embed the flight-recorder tail
    // with real span events in it.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.faults = sim::FaultPlan::drops(31, 1.0);
    cfg.retry.watchdogUs = 500.0;
    hw::Machine m(cfg);

    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        if (ctx.id() == 0) {
            Addr buf = ctx.alloc(64);
            ctx.put(1, 0x800, buf, 64, no_flag, flag, false);
            return;
        }
        ctx.wait_flag(flag, 1);
    });

    ASSERT_EQ(r.errors.size(), 1u);
    const std::string &err = r.errors.front();
    EXPECT_NE(err.find("flight recorder"), std::string::npos) << err;
    // Not just the header: actual recorded events follow it.
    EXPECT_EQ(err.find("(no span events recorded)"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("trace"), std::string::npos) << err;
    EXPECT_NE(err.find("issue"), std::string::npos) << err;
}

TEST(Postmortem, FlightDumpFileIsValidChromeTraceJson)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    hw::Machine m(cfg);
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        Addr buf = ctx.alloc(64);
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64, no_flag, flag);
        else
            ctx.wait_flag(flag, 1);
        ctx.barrier();
    });
    ASSERT_FALSE(r.failed());

    std::string path = "test_span_flight_dump.json";
    ASSERT_TRUE(m.dump_flight_recorder(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string doc = ss.str();
    std::remove(path.c_str());
    std::string err;
    EXPECT_TRUE(json_valid(doc, &err)) << err;
    EXPECT_NE(doc.find("traceEvents"), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);

    // postmortem() renders even on a healthy machine.
    std::string pm = m.postmortem();
    EXPECT_NE(pm.find("flight recorder"), std::string::npos);
    EXPECT_NE(pm.find("trace"), std::string::npos);
}
