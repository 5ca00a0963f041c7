/**
 * @file
 * MLSim tests: parameter file round trips, trace serialization,
 * replay semantics (flag waits, receives, collectives), the
 * model-level properties the paper's evaluation rests on, and a
 * replay of paper traces that spills no event closure to the heap.
 */

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "mlsim/costmodel.hh"
#include "mlsim/params.hh"
#include "mlsim/replay.hh"
#include "mlsim/trace_file.hh"
#include "sim/event.hh"

using namespace ap;
using namespace ap::core;
using namespace ap::mlsim;

namespace
{

hw::MachineConfig
small(int cells)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.memBytesPerCell = 1 << 20;
    return cfg;
}

/** Run an SPMD body on a functional machine and capture its trace. */
Trace
capture(int cells, const SpmdBody &body)
{
    hw::Machine m(small(cells));
    Trace trace;
    auto r = run_spmd(m, body, &trace);
    EXPECT_FALSE(r.deadlock);
    return trace;
}

} // namespace

// ---------------------------------------------------------------- params

TEST(Params, PaperValuesInPresets)
{
    Params a = Params::ap1000();
    EXPECT_DOUBLE_EQ(a.computation_factor, 1.00);
    EXPECT_DOUBLE_EQ(a.put_prolog_time, 20.0);
    EXPECT_DOUBLE_EQ(a.put_dma_set_time, 15.0);
    EXPECT_DOUBLE_EQ(a.intr_rtc_time, 20.0);
    EXPECT_FALSE(a.hw());

    Params p = Params::ap1000_plus();
    EXPECT_DOUBLE_EQ(p.computation_factor, 0.125);
    EXPECT_DOUBLE_EQ(p.put_prolog_time, 1.00);
    EXPECT_DOUBLE_EQ(p.put_dma_set_time, 0.50);
    EXPECT_DOUBLE_EQ(p.intr_rtc_time, 0.00);
    EXPECT_TRUE(p.hw());

    Params f = Params::ap1000_fast();
    EXPECT_DOUBLE_EQ(f.computation_factor, 0.125);
    EXPECT_DOUBLE_EQ(f.put_prolog_time, 20.0);
    EXPECT_FALSE(f.hw());
}

TEST(Params, FileRoundTrip)
{
    Params p = Params::ap1000_plus();
    p.gop_step_time = 3.25;
    Params q = Params::from_file(p.to_file());
    EXPECT_DOUBLE_EQ(q.computation_factor, p.computation_factor);
    EXPECT_DOUBLE_EQ(q.put_dma_set_time, p.put_dma_set_time);
    EXPECT_DOUBLE_EQ(q.gop_step_time, 3.25);
    EXPECT_EQ(q.hw(), p.hw());
}

TEST(Params, SetGetByName)
{
    Params p;
    EXPECT_TRUE(p.set("network_delay_time", 0.5));
    double v = 0;
    EXPECT_TRUE(p.get("network_delay_time", v));
    EXPECT_DOUBLE_EQ(v, 0.5);
    EXPECT_FALSE(p.set("no_such_parameter", 1.0));
}

TEST(ParamsDeath, UnknownKeyInFileIsFatal)
{
    EXPECT_DEATH(Params::from_file("bogus_time 1.0\n"), "unknown");
}

TEST(ParamsDeath, NegativeOrNonFiniteValueInFileIsFatal)
{
    // Unchecked, a negative or NaN cost schedules events in the past
    // and an infinite one overflows us_to_ticks.
    EXPECT_DEATH(Params::from_file("# AP1000+\nnetwork_msg_time -1\n"),
                 "line 2: 'network_msg_time' must be a finite value");
    EXPECT_DEATH(Params::from_file("network_msg_time nan\n"),
                 "line 1: 'network_msg_time' must be a finite value");
    EXPECT_DEATH(Params::from_file("recv_search_time inf\n"),
                 "line 1: 'recv_search_time' must be a finite value");
}

// ------------------------------------------------------------ cost model

TEST(CostModel, PaperSendOverheadFormula)
{
    CostModel sw(Params::ap1000());
    // put_prolog + put_enqueue + put_msg_post*size + put_dma_set +
    // put_epilog for a 1000-byte message.
    EXPECT_DOUBLE_EQ(sw.put_send_overhead(1000),
                     20.0 + 0.16 + 0.04 * 1000 + 15.0 + 15.0);

    CostModel hw(Params::ap1000_plus());
    // "only put_enqueue_time on sending".
    EXPECT_DOUBLE_EQ(hw.put_send_overhead(1000), 0.16);
}

TEST(CostModel, InterruptReceptionFormula)
{
    CostModel sw(Params::ap1000());
    EXPECT_DOUBLE_EQ(sw.recv_ready_latency(1000),
                     20.0 + 0.04 * 1000 + 15.0);
    CostModel hw(Params::ap1000_plus());
    EXPECT_DOUBLE_EQ(hw.recv_ready_latency(1000), 0.50 + 0.04);
}

TEST(CostModel, ComputationScales)
{
    CostModel hw(Params::ap1000_plus());
    EXPECT_DOUBLE_EQ(hw.compute(800.0), 100.0);
}

TEST(CostModel, ReductionLevels)
{
    EXPECT_EQ(CostModel::levels(1), 0);
    EXPECT_EQ(CostModel::levels(2), 1);
    EXPECT_EQ(CostModel::levels(16), 4);
    EXPECT_EQ(CostModel::levels(17), 5);
    EXPECT_EQ(CostModel::levels(1024), 10);
}

// ---------------------------------------------------------- trace files

TEST(TraceFile, RoundTripPreservesEverything)
{
    Trace t(3);
    TraceEvent a;
    a.op = TraceOp::put_stride;
    a.peer = 2;
    a.bytes = 2056;
    a.items = 257;
    a.ack = true;
    a.sendFlagAddr = 0x100;
    a.recvFlagAddr = 0x104;
    a.viaRts = true;
    t.record(0, a);

    TraceEvent b;
    b.op = TraceOp::compute;
    b.computeUs = 123.456;
    t.record(1, b);

    TraceEvent c;
    c.op = TraceOp::flag_wait;
    c.recvFlagAddr = 0x104;
    c.waitTarget = 7;
    t.record(2, c);

    Trace u = trace_from_text(trace_to_text(t));
    ASSERT_EQ(u.cells(), 3);
    ASSERT_EQ(u.timeline(0).size(), 1u);
    const TraceEvent &ua = u.timeline(0)[0];
    EXPECT_EQ(ua.op, TraceOp::put_stride);
    EXPECT_EQ(ua.peer, 2);
    EXPECT_EQ(ua.bytes, 2056u);
    EXPECT_EQ(ua.items, 257u);
    EXPECT_TRUE(ua.ack);
    EXPECT_EQ(ua.sendFlagAddr, 0x100u);
    EXPECT_EQ(ua.recvFlagAddr, 0x104u);
    EXPECT_TRUE(ua.viaRts);
    EXPECT_DOUBLE_EQ(u.timeline(1)[0].computeUs, 123.456);
    EXPECT_EQ(u.timeline(2)[0].waitTarget, 7u);
}

TEST(TraceFileDeath, MissingHeaderIsFatal)
{
    EXPECT_DEATH(trace_from_text("cells 2\n"), "header");
}

// --------------------------------------------------------------- replay

TEST(Replay, PureComputeScalesWithFactor)
{
    Trace t(2);
    TraceEvent c;
    c.op = TraceOp::compute;
    c.computeUs = 1000.0;
    t.record(0, c);
    t.record(1, c);

    ReplayReport slow = Replay(t, Params::ap1000()).run();
    ReplayReport fast = Replay(t, Params::ap1000_plus()).run();
    EXPECT_DOUBLE_EQ(slow.totalUs, 1000.0);
    EXPECT_DOUBLE_EQ(fast.totalUs, 125.0);
    EXPECT_FALSE(slow.deadlock);
    EXPECT_DOUBLE_EQ(slow.cells[0].execUs, 1000.0);
}

TEST(Replay, PutFlagWaitCompletes)
{
    // Cell 0 puts 1 KB to cell 1 with a recv flag; cell 1 waits.
    Trace t(2);
    TraceEvent put;
    put.op = TraceOp::put;
    put.peer = 1;
    put.bytes = 1024;
    put.recvFlagAddr = 0x40;
    t.record(0, put);

    TraceEvent wait;
    wait.op = TraceOp::flag_wait;
    wait.recvFlagAddr = 0x40;
    wait.waitTarget = 1;
    t.record(1, wait);

    for (const Params &p :
         {Params::ap1000(), Params::ap1000_plus()}) {
        ReplayReport r = Replay(t, p).run();
        EXPECT_FALSE(r.deadlock) << p.name;
        EXPECT_GT(r.totalUs, 0.0);
        EXPECT_EQ(r.messages, 1u);
        EXPECT_EQ(r.payloadBytes, 1024u);
    }
}

TEST(Replay, HardwareHandlingIsFasterForMessagePingPong)
{
    // A put/wait chain: the hardware model should finish much sooner
    // because issue overhead drops from ~50 us to ~0.16 us and no
    // interrupts steal receiver time.
    Trace t(2);
    for (int k = 0; k < 20; ++k) {
        TraceEvent put;
        put.op = TraceOp::put;
        put.peer = 1;
        put.bytes = 64;
        put.recvFlagAddr = 0x40;
        t.record(0, put);
    }
    TraceEvent wait;
    wait.op = TraceOp::flag_wait;
    wait.recvFlagAddr = 0x40;
    wait.waitTarget = 20;
    t.record(1, wait);

    double sw = Replay(t, Params::ap1000_fast()).run().totalUs;
    double hw = Replay(t, Params::ap1000_plus()).run().totalUs;
    EXPECT_LT(hw, sw / 5.0);
}

TEST(Replay, SendRecvMatchAcrossCells)
{
    Trace t(2);
    TraceEvent snd;
    snd.op = TraceOp::send;
    snd.peer = 1;
    snd.bytes = 256;
    t.record(0, snd);
    TraceEvent rcv;
    rcv.op = TraceOp::recv;
    rcv.peer = 0;
    rcv.bytes = 256;
    t.record(1, rcv);

    ReplayReport r = Replay(t, Params::ap1000()).run();
    EXPECT_FALSE(r.deadlock);
    EXPECT_GT(r.cells[1].overheadUs, 0.0);
}

TEST(Replay, BarrierSynchronizesSkewedCells)
{
    Trace t(4);
    for (int c = 0; c < 4; ++c) {
        TraceEvent comp;
        comp.op = TraceOp::compute;
        comp.computeUs = 100.0 * c;
        t.record(c, comp);
        TraceEvent bar;
        bar.op = TraceOp::barrier;
        t.record(c, bar);
    }
    ReplayReport r = Replay(t, Params::ap1000()).run();
    EXPECT_FALSE(r.deadlock);
    // Everyone leaves after the slowest (300 us) plus barrier costs.
    EXPECT_GE(r.totalUs, 300.0);
    // Cell 0 idles roughly the skew; cell 3 barely waits.
    EXPECT_GT(r.cells[0].idleUs, r.cells[3].idleUs + 250.0);
}

TEST(Replay, MissingBarrierDeadlocksGracefully)
{
    Trace t(2);
    TraceEvent bar;
    bar.op = TraceOp::barrier;
    t.record(0, bar); // cell 1 never arrives
    set_quiet(true);
    ReplayReport r = Replay(t, Params::ap1000()).run();
    set_quiet(false);
    EXPECT_TRUE(r.deadlock);
}

TEST(Replay, AckWaitRoundTrip)
{
    Trace t(2);
    TraceEvent put;
    put.op = TraceOp::put;
    put.peer = 1;
    put.bytes = 512;
    put.ack = true;
    t.record(0, put);
    TraceEvent aw;
    aw.op = TraceOp::ack_wait;
    aw.waitTarget = 1;
    t.record(0, aw);

    ReplayReport r = Replay(t, Params::ap1000_plus()).run();
    EXPECT_FALSE(r.deadlock);
    // The round trip takes at least two network crossings.
    CostModel cm(Params::ap1000_plus());
    EXPECT_GE(r.cells[0].totalUs, 2 * cm.network(1, 32));
}

TEST(Replay, GopAndVgopRendezvous)
{
    Trace t(4);
    for (int c = 0; c < 4; ++c) {
        TraceEvent g;
        g.op = TraceOp::gop;
        g.bytes = 8;
        t.record(c, g);
        TraceEvent v;
        v.op = TraceOp::vgop;
        v.bytes = 11200;
        t.record(c, v);
    }
    ReplayReport hw = Replay(t, Params::ap1000_plus()).run();
    ReplayReport sw = Replay(t, Params::ap1000_fast()).run();
    EXPECT_FALSE(hw.deadlock);
    EXPECT_FALSE(sw.deadlock);
    // Vector reductions over blocking SENDs dominate the software
    // model (the paper's CG analysis). The hardware model still pays
    // the ring-buffer memory traffic, so the gap is bounded.
    EXPECT_GT(sw.totalUs, 1.5 * hw.totalUs);
}

TEST(Replay, FunctionalTraceReplaysWithoutDeadlock)
{
    // End-to-end: capture a real mixed workload trace from the
    // functional machine and replay it under all three models.
    Trace trace = capture(8, [](Context &ctx) {
        Addr buf = ctx.alloc(4096);
        Addr rf = ctx.alloc_flag();
        CellId right = (ctx.id() + 1) % ctx.nprocs();
        ctx.compute_us(50.0 * (1 + ctx.id() % 3));
        ctx.put(right, buf, buf, 2048, no_flag, rf, true);
        ctx.wait_all_acks();
        ctx.wait_flag(rf, 1);
        ctx.barrier();
        ctx.allreduce(1.0, ReduceOp::sum);
        Addr vec = ctx.alloc(800);
        ctx.allreduce_vector(vec, 100, ReduceOp::sum);
        if (ctx.id() == 0)
            ctx.send(1, 5, buf, 128);
        if (ctx.id() == 1)
            ctx.recv(0, 5, buf, 128);
        ctx.barrier();
    });

    for (const Params &p : {Params::ap1000(), Params::ap1000_fast(),
                            Params::ap1000_plus()}) {
        ReplayReport r = Replay(trace, p).run();
        EXPECT_FALSE(r.deadlock) << p.name;
        EXPECT_GT(r.totalUs, 0.0) << p.name;
        // Per-cell components are non-negative and sum to the total.
        for (const CellBreakdown &c : r.cells) {
            EXPECT_GE(c.execUs, 0.0);
            EXPECT_GE(c.rtsUs, 0.0);
            EXPECT_GE(c.overheadUs, 0.0);
            EXPECT_GE(c.idleUs, -1e-6);
            EXPECT_NEAR(c.execUs + c.rtsUs + c.overheadUs + c.idleUs,
                        c.totalUs, c.totalUs * 0.05 + 5.0)
                << p.name;
        }
    }
}

TEST(Replay, SpeedupOrderingMatchesThePaper)
{
    // For a communication-heavy workload: AP1000+ beats AP1000* (fast
    // CPU, software handling), which beats the AP1000.
    Trace trace = capture(8, [](Context &ctx) {
        Addr buf = ctx.alloc(8192);
        Addr rf = ctx.alloc_flag();
        CellId right = (ctx.id() + 1) % ctx.nprocs();
        for (int it = 0; it < 5; ++it) {
            ctx.compute_us(200.0);
            ctx.put(right, buf, buf, 4096, no_flag, rf);
            ctx.wait_flag(rf, static_cast<std::uint32_t>(it + 1));
            ctx.barrier();
        }
    });

    double base = Replay(trace, Params::ap1000()).run().totalUs;
    double fast = Replay(trace, Params::ap1000_fast()).run().totalUs;
    double plus = Replay(trace, Params::ap1000_plus()).run().totalUs;
    EXPECT_LT(plus, fast);
    EXPECT_LT(fast, base);
    // Speedup of the AP1000+ approaches the 8x processor improvement.
    EXPECT_GT(base / plus, 4.0);
    EXPECT_LT(base / plus, 9.0);
}

TEST(Replay, GroupCollectivesRendezvousTheRightSubset)
{
    // Disjoint halves run different numbers of group reductions;
    // replay must match each group's episodes independently instead
    // of expecting a global rendezvous (which would deadlock).
    Trace trace = capture(8, [](Context &ctx) {
        Group low = Group::range(0, 4);
        Group high = Group::range(4, 4);
        if (ctx.id() < 4) {
            for (int k = 0; k < 3; ++k)
                ctx.allreduce_group(low, 1.0, ReduceOp::sum);
            ctx.barrier_group(low);
        } else {
            ctx.allreduce_group(high, 2.0, ReduceOp::sum);
        }
        ctx.barrier();
    });

    for (const Params &p :
         {Params::ap1000(), Params::ap1000_plus()}) {
        ReplayReport r = Replay(trace, p).run();
        EXPECT_FALSE(r.deadlock) << p.name;
        EXPECT_GT(r.totalUs, 0.0);
    }
}

TEST(Replay, IdleDominatesWhenLoadImbalanced)
{
    Trace trace = capture(4, [](Context &ctx) {
        ctx.compute_us(ctx.id() == 0 ? 10000.0 : 10.0);
        ctx.barrier();
    });
    ReplayReport r = Replay(trace, Params::ap1000_plus()).run();
    EXPECT_FALSE(r.deadlock);
    EXPECT_GT(r.cells[1].idleUs, r.cells[1].execUs * 10);
    EXPECT_LT(r.cells[0].idleUs, 10.0);
}

TEST(Replay, PaperTracesSpillNoClosureToTheHeap)
{
    // Each message's receive-side effect moves into its arrival event
    // and then its ready event, inline in both: replaying the paper's
    // message traces allocates no closure, under either handling.
    for (const char *name : {"TC no st", "SCG"}) {
        Trace trace = apps::make_app(name)->generate();
        for (const Params &p : {Params::ap1000(), Params::ap1000_plus()}) {
            std::uint64_t spills = sim::eventfn_heap_allocs();
            ReplayReport r = Replay(trace, p).run();
            ASSERT_FALSE(r.deadlock) << name << ", " << p.name;
            EXPECT_GT(r.messages, 0u) << name;
            EXPECT_EQ(sim::eventfn_heap_allocs(), spills)
                << name << ", " << p.name;
        }
    }
}
