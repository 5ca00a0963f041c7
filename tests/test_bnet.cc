/**
 * @file
 * B-net tests: bus serialization, broadcast delivery through the
 * machine, flag semantics, and MLSim replay of broadcasts.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/ap1000p.hh"
#include "mlsim/params.hh"
#include "mlsim/replay.hh"
#include "net/bnet.hh"
#include "obs/span.hh"

using namespace ap;
using namespace ap::core;

namespace
{

hw::MachineConfig
small(int cells)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.memBytesPerCell = 1 << 20;
    return cfg;
}

} // namespace

TEST(BnetUnit, DeliversToAllButSource)
{
    sim::Simulator sim;
    obs::SpanLayer spans(4, 16);
    net::Bnet bus(sim, 4, mlsim::Params::ap1000_plus(), spans);
    std::vector<int> hits(4, 0);
    bus.set_receiver([&](net::Message m) { ++hits[m.dst]; });

    net::Message m;
    m.kind = net::MsgKind::broadcast;
    m.src = 2;
    m.payload.assign(100, 1);
    bus.broadcast(std::move(m));
    sim.run();
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 0, 1}));
    EXPECT_EQ(bus.count(), 1u);
}

TEST(BnetUnit, BusSerializesBackToBackBroadcasts)
{
    sim::Simulator sim;
    mlsim::Params p = mlsim::Params::ap1000_plus();
    p.bnet_prolog_time = 1.0;
    p.bnet_msg_time = 0.02;
    obs::SpanLayer spans(2, 16);
    net::Bnet bus(sim, 2, p, spans);
    std::vector<Tick> arrivals;
    bus.set_receiver([&](net::Message m) {
        if (m.dst == 1)
            arrivals.push_back(sim.now());
    });

    net::Message m;
    m.kind = net::MsgKind::broadcast;
    m.src = 0;
    m.payload.assign(1000, 0);
    bus.broadcast(m);
    bus.broadcast(m);
    sim.run();
    // The second waits out the first's bus occupancy.
    Tick occupy = us_to_ticks(1.0 + 0.02 * (1000 + 32));
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], occupy);
    EXPECT_EQ(arrivals[1], 2 * occupy);
}

TEST(Broadcast, RootDataReachesEveryCell)
{
    hw::Machine m(small(8));
    std::vector<double> got(8, 0);

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr flag = ctx.alloc_flag();
        if (ctx.id() == 3) {
            for (int i = 0; i < 8; ++i)
                ctx.poke_f64(buf + static_cast<Addr>(i) * 8,
                             i * 1.25);
        }
        ctx.broadcast(3, buf, 64, flag);
        if (ctx.id() != 3)
            ctx.wait_flag(flag, 1);
        got[static_cast<std::size_t>(ctx.id())] =
            ctx.peek_f64(buf + 24); // element 3
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    for (double v : got)
        EXPECT_DOUBLE_EQ(v, 3.75);
}

TEST(Broadcast, RepeatedBroadcastsCountOnFlag)
{
    hw::Machine m(small(4));
    std::uint32_t final_flag = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(16);
        Addr flag = ctx.alloc_flag();
        for (int k = 0; k < 5; ++k)
            ctx.broadcast(0, buf, 16, flag);
        if (ctx.id() == 2) {
            ctx.wait_flag(flag, 5);
            final_flag = ctx.flag(flag);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(final_flag, 5u);
    EXPECT_EQ(m.bnet().count(), 5u);
}

TEST(Broadcast, TraceReplaysUnderAllModels)
{
    hw::Machine m(small(4));
    Trace trace;
    auto r = run_spmd(
        m,
        [&](Context &ctx) {
            Addr buf = ctx.alloc(1024);
            Addr flag = ctx.alloc_flag();
            ctx.broadcast(0, buf, 1024, flag);
            if (ctx.id() != 0)
                ctx.wait_flag(flag, 1);
            ctx.barrier();
        },
        &trace);
    ASSERT_FALSE(r.deadlock);

    for (const auto &p :
         {mlsim::Params::ap1000(), mlsim::Params::ap1000_plus()}) {
        mlsim::ReplayReport rep = mlsim::Replay(trace, p).run();
        EXPECT_FALSE(rep.deadlock) << p.name;
        EXPECT_GT(rep.totalUs, 0.0);
    }
}
