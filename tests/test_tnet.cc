/**
 * @file
 * T-net transport tests: the MLSim latency formula, per-pair FIFO
 * ordering (the property the GET-as-ack trick needs), statistics and
 * fail-stop drops from the kill table.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mlsim/params.hh"
#include "net/kills.hh"
#include "net/tnet.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"

using namespace ap;
using namespace ap::net;

namespace
{

Message
mk(CellId src, CellId dst, std::size_t bytes)
{
    Message m;
    m.kind = MsgKind::put_data;
    m.src = src;
    m.dst = dst;
    m.payload.assign(bytes, 0xab);
    return m;
}

} // namespace

TEST(Tnet, LatencyFollowsTheModel)
{
    sim::Simulator sim;
    mlsim::Params p = mlsim::Params::ap1000_plus();
    p.network_prolog_time = 0.16;
    p.network_delay_time = 0.16;
    p.network_msg_time = 0.04;
    p.network_epilog_time = 0.0;
    KillTable kills(16);
    sim::FaultInjector faults({}, 16);
    obs::SpanLayer spans(16, 16);
    Tnet net(sim, Torus(4, 4), p, kills, faults, spans);

    // distance(0, 1) = 1 hop; 100-byte wire message.
    Tick lat = net.latency(0, 1, 100);
    EXPECT_EQ(lat, us_to_ticks(0.16 + 0.16 * 1 + 0.04 * 100));

    // distance(0, 10) = 4 hops.
    Tick lat4 = net.latency(0, 10, 100);
    EXPECT_EQ(lat4, us_to_ticks(0.16 + 0.16 * 4 + 0.04 * 100));
}

TEST(Tnet, DeliversToTheReceiver)
{
    sim::Simulator sim;
    KillTable kills(4);
    sim::FaultInjector faults({}, 4);
    obs::SpanLayer spans(4, 16);
    Tnet net(sim, Torus(2, 2), mlsim::Params::ap1000_plus(), kills,
             faults, spans);
    std::vector<Message> got;
    net.set_receiver([&](Message m) { got.push_back(std::move(m)); });

    net.send(mk(0, 3, 64));
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].src, 0);
    EXPECT_EQ(got[0].dst, 3);
    EXPECT_EQ(got[0].payload.size(), 64u);
}

TEST(Tnet, PerPairFifoEvenWhenSizesInvert)
{
    // A big message injected first must not be overtaken by a small
    // one on the same pair — static routing passes messages in order.
    sim::Simulator sim;
    KillTable kills(4);
    sim::FaultInjector faults({}, 4);
    obs::SpanLayer spans(4, 16);
    Tnet net(sim, Torus(4, 1), mlsim::Params::ap1000_plus(), kills,
             faults, spans);
    std::vector<std::size_t> sizes;
    net.set_receiver([&](Message m) { sizes.push_back(m.payload.size()); });

    net.send(mk(0, 2, 100000)); // slow
    net.send(mk(0, 2, 4));      // would overtake with pure latency
    sim.run();
    ASSERT_EQ(sizes.size(), 2u);
    EXPECT_EQ(sizes[0], 100000u);
    EXPECT_EQ(sizes[1], 4u);
}

TEST(Tnet, DifferentPairsMayOvertake)
{
    sim::Simulator sim;
    KillTable kills(4);
    sim::FaultInjector faults({}, 4);
    obs::SpanLayer spans(4, 16);
    Tnet net(sim, Torus(4, 1), mlsim::Params::ap1000_plus(), kills,
             faults, spans);
    std::vector<CellId> arrivals;
    net.set_receiver([&](Message m) { arrivals.push_back(m.dst); });

    net.send(mk(0, 2, 100000)); // slow, to cell 2
    net.send(mk(0, 1, 4));      // fast, to cell 1
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 1);
    EXPECT_EQ(arrivals[1], 2);
}

TEST(Tnet, StatsAccumulate)
{
    sim::Simulator sim;
    KillTable kills(16);
    sim::FaultInjector faults({}, 16);
    obs::SpanLayer spans(16, 16);
    Tnet net(sim, Torus(4, 4), mlsim::Params::ap1000_plus(), kills,
             faults, spans);
    net.set_receiver([](Message) {});

    net.send(mk(0, 1, 100));
    net.send(mk(0, 10, 200));
    sim.run();

    EXPECT_EQ(net.stats().messages, 2u);
    EXPECT_EQ(net.stats().payloadBytes, 300u);
    EXPECT_EQ(net.stats().wireBytes,
              300u + 2 * Message::header_bytes);
    EXPECT_EQ(net.stats().distance.scalar().count(), 2u);
    EXPECT_DOUBLE_EQ(net.stats().distance.scalar().mean(), 2.5);
}

TEST(Tnet, SelfSendStillWorks)
{
    sim::Simulator sim;
    KillTable kills(4);
    sim::FaultInjector faults({}, 4);
    obs::SpanLayer spans(4, 16);
    Tnet net(sim, Torus(2, 2), mlsim::Params::ap1000_plus(), kills,
             faults, spans);
    bool got = false;
    net.set_receiver([&](Message) { got = true; });
    net.send(mk(1, 1, 8));
    sim.run();
    EXPECT_TRUE(got);
}

TEST(Tnet, KilledCellNeitherSendsNorReceives)
{
    // From its kill tick on, a cell's traffic in either direction is
    // discarded at injection; traffic before it flows.
    sim::Simulator sim;
    KillTable kills(4);
    sim::FaultInjector faults({}, 4);
    obs::SpanLayer spans(4, 16);
    Tnet net(sim, Torus(4, 1), mlsim::Params::ap1000_plus(), kills,
             faults, spans);
    int got = 0;
    net.set_receiver([&](Message) { ++got; });
    Tick at = us_to_ticks(100.0);
    ASSERT_TRUE(kills.record(2, at));
    EXPECT_FALSE(kills.record(2, at + 1)) << "the earliest kill wins";
    net.send(mk(0, 2, 8)); // lands before the kill
    sim.schedule(at, [&] {
        net.send(mk(0, 2, 8)); // to the dead cell
        net.send(mk(2, 1, 8)); // from it
        net.send(mk(0, 1, 8)); // between live cells
    });
    sim.run();
    EXPECT_EQ(got, 2);
    EXPECT_EQ(net.stats().messages, 2u);
    EXPECT_EQ(net.stats().deadCellDrops, 2u);
    EXPECT_TRUE(kills.any_failed_by(at));
    EXPECT_FALSE(kills.any_failed_by(at - 1));
}
