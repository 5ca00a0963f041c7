/**
 * @file
 * Reliable-delivery layer tests: sequencing, cumulative acks,
 * go-back-N retransmission, duplicate suppression, out-of-order
 * reassembly, checksum rejection, window/backlog discipline,
 * standalone acks, dead-cell channel flush, the retransmit and
 * delayed-ack timer rules, and the bounded holding buffers of the
 * fault injector feeding it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mlsim/costmodel.hh"
#include "mlsim/params.hh"
#include "net/kills.hh"
#include "net/reliable.hh"
#include "net/tnet.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"

using namespace ap;
using namespace ap::net;

namespace
{

Message
mk(CellId src, CellId dst, std::uint32_t marker,
   std::size_t bytes = 32)
{
    Message m;
    m.kind = MsgKind::put_data;
    m.src = src;
    m.dst = dst;
    m.payload.assign(bytes, 0);
    std::memcpy(m.payload.data(), &marker, 4);
    return m;
}

std::uint32_t
marker_of(const Message &m)
{
    std::uint32_t v = 0;
    std::memcpy(&v, m.payload.data(), 4);
    return v;
}

/** Wire size of a standalone ack. */
std::uint64_t
ack_wire_bytes()
{
    Message ack;
    ack.kind = MsgKind::rnet_ack;
    return ack.wire_bytes();
}

/** Wire size of mk()'s message under the reliable envelope. */
std::uint64_t
data_wire_bytes()
{
    Message m = mk(0, 1, 0);
    m.reliable = true;
    return m.wire_bytes();
}

/** A line of @p cells cells with an optional fault plan under the
 *  rnet, on up to @p threads kernel shards (one-hop lookahead). */
struct Rig
{
    sim::Simulator sim;
    sim::FaultInjector inj;
    KillTable kills;
    obs::SpanLayer spans;
    Tnet tnet;
    ReliableNet rnet;
    std::vector<std::vector<std::uint32_t>> delivered;
    std::vector<std::vector<Tick>> deliveredAt;

    explicit Rig(sim::FaultPlan plan = {}, int threads = 1,
                 int cells = 4)
        : sim(threads, cells,
              us_to_ticks(mlsim::CostModel(mlsim::Params::ap1000_plus())
                              .network(1, 0))),
          inj(plan, cells), kills(cells), spans(cells, 16),
          tnet(sim, Torus(cells, 1), mlsim::Params::ap1000_plus(), kills,
               inj, spans),
          rnet(sim, tnet, kills, spans),
          delivered(static_cast<std::size_t>(cells)),
          deliveredAt(static_cast<std::size_t>(cells))
    {
        rnet.set_receiver([this](Message m) {
            auto dst = static_cast<std::size_t>(m.dst);
            delivered[dst].push_back(marker_of(m));
            deliveredAt[dst].push_back(sim.now());
        });
    }

    /** Send @p m at @p at from its source cell's own timeline. */
    void
    send_at(Tick at, Message m)
    {
        sim.schedule_for(m.src, at,
                         [this, m]() mutable { rnet.send(std::move(m)); });
    }
};

/**
 * The first plan seed whose drop draws at probability 1/2 follow
 * @p drops: drops[c][n] says whether cell c's n-th T-net send drops
 * (the draws are a pure function of seed, cell and n).
 */
std::uint64_t
seed_dropping(const std::vector<std::vector<bool>> &drops)
{
    for (std::uint64_t seed = 1;; ++seed) {
        sim::FaultInjector inj(sim::FaultPlan::drops(seed, 0.5),
                               static_cast<int>(drops.size()));
        bool match = true;
        for (std::size_t c = 0; c < drops.size(); ++c)
            for (std::size_t n = 0; n < drops[c].size(); ++n)
                match &= (inj.draw(sim::FaultInjector::Point::drop,
                                   static_cast<int>(c), n) < 0.5) ==
                         drops[c][n];
        if (match)
            return seed;
    }
}

} // namespace

TEST(Reliable, SequencesAndDeliversInOrderOnCleanWire)
{
    Rig r;
    for (std::uint32_t i = 0; i < 8; ++i)
        r.rnet.send(mk(0, 1, 100 + i));
    r.sim.run();

    ASSERT_EQ(r.delivered[1].size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(r.delivered[1][i], 100 + i);
    EXPECT_EQ(r.rnet.stats(0).dataSent, 8u);
    EXPECT_EQ(r.rnet.stats(0).retransmits, 0u);
    EXPECT_EQ(r.rnet.stats(1).dupDrops, 0u);
}

TEST(Reliable, ReliableEnvelopeCostsWireBytes)
{
    Message plain = mk(0, 1, 1);
    Message tagged = mk(0, 1, 1);
    tagged.reliable = true;
    EXPECT_EQ(tagged.wire_bytes(),
              plain.wire_bytes() + Message::reliable_header_bytes);
}

TEST(Reliable, RetransmitRecoversDroppedMessages)
{
    Rig r(sim::FaultPlan::drops(3, 0.3));
    for (std::uint32_t i = 0; i < 20; ++i)
        r.rnet.send(mk(0, 1, i));
    r.sim.run();

    ASSERT_EQ(r.delivered[1].size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i)
        EXPECT_EQ(r.delivered[1][i], i);
    EXPECT_GT(r.inj.stats().drops, 0u) << "plan dropped nothing";
    EXPECT_GT(r.rnet.stats(0).retransmits, 0u);
}

TEST(Reliable, DuplicatesAreSuppressed)
{
    Rig r(sim::FaultPlan::duplicates(5, 0.5));
    for (std::uint32_t i = 0; i < 20; ++i)
        r.rnet.send(mk(0, 1, i));
    r.sim.run();

    ASSERT_EQ(r.delivered[1].size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i)
        EXPECT_EQ(r.delivered[1][i], i);
    EXPECT_GT(r.inj.stats().duplicates, 0u);
    EXPECT_GT(r.rnet.stats(1).dupDrops, 0u);
}

TEST(Reliable, OutOfOrderArrivalsAreReassembled)
{
    Rig r(sim::FaultPlan::reorders(7, 0.5));
    for (std::uint32_t i = 0; i < 20; ++i)
        r.rnet.send(mk(0, 1, i));
    r.sim.run();

    ASSERT_EQ(r.delivered[1].size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i)
        EXPECT_EQ(r.delivered[1][i], i);
    EXPECT_GT(r.inj.stats().reorders, 0u);
    EXPECT_GT(r.rnet.stats(1).oooBuffered, 0u);
}

TEST(Reliable, CorruptedPayloadsAreRejectedAndRecovered)
{
    Rig r(sim::FaultPlan::corrupts(9, 0.3));
    for (std::uint32_t i = 0; i < 20; ++i)
        r.rnet.send(mk(0, 1, i));
    r.sim.run();

    // Every message arrives exactly once, in order, with the original
    // bytes: corrupted copies fail the checksum, are dropped without
    // an ack, and the retransmit timer resends the pristine copy.
    ASSERT_EQ(r.delivered[1].size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i)
        EXPECT_EQ(r.delivered[1][i], i);
    EXPECT_GT(r.inj.stats().corruptions, 0u);
    EXPECT_GT(r.rnet.stats(1).checksumDrops, 0u);
    EXPECT_GT(r.rnet.stats(0).retransmits, 0u);
}

TEST(Reliable, WindowParksExcessSendsInBacklog)
{
    // A burst eight past the window: the window fills, the last
    // eight park, and acks promote them in order.
    constexpr std::uint32_t n = ReliableNet::window_size + 8;
    Rig r;
    for (std::uint32_t i = 0; i < n; ++i)
        r.rnet.send(mk(0, 1, i));
    r.sim.run();

    ASSERT_EQ(r.delivered[1].size(), n);
    for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(r.delivered[1][i], i);
    EXPECT_EQ(r.rnet.stats(0).queuedFull, 8u);
    EXPECT_EQ(r.rnet.stats(0).windowHighWater,
              static_cast<std::uint64_t>(ReliableNet::window_size));
}

TEST(Reliable, OneWayTrafficAcksViaStandaloneMessages)
{
    Rig r;
    for (std::uint32_t i = 0; i < 6; ++i)
        r.rnet.send(mk(0, 1, i));
    r.sim.run();

    // No reverse data ever flows 1 -> 0, so the delayed-ack timer
    // must emit standalone RNET_ACKs; without them the sender's
    // window never drains and retransmits forever.
    EXPECT_GT(r.rnet.stats(1).acksSent, 0u);
    EXPECT_EQ(r.rnet.stats(0).retransmits, 0u);
}

TEST(Reliable, ReverseTrafficPiggybacksAcks)
{
    // Reverse data sent while a standalone ack is still pending must
    // carry the cumulative ack itself and cancel the standalone one.
    // The reverse burst leaves after the forward messages land,
    // halfway through the delay of the standalone ack they armed.
    Rig r;
    for (std::uint32_t i = 0; i < 6; ++i)
        r.rnet.send(mk(0, 1, i));
    Tick landed = r.tnet.latency(0, 1, data_wire_bytes());
    r.sim.schedule(landed + us_to_ticks(ReliableNet::ack_delay_us / 2),
                   [&r] {
                       for (std::uint32_t i = 0; i < 6; ++i)
                           r.rnet.send(mk(1, 0, 100 + i));
                   });
    r.sim.run();

    ASSERT_EQ(r.delivered[1].size(), 6u);
    ASSERT_EQ(r.delivered[0].size(), 6u);
    EXPECT_GT(r.rnet.stats(1).acksPiggybacked, 0u);
    EXPECT_EQ(r.rnet.stats(1).acksSent, 0u)
        << "piggyback should have preempted the standalone ack";
}

TEST(Reliable, LosslessRunEndsAtItsLastAck)
{
    // One PUT on a clean wire: the standalone ack's arrival empties
    // the window, which stops the retransmit timer, so nothing runs
    // after it. A timer left queued would end the run at rto_us.
    for (int threads : {1, 4}) {
        Rig r({}, threads, 2);
        r.send_at(0, mk(0, 1, 1));
        r.sim.run();

        ASSERT_EQ(r.deliveredAt[1].size(), 1u);
        EXPECT_EQ(r.rnet.stats(1).acksSent, 1u);
        EXPECT_EQ(r.sim.now(),
                  r.deliveredAt[1][0] +
                      us_to_ticks(ReliableNet::ack_delay_us) +
                      r.tnet.latency(1, 0, ack_wire_bytes()))
            << threads << " threads";
    }
}

TEST(Reliable, AckThatAdvancesTheWindowRestartsTheRto)
{
    // Both first transmissions drop, so the timer resends the window
    // at rto_us and backs off to twice that. The resent first message
    // lands (the second drops again) and its ack advances the window
    // with the second still outstanding: the timer restarts rto_us
    // after that ack instead of waiting out the backed-off deadline.
    std::uint64_t seed =
        seed_dropping({{true, true, false, true}, {false}});
    for (int threads : {1, 4}) {
        Rig r(sim::FaultPlan::drops(seed, 0.5), threads, 2);
        r.spans.set_mode(obs::SpanMode::full);
        for (std::uint32_t i = 0; i < 2; ++i) {
            Message m = mk(0, 1, i);
            m.traceId = i + 1;
            r.send_at(0, std::move(m));
        }
        r.sim.run();

        ASSERT_FALSE(r.deliveredAt[1].empty());
        Tick landed = r.deliveredAt[1][0];
        Tick acked = landed + us_to_ticks(ReliableNet::ack_delay_us) +
                     r.tnet.latency(1, 0, ack_wire_bytes());
        std::vector<Tick> resends;
        for (const obs::SpanEvent &ev : r.spans.events())
            if (ev.stage == obs::SpanStage::retransmit)
                resends.push_back(ev.begin);
        std::sort(resends.begin(), resends.end());
        ASSERT_GE(resends.size(), 3u) << threads << " threads";
        EXPECT_EQ(resends[0], us_to_ticks(ReliableNet::rto_us));
        EXPECT_EQ(landed, resends[0] +
                              r.tnet.latency(0, 1, data_wire_bytes()));
        auto next = std::upper_bound(resends.begin(), resends.end(),
                                     landed);
        ASSERT_NE(next, resends.end()) << threads << " threads";
        EXPECT_EQ(*next, acked + us_to_ticks(ReliableNet::rto_us))
            << threads << " threads";
    }
}

TEST(Reliable, StandaloneAckWaitsAFullDelayAfterAPiggyback)
{
    // Message 1 arms cell 1's delayed ack; reverse data piggybacks
    // that ack and cancels it; message 2 lands before the cancelled
    // deadline and arms a fresh one, so its ack leaves a full delay
    // after it lands, not at the first deadline.
    for (int threads : {1, 4}) {
        Rig r({}, threads, 2);
        Tick hop = r.tnet.latency(0, 1, data_wire_bytes());
        Tick delay = us_to_ticks(ReliableNet::ack_delay_us);
        r.send_at(0, mk(0, 1, 1));
        r.send_at(hop + delay / 4, mk(1, 0, 2));
        r.send_at(delay / 2, mk(0, 1, 3));
        r.sim.run();

        ASSERT_EQ(r.delivered[1].size(), 2u);
        EXPECT_EQ(r.rnet.stats(1).acksPiggybacked, 1u);
        EXPECT_EQ(r.rnet.stats(1).acksSent, 1u);
        auto us = [](Tick t) {
            return static_cast<double>(
                static_cast<std::uint64_t>(ticks_to_us(t)));
        };
        const Accumulator &lat = r.rnet.stats(0).ackLatencyUs.scalar();
        ASSERT_EQ(lat.count(), 2u);
        // Message 1: acked by the reverse data's arrival.
        EXPECT_EQ(lat.min(), us(hop + delay / 4 +
                                r.tnet.latency(1, 0, data_wire_bytes())));
        // Message 2: data flight + ack delay + ack flight.
        EXPECT_EQ(lat.max(),
                  us(hop + delay + r.tnet.latency(1, 0, ack_wire_bytes())))
            << threads << " threads";
    }
}

TEST(Reliable, DeadPeerChannelsFlushAndTheQueueDrains)
{
    Rig r(sim::FaultPlan::drops(11, 1.0)); // nothing ever arrives
    for (std::uint32_t i = 0; i < 5; ++i)
        r.rnet.send(mk(0, 1, i));
    // Cell 1 dies shortly after; flush_cell must abort the retransmit
    // queue or sim.run() would spin on backed-off timers until the
    // give-up bound.
    Tick at = us_to_ticks(500.0);
    r.kills.record(1, at);
    r.sim.schedule(at, [&] { r.rnet.flush_cell(1); });
    r.sim.run();

    EXPECT_TRUE(r.delivered[1].empty());
    EXPECT_GT(r.rnet.stats(0).abortedMsgs, 0u);
    // New sends to the dead peer abort immediately.
    std::uint64_t before = r.rnet.stats(0).abortedMsgs;
    r.rnet.send(mk(0, 1, 99));
    r.sim.run();
    EXPECT_EQ(r.rnet.stats(0).abortedMsgs, before + 1);
}

TEST(Reliable, GiveUpBoundAbortsUnreachableLivePeer)
{
    // Total blackout and no kill: retransmission must not run
    // forever — the per-message give-up bound abandons the channel
    // and lets the event queue drain.
    Rig r(sim::FaultPlan::drops(13, 1.0));
    r.rnet.send(mk(0, 1, 7));
    r.sim.run();

    EXPECT_TRUE(r.delivered[1].empty());
    EXPECT_EQ(r.rnet.stats(0).retransmits,
              static_cast<std::uint64_t>(ReliableNet::max_retransmits));
    EXPECT_EQ(r.rnet.stats(0).abortedMsgs, 1u);
}

TEST(FaultHolding, HoldingBuffersAreBoundedAndCountEvictions)
{
    // The injector's dup/reorder copies count against their sender;
    // past maxHeldPerCell the injection is refused (counted), never
    // unbounded. Copies age out at the arrival tick the sender
    // computed, so a later burst is admitted again.
    sim::FaultPlan plan = sim::FaultPlan::duplicates(17, 1.0);
    plan.reorderProb = 1.0;
    plan.maxHeldPerCell = 2;

    sim::Simulator sim;
    sim::FaultInjector inj(plan, 4);
    KillTable kills(4);
    obs::SpanLayer spans(4, 16);
    Tnet tnet(sim, Torus(4, 1), mlsim::Params::ap1000_plus(), kills, inj,
              spans);
    int arrived = 0;
    tnet.set_receiver([&](Message) { ++arrived; });

    auto burst = [&](CellId src, int n) {
        for (int i = 0; i < n; ++i) {
            Message m;
            m.kind = MsgKind::put_data;
            m.src = src;
            m.dst = 1;
            m.payload.assign(16, 0x5a);
            tnet.send(std::move(m));
        }
    };
    burst(0, 50);
    sim.run();

    const auto &hs = inj.hold_stats(0);
    EXPECT_EQ(hs.heldHighWater, 2u);
    EXPECT_GT(hs.dupEvictions + hs.reorderEvictions, 0u);
    // Every original message still arrives (dups/reorders only add
    // or delay copies), plus at most the admitted duplicates.
    EXPECT_GE(arrived, 50);

    // Everything held has arrived by now: the next burst ages it out
    // and is admitted up to the cap again.
    std::uint64_t evicted = hs.dupEvictions + hs.reorderEvictions;
    sim.schedule(sim.now() + 1, [&] { burst(0, 1); });
    sim.run();
    EXPECT_EQ(hs.held, 2u);
    EXPECT_EQ(hs.dupEvictions + hs.reorderEvictions, evicted);
}

TEST(FaultHolding, CapIsEnforcedPerSender)
{
    // Two senders at the cap share nothing: each holds its own two
    // copies, and the receiver holds none.
    sim::FaultPlan plan = sim::FaultPlan::duplicates(3, 1.0);
    plan.maxHeldPerCell = 2;

    sim::Simulator sim;
    sim::FaultInjector inj(plan, 4);
    KillTable kills(4);
    obs::SpanLayer spans(4, 16);
    Tnet tnet(sim, Torus(4, 1), mlsim::Params::ap1000_plus(), kills, inj,
              spans);
    tnet.set_receiver([](Message) {});
    for (CellId src : {0, 2})
        for (int i = 0; i < 5; ++i) {
            Message m;
            m.kind = MsgKind::put_data;
            m.src = src;
            m.dst = 1;
            tnet.send(std::move(m));
        }
    sim.run();

    for (CellId src : {0, 2}) {
        EXPECT_EQ(inj.hold_stats(src).heldHighWater, 2u) << src;
        EXPECT_EQ(inj.hold_stats(src).dupEvictions, 3u) << src;
    }
    EXPECT_EQ(inj.hold_stats(1).heldHighWater, 0u);
    EXPECT_EQ(inj.hold_stats(1).dupEvictions, 0u);
    EXPECT_EQ(tnet.stats().duplicated, 4u);
}
