/**
 * @file
 * Ring buffer tests: SEND/RECEIVE matching, blocking receives,
 * overflow growth, in-place consumption (Section 4.3). A blocking
 * receive is the probe-and-park loop core::Context runs:
 * try_receive(), park on arrival_cond(), re-probe.
 */

#include <gtest/gtest.h>

#include "hw/ringbuf.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"
#include "sim/process.hh"

using namespace ap;
using namespace ap::hw;

namespace
{

SendRecord
rec(CellId src, std::int32_t tag, std::size_t n)
{
    return SendRecord{src, tag,
                      std::vector<std::uint8_t>(n,
                                                static_cast<std::uint8_t>(
                                                    tag))};
}

/** Blocking take: probe, park on the arrival condition, re-probe. */
SendRecord
receive(RingBuffer &rb, CellId src, std::int32_t tag, sim::Process &proc,
        bool in_place = false)
{
    SendRecord out;
    while (!rb.try_receive(src, tag, out, in_place))
        proc.wait(rb.arrival_cond());
    return out;
}

} // namespace

TEST(RingBuffer, TryReceiveMatchesTagAndSource)
{
    sim::Simulator sim;
    obs::SpanLayer spans(1, 16);
    RingBuffer rb(sim, 0, spans);
    rb.deposit(rec(1, 10, 4));
    rb.deposit(rec(2, 20, 4));

    SendRecord out;
    EXPECT_FALSE(rb.try_receive(3, any_tag, out));
    EXPECT_FALSE(rb.try_receive(1, 20, out));
    EXPECT_TRUE(rb.try_receive(2, 20, out));
    EXPECT_EQ(out.src, 2);
    EXPECT_EQ(rb.depth(), 1u);
}

TEST(RingBuffer, WildcardsMatchAnything)
{
    sim::Simulator sim;
    obs::SpanLayer spans(1, 16);
    RingBuffer rb(sim, 0, spans);
    rb.deposit(rec(5, 55, 8));
    SendRecord out;
    EXPECT_TRUE(rb.try_receive(any_source, any_tag, out));
    EXPECT_EQ(out.src, 5);
    EXPECT_EQ(out.tag, 55);
}

TEST(RingBuffer, FifoAmongMatchingRecords)
{
    sim::Simulator sim;
    obs::SpanLayer spans(1, 16);
    RingBuffer rb(sim, 0, spans);
    rb.deposit(SendRecord{1, 7, {1}});
    rb.deposit(SendRecord{1, 7, {2}});
    SendRecord out;
    rb.try_receive(1, 7, out);
    EXPECT_EQ(out.payload[0], 1);
    rb.try_receive(1, 7, out);
    EXPECT_EQ(out.payload[0], 2);
}

TEST(RingBuffer, BlockingReceiveWaitsForDeposit)
{
    sim::Simulator sim;
    obs::SpanLayer spans(1, 16);
    RingBuffer rb(sim, 0, spans);
    Tick when = 0;
    sim::Process p(sim, "rx", [&](sim::Process &self) {
        SendRecord r = receive(rb, any_source, any_tag, self);
        when = sim.now();
        EXPECT_EQ(r.payload.size(), 16u);
    });
    p.start(0);
    sim.schedule(2000, [&]() { rb.deposit(rec(0, 1, 16)); });
    sim.run();
    EXPECT_EQ(when, 2000u);
}

TEST(RingBuffer, OverflowGrowsWithInterrupt)
{
    sim::Simulator sim;
    obs::SpanLayer spans(1, 16);
    RingBuffer rb(sim, 0, spans, 64);
    rb.deposit(rec(0, 1, 48));
    EXPECT_EQ(rb.stats().growInterrupts, 0u);
    rb.deposit(rec(0, 2, 48)); // 96 > 64: grow
    EXPECT_GE(rb.capacity(), 96u);
    EXPECT_EQ(rb.stats().growInterrupts, 1u);
    EXPECT_EQ(rb.depth(), 2u);
}

TEST(RingBuffer, InPlaceConsumptionCountsSeparately)
{
    sim::Simulator sim;
    obs::SpanLayer spans(1, 16);
    RingBuffer rb(sim, 0, spans);
    rb.deposit(rec(0, 1, 8));
    rb.deposit(rec(0, 2, 8));
    sim::Process p(sim, "p", [&](sim::Process &self) {
        receive(rb, 0, 1, self);
        receive(rb, 0, 2, self, /*in_place=*/true);
    });
    p.start(0);
    sim.run();
    EXPECT_EQ(rb.stats().copies, 1u);
    EXPECT_EQ(rb.stats().inPlaceReads, 1u);
    EXPECT_EQ(rb.stats().receives, 2u);
}

TEST(RingBuffer, BytesTrackUsage)
{
    sim::Simulator sim;
    obs::SpanLayer spans(1, 16);
    RingBuffer rb(sim, 0, spans);
    rb.deposit(rec(0, 1, 100));
    EXPECT_EQ(rb.bytes(), 100u);
    SendRecord out;
    rb.try_receive(0, 1, out);
    EXPECT_EQ(rb.bytes(), 0u);
}
