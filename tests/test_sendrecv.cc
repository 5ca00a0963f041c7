/**
 * @file
 * SEND/RECEIVE model tests (Section 4.3): ring-buffer delivery, tag
 * matching, the buffering copy the model intrinsically pays, and
 * PUT/GET's avoidance of it.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/ap1000p.hh"

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

TEST(SendRecv, PingPong)
{
    hw::Machine m(small(2));
    std::vector<std::uint8_t> got(16);

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(16);
        if (ctx.id() == 0) {
            std::vector<std::uint8_t> data(16);
            std::iota(data.begin(), data.end(), std::uint8_t{1});
            ctx.poke(buf, data);
            ctx.send(1, 42, buf, 16);
            ctx.recv(1, 43, buf, 16);
        } else {
            ctx.recv(0, 42, buf, 16);
            ctx.peek(buf, got);
            ctx.send(0, 43, buf, 16);
        }
    });
    ASSERT_FALSE(r.deadlock);
    std::vector<std::uint8_t> expect(16);
    std::iota(expect.begin(), expect.end(), std::uint8_t{1});
    EXPECT_EQ(got, expect);
}

TEST(SendRecv, TagsDemultiplex)
{
    hw::Machine m(small(2));
    std::uint32_t a = 0, b = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(8);
        if (ctx.id() == 0) {
            ctx.poke_u32(buf, 111);
            ctx.send(1, 1, buf, 4);
            // SEND is non-blocking and gathers lazily: reusing buf
            // here would race the send DMA (the hazard send_flag
            // guards against), so the second message gets its own
            // buffer.
            Addr buf2 = ctx.alloc(8);
            ctx.poke_u32(buf2, 222);
            ctx.send(1, 2, buf2, 4);
        } else {
            Addr dst = ctx.alloc(8);
            // Receive in reverse tag order.
            ctx.recv(0, 2, dst, 4);
            b = ctx.peek_u32(dst);
            ctx.recv(0, 1, dst, 4);
            a = ctx.peek_u32(dst);
        }
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(a, 111u);
    EXPECT_EQ(b, 222u);
}

TEST(SendRecv, AnySourceReceivesFromWhoeverArrives)
{
    hw::Machine m(small(4));
    int total = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(8);
        if (ctx.id() != 0) {
            ctx.poke_u32(buf, static_cast<std::uint32_t>(ctx.id()));
            ctx.send(0, 5, buf, 4);
        } else {
            for (int i = 0; i < 3; ++i) {
                ctx.recv(hw::any_source, 5, buf, 4);
                total += static_cast<int>(ctx.peek_u32(buf));
            }
        }
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(total, 1 + 2 + 3);
}

TEST(SendRecv, ReceiveCopiesArePaidPutsAreNot)
{
    // The architectural point of Section 1.3: SEND/RECEIVE buffers
    // and copies; PUT writes directly to user memory.
    hw::Machine m(small(2));

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(1024);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0) {
            ctx.send(1, 9, buf, 1024);
            ctx.put(1, buf, buf, 1024, no_flag, rf);
        } else {
            ctx.recv(0, 9, buf, 1024);
            ctx.wait_flag(rf, 1);
        }
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(m.cell(1).ring().stats().copies, 1u);
    EXPECT_EQ(m.cell(1).ring().stats().deposits, 1u);
    // The PUT bypassed the ring buffer entirely.
    EXPECT_EQ(m.cell(1).msc().stats().putsReceived, 1u);
}

TEST(SendRecv, ManySmallMessagesOverflowRingGracefully)
{
    hw::MachineConfig cfg = small(2);
    cfg.ringBufferBytes = 256; // tiny: force growth interrupts
    hw::Machine m(cfg);

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(64);
        if (ctx.id() == 0) {
            for (int i = 0; i < 32; ++i)
                ctx.send(1, i, buf, 64);
        } else {
            ctx.compute_us(5000); // let them pile up
            for (int i = 0; i < 32; ++i)
                ctx.recv(0, i, buf, 64);
        }
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_GT(m.cell(1).ring().stats().growInterrupts, 0u);
}

TEST(SendRecv, TraceLogsSendAndRecv)
{
    hw::Machine m(small(2));
    Trace trace;
    auto r = run_spmd(
        m,
        [&](Context &ctx) {
            Addr buf = ctx.alloc(8);
            if (ctx.id() == 0)
                ctx.send(1, 3, buf, 8);
            else
                ctx.recv(0, 3, buf, 8);
        },
        &trace);
    ASSERT_FALSE(r.deadlock);
    ASSERT_EQ(trace.timeline(0).size(), 1u);
    EXPECT_EQ(trace.timeline(0)[0].op, TraceOp::send);
    EXPECT_EQ(trace.timeline(0)[0].peer, 1);
    EXPECT_EQ(trace.timeline(0)[0].bytes, 8u);
    ASSERT_EQ(trace.timeline(1).size(), 1u);
    EXPECT_EQ(trace.timeline(1)[0].op, TraceOp::recv);
}
