/**
 * @file
 * Functional PUT/GET tests on the full machine: data movement, flag
 * semantics, stride transfers, acknowledge probes, queue overflow
 * under bursts, and page-fault protection.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "mlsim/params.hh"

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

std::vector<std::uint8_t>
iota_bytes(std::size_t n, std::uint8_t start = 0)
{
    std::vector<std::uint8_t> v(n);
    std::iota(v.begin(), v.end(), start);
    return v;
}

} // namespace

TEST(PutGet, PutMovesBytesAndBumpsBothFlags)
{
    hw::Machine m(small(4));
    std::vector<std::uint8_t> got(64);

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr sf = ctx.alloc_flag();
        Addr rf = ctx.alloc_flag();

        if (ctx.id() == 0) {
            ctx.poke(buf, iota_bytes(64, 1));
            ctx.put(1, buf, buf, 64, sf, rf);
            ctx.wait_flag(sf, 1); // send DMA completed
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 1); // receive DMA completed
            ctx.peek(buf, got);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(got, iota_bytes(64, 1));
}

TEST(PutGet, GetPullsRemoteData)
{
    hw::Machine m(small(4));
    std::vector<std::uint8_t> got(128);

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr src = ctx.alloc(128);
        Addr dst = ctx.alloc(128);
        Addr rf = ctx.alloc_flag();

        if (ctx.id() == 2)
            ctx.poke(src, iota_bytes(128, 7));
        ctx.barrier(); // data ready before anyone GETs

        if (ctx.id() == 0) {
            ctx.get(2, src, dst, 128, no_flag, rf);
            ctx.wait_flag(rf, 1);
            ctx.peek(dst, got);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(got, iota_bytes(128, 7));
}

TEST(PutGet, GetSendFlagBumpsAtDataOwner)
{
    hw::Machine m(small(2));
    std::uint32_t owner_flag = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr src = ctx.alloc(32);
        Addr dst = ctx.alloc(32);
        Addr sf = ctx.alloc_flag(); // on the owner (cell 1)
        Addr rf = ctx.alloc_flag();

        ctx.barrier();
        if (ctx.id() == 0) {
            ctx.get(1, src, dst, 32, sf, rf);
            ctx.wait_flag(rf, 1);
        }
        ctx.barrier();
        if (ctx.id() == 1)
            owner_flag = ctx.flag(sf);
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(owner_flag, 1u); // reply-send completion flagged there
}

TEST(PutGet, NoFlagMeansNoUpdate)
{
    hw::Machine m(small(2));
    std::uint64_t increments = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(16);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0) {
            ctx.put(1, buf, buf, 16, no_flag, rf);
        }
        if (ctx.id() == 1)
            ctx.wait_flag(rf, 1);
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    // Only the receive flag ticked: one increment machine-wide.
    increments = m.cell(0).mc().stats().flagIncrements +
                 m.cell(1).mc().stats().flagIncrements;
    EXPECT_EQ(increments, 1u);
}

TEST(PutGet, MultiplePutsIncrementFlagCumulatively)
{
    hw::Machine m(small(2));
    std::uint32_t final_flag = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(8);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0) {
            for (int i = 0; i < 10; ++i)
                ctx.put(1, buf, buf, 8, no_flag, rf);
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 10);
            final_flag = ctx.flag(rf);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(final_flag, 10u);
}

TEST(PutGet, StrideScattersIntoColumns)
{
    // Send a contiguous 5-item block; scatter it as a "column" with a
    // 12-byte skip on the receiver — the Figure 3 pattern.
    hw::Machine m(small(2));
    std::vector<std::uint8_t> image(80);

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr src = ctx.alloc(20);
        Addr dst = ctx.alloc(80);
        Addr rf = ctx.alloc_flag();

        if (ctx.id() == 0) {
            ctx.poke(src, iota_bytes(20, 1));
            ctx.put_stride(1, dst, src, false, no_flag, rf,
                           net::StrideSpec{20, 1, 0},
                           net::StrideSpec{4, 5, 12});
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 1);
            ctx.peek(dst, image);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    // Items of 4 land every 16 bytes.
    for (int i = 0; i < 5; ++i)
        for (int b = 0; b < 4; ++b)
            EXPECT_EQ(image[static_cast<std::size_t>(i * 16 + b)],
                      static_cast<std::uint8_t>(i * 4 + b + 1));
}

TEST(PutGet, StrideGatherFromMatrixColumn)
{
    // get_stride pulling a column out of a row-major "matrix".
    hw::Machine m(small(2));
    constexpr int rows = 8, cols = 8, elem = 8;
    std::vector<double> column(rows);

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr mat = ctx.alloc(rows * cols * elem);
        Addr dst = ctx.alloc(rows * elem);
        Addr rf = ctx.alloc_flag();

        if (ctx.id() == 1) {
            for (int y = 0; y < rows; ++y)
                for (int x = 0; x < cols; ++x)
                    ctx.poke_f64(mat + static_cast<Addr>(
                                           (y * cols + x) * elem),
                                 y * 100.0 + x);
        }
        ctx.barrier();

        if (ctx.id() == 0) {
            // Column 3: one 8-byte item per row, skip (cols-1)*8.
            ctx.get_stride(1, mat + 3 * elem, dst, no_flag, rf,
                           net::StrideSpec{elem, rows,
                                           (cols - 1) * elem},
                           net::StrideSpec{static_cast<std::uint32_t>(
                                               rows * elem),
                                           1, 0});
            ctx.wait_flag(rf, 1);
            for (int y = 0; y < rows; ++y)
                column[static_cast<std::size_t>(y)] = ctx.peek_f64(
                    dst + static_cast<Addr>(y * elem));
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    for (int y = 0; y < rows; ++y)
        EXPECT_DOUBLE_EQ(column[static_cast<std::size_t>(y)],
                         y * 100.0 + 3);
}

TEST(PutGet, AckProbeDetectsRemoteCompletion)
{
    hw::Machine m(small(4));
    std::vector<std::uint8_t> got(32);

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(32);
        if (ctx.id() == 0) {
            ctx.poke(buf, iota_bytes(32, 9));
            ctx.put(3, buf, buf, 32, no_flag, no_flag, /*ack=*/true);
            ctx.wait_all_acks();
            // The ack arrived, so in-order delivery guarantees the
            // PUT landed: read it back through the network to check.
            Addr back = ctx.alloc(32);
            ctx.read_remote(3, buf, back, 32);
            ctx.peek(back, got);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(got, iota_bytes(32, 9));
    EXPECT_EQ(m.cell(0).msc().stats().acksReceived, 1u);
}

TEST(PutGet, WriteRemoteReadRemoteRoundTrip)
{
    hw::Machine m(small(4));
    double got = 0.0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr v = ctx.alloc(8);
        ctx.barrier();
        if (ctx.id() == 0) {
            ctx.poke_f64(v, 2.718281828);
            ctx.write_remote(2, v, v, 8);
        }
        ctx.barrier();
        if (ctx.id() == 1) {
            Addr dst = ctx.alloc(8);
            ctx.read_remote(2, v, dst, 8);
            got = ctx.peek_f64(dst);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_DOUBLE_EQ(got, 2.718281828);
}

TEST(PutGet, BurstOverflowsQueueAndStillDeliversEverything)
{
    hw::Machine m(small(2));
    std::uint32_t final_flag = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(8);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0) {
            // 50 PUTs versus an 8-command hardware queue.
            for (int i = 0; i < 50; ++i)
                ctx.put(1, buf, buf, 8, no_flag, rf);
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 50);
            final_flag = ctx.flag(rf);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(final_flag, 50u);
    EXPECT_GT(m.cell(0).msc().user_queue().stats().spills, 0u);
    EXPECT_GT(m.cell(0).msc().user_queue().stats().refillInterrupts,
              0u);
}

TEST(PutGet, RemotePageFaultFlushesMessage)
{
    hw::MachineConfig cfg = small(2);
    hw::Machine m(cfg);
    // Unmap most of cell 1's memory: PUTs there will fault.

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(64);
        if (ctx.id() == 1) {
            // Make a hole: the target page disappears.
            ctx.cell().mc().mmu().unmap(0x80000);
        }
        ctx.barrier();
        if (ctx.id() == 0) {
            ctx.put(1, 0x80000, buf, 64, no_flag, no_flag, true);
            // The data message faulted and was flushed, but the ack
            // probe still bounces, so completion detection survives.
            ctx.wait_all_acks();
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(m.stats_registry().sum("*.msc.remote_faults"), 1u);
    EXPECT_EQ(m.cell(1).msc().stats().flushedMessages, 1u);
}

TEST(PutGet, FourMegabyteSinglePut)
{
    // "The send DMA controller can send from 1 word to 1 megaword
    // (4 megabytes) of data in a single operation."
    hw::MachineConfig cfg = small(2);
    cfg.memBytesPerCell = 10 << 20;
    hw::Machine m(cfg);
    bool ok = false;

    auto r = run_spmd(m, [&](Context &ctx) {
        constexpr std::uint32_t mb4 = 4 << 20;
        Addr buf = ctx.alloc(mb4);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0) {
            std::vector<std::uint8_t> big(mb4);
            for (std::size_t i = 0; i < big.size(); ++i)
                big[i] = static_cast<std::uint8_t>(i * 2654435761u >>
                                                   24);
            ctx.poke(buf, big);
            ctx.put(1, buf, buf, mb4, no_flag, rf);
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 1);
            std::vector<std::uint8_t> got(mb4);
            ctx.peek(buf, got);
            ok = true;
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (got[i] != static_cast<std::uint8_t>(
                                  i * 2654435761u >> 24)) {
                    ok = false;
                    break;
                }
            }
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_TRUE(ok);
}

TEST(PutGet, OverlapKeepsProcessorFree)
{
    // A PUT is non-blocking: the issuing cell's compute continues
    // while the MSC+ streams data. Compare issue cost with and
    // without a large payload.
    hw::Machine m1(small(2));
    Tick issue_small = 0, issue_big = 0;

    run_spmd(m1, [&](Context &ctx) {
        Addr buf = ctx.alloc(1 << 16);
        if (ctx.id() == 0) {
            Tick t0 = ctx.now();
            ctx.put(1, buf, buf, 8, no_flag, no_flag);
            issue_small = ctx.now() - t0;
            Tick t1 = ctx.now();
            ctx.put(1, buf, buf, 1 << 16, no_flag, no_flag);
            issue_big = ctx.now() - t1;
        }
        ctx.barrier();
    });
    // Issue cost is the 8 parameter stores; payload size is invisible
    // to the processor.
    EXPECT_EQ(issue_small, issue_big);
    EXPECT_EQ(issue_small,
              us_to_ticks(mlsim::Params::ap1000_plus().put_enqueue_time));
}

TEST(PutGet, DeadlockIsReportedNotHung)
{
    hw::Machine m(small(2));
    set_quiet(true);
    auto r = run_spmd(m, [&](Context &ctx) {
        Addr f = ctx.alloc_flag();
        if (ctx.id() == 0)
            ctx.wait_flag(f, 1); // nobody ever puts
    });
    set_quiet(false);
    EXPECT_TRUE(r.deadlock);
    ASSERT_EQ(r.stuck.size(), 1u);
    EXPECT_EQ(r.stuck[0], "cell0");
}
