/**
 * @file
 * MSC+ behaviour tests: queue priorities, autonomous GET replies,
 * send-flag protection of reused buffers, in-order acknowledgement
 * semantics, and the statistics counters.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "base/logging.hh"
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

TEST(Msc, SendFlagProtectsBufferReuse)
{
    // The Section 3.1 discipline: wait for send_flag before reusing
    // a send buffer; both receivers then see the right values.
    hw::Machine m(small(3));
    std::uint32_t got1 = 0, got2 = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(8);
        Addr sf = ctx.alloc_flag();
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0) {
            ctx.poke_u32(buf, 111);
            ctx.put(1, buf, buf, 4, sf, rf);
            ctx.wait_flag(sf, 1); // gather finished: safe to reuse
            ctx.poke_u32(buf, 222);
            ctx.put(2, buf, buf, 4, sf, rf);
            ctx.wait_flag(sf, 2);
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 1);
            got1 = ctx.peek_u32(buf);
        }
        if (ctx.id() == 2) {
            ctx.wait_flag(rf, 1);
            got2 = ctx.peek_u32(buf);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(got1, 111u);
    EXPECT_EQ(got2, 222u);
}

TEST(Msc, GetRepliesAreAutonomous)
{
    // The data owner's processor is busy computing the whole time;
    // the MSC+ must answer GETs without it.
    hw::Machine m(small(2));
    double got = 0;
    Tick reply_arrived = 0, owner_woke = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr v = ctx.alloc(8);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 1)
            ctx.poke_f64(v, 9.75);
        ctx.barrier();
        if (ctx.id() == 1) {
            ctx.compute_us(100000.0); // long uninterrupted compute
            owner_woke = ctx.now();
        }
        if (ctx.id() == 0) {
            Addr dst = ctx.alloc(8);
            ctx.get(1, v, dst, 8, no_flag, rf);
            ctx.wait_flag(rf, 1);
            got = ctx.peek_f64(dst);
            reply_arrived = ctx.now();
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_DOUBLE_EQ(got, 9.75);
    EXPECT_LT(reply_arrived, owner_woke);
    EXPECT_EQ(m.cell(1).msc().stats().getRequestsReceived, 1u);
    EXPECT_EQ(m.cell(1).msc().stats().getRepliesSent, 1u);
}

TEST(Msc, AckImpliesEarlierPutLanded)
{
    // The in-order property under load: after a burst of PUTs to the
    // same destination, a single ack probe proves all of them landed.
    hw::Machine m(small(2));
    int bad = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        constexpr int burst = 30;
        Addr base = ctx.alloc(burst * 8);
        ctx.barrier();
        if (ctx.id() == 0) {
            for (int i = 0; i < burst; ++i) {
                Addr a = base + static_cast<Addr>(i) * 8;
                ctx.poke_f64(a, i + 0.5);
                ctx.put(1, a, a, 8, no_flag, no_flag);
            }
            ctx.ack_probe(1);
            ctx.wait_all_acks();
            // Everything must be visible remotely now: read it back.
            Addr check = ctx.alloc(burst * 8);
            ctx.read_remote(1, base, check,
                            static_cast<std::uint32_t>(burst * 8));
            for (int i = 0; i < burst; ++i)
                if (ctx.peek_f64(check + static_cast<Addr>(i) * 8) !=
                    i + 0.5)
                    ++bad;
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(bad, 0);
    // One probe acknowledged the whole burst.
    EXPECT_EQ(m.cell(0).msc().stats().acksReceived, 1u);
}

TEST(Msc, StatsCountersAreConsistent)
{
    hw::Machine m(small(2));
    run_spmd(m, [](Context &ctx) {
        Addr buf = ctx.alloc(512);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0) {
            for (int i = 0; i < 5; ++i)
                ctx.put(1, buf, buf, 256, no_flag, rf);
            ctx.get(1, buf, buf, 128, no_flag, rf);
            ctx.send(1, 7, buf, 64);
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 6);
            ctx.recv(0, 7, buf, 64);
        }
        ctx.barrier();
    });
    const auto &s0 = m.cell(0).msc().stats();
    const auto &s1 = m.cell(1).msc().stats();
    EXPECT_EQ(s0.putsSent, 5u);
    EXPECT_EQ(s0.getsSent, 1u);
    EXPECT_EQ(s0.sendsSent, 1u);
    EXPECT_EQ(s1.putsReceived, 5u);
    EXPECT_EQ(s1.sendsReceived, 1u);
    EXPECT_EQ(s1.getRequestsReceived, 1u);
    EXPECT_EQ(s0.getRepliesReceived, 1u);
    EXPECT_EQ(s0.payloadBytesSent, 5u * 256 + 64);
    EXPECT_EQ(s1.payloadBytesSent, 128u); // the GET reply
}

TEST(Msc, ManyGetsServedInOrderFromReplyQueue)
{
    // A GET storm at one owner: the reply queue must serve all of
    // them, spilling to DRAM if needed, with correct data.
    hw::Machine m(small(4));
    int bad = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        constexpr int gets = 40;
        Addr v = ctx.alloc(8);
        Addr dst = ctx.alloc(gets * 8);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0)
            ctx.poke_f64(v, 3.5);
        ctx.barrier();
        if (ctx.id() != 0) {
            for (int i = 0; i < gets; ++i)
                ctx.get(0, v, dst + static_cast<Addr>(i) * 8, 8,
                        no_flag, rf);
            ctx.wait_flag(rf, gets);
            for (int i = 0; i < gets; ++i)
                if (ctx.peek_f64(dst + static_cast<Addr>(i) * 8) !=
                    3.5)
                    ++bad;
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(m.cell(0).msc().stats().getRepliesSent, 120u);
}

TEST(Msc, ForcedOverflowPlanSpillsRefillsAndStaysCorrect)
{
    // Every queue push under FaultPlan::overflows(p=1) takes the
    // Section 4.1 DRAM-spill + refill-interrupt path; the burst must
    // still land byte-exact and in order.
    hw::MachineConfig cfg = small(2);
    cfg.faults = sim::FaultPlan::overflows(11, 1.0);
    hw::Machine m(cfg);
    int bad = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        constexpr int burst = 30;
        Addr base = ctx.alloc(burst * 8);
        ctx.barrier();
        if (ctx.id() == 0) {
            for (int i = 0; i < burst; ++i) {
                Addr a = base + static_cast<Addr>(i) * 8;
                ctx.poke_f64(a, i + 0.25);
                ctx.put(1, a, a, 8, no_flag, no_flag);
            }
            ctx.ack_probe(1);
            ctx.wait_all_acks();
            Addr check = ctx.alloc(burst * 8);
            ctx.read_remote(1, base, check,
                            static_cast<std::uint32_t>(burst * 8));
            for (int i = 0; i < burst; ++i)
                if (ctx.peek_f64(check + static_cast<Addr>(i) * 8) !=
                    i + 0.25)
                    ++bad;
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(bad, 0);
    EXPECT_GT(m.faults().stats().forcedSpills, 0u);
    std::uint64_t spills = 0, refills = 0;
    for (int i = 0; i < 2; ++i) {
        const auto &q = m.cell(i).msc().user_queue().stats();
        spills += q.spills;
        refills += q.refillInterrupts;
    }
    EXPECT_GT(spills, 0u);
    EXPECT_GT(refills, 0u);
}

TEST(Msc, LocalFaultDropsCommandAndContinues)
{
    // A PUT whose *local* gather faults is dropped after the OS
    // services the fault; later commands still flow.
    hw::Machine m(small(2));
    std::uint32_t final_flag = 0;

    set_quiet(true);
    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0) {
            ctx.cell().mc().mmu().unmap(0x80000);
            ctx.put(1, buf, 0x80000, 64, no_flag, rf); // faults
            ctx.put(1, buf, buf, 64, no_flag, rf);     // succeeds
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 1);
            final_flag = ctx.flag(rf);
        }
        ctx.barrier();
    });
    set_quiet(false);
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(m.stats_registry().sum("*.msc.local_faults"), 1u);
    EXPECT_EQ(final_flag, 1u);
    EXPECT_EQ(m.cell(0).msc().stats().localFaults, 1u);
}
