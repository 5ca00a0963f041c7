/**
 * @file
 * Distributed shared memory tests (Section 4.2): the address map,
 * hardware remote load/store, automatic store acknowledgements, and
 * remote stores into communication registers.
 */

#include <gtest/gtest.h>

#include "core/ap1000p.hh"
#include "hw/dsm.hh"

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

TEST(DsmMap, EncodeDecodeRoundTrip)
{
    hw::DsmMap map(64, 32 << 20);
    for (CellId c : {0, 1, 17, 63}) {
        for (Addr off : {Addr{0}, Addr{12345}, Addr{(32 << 20) - 1}}) {
            Addr global = map.encode(c, off);
            auto t = map.decode(global);
            ASSERT_TRUE(t.has_value());
            EXPECT_EQ(t->cell, c);
            EXPECT_EQ(t->localAddr, off);
        }
    }
}

TEST(DsmMap, LocalSpaceIsNotShared)
{
    hw::DsmMap map(4, 1 << 20);
    EXPECT_FALSE(map.decode(0).has_value());
    EXPECT_FALSE(map.decode(hw::DsmMap::shared_base - 1).has_value());
    EXPECT_TRUE(map.decode(hw::DsmMap::shared_base).has_value());
}

TEST(DsmMap, BeyondLastBlockIsInvalid)
{
    hw::DsmMap map(4, 1 << 20);
    Addr past = hw::DsmMap::shared_base + 4ull * (1 << 20);
    EXPECT_FALSE(map.decode(past).has_value());
}

TEST(DsmMap, PaperConfiguration)
{
    // "if the system consists of 1024 cells, and the local memory
    // size is 64 megabytes, the block size becomes 32 megabytes".
    hw::DsmMap map(1024, 32 << 20);
    EXPECT_EQ(map.block_size(), Addr{32} << 20);
    EXPECT_EQ(map.block_base(0), hw::DsmMap::shared_base);
    EXPECT_EQ(map.block_base(1),
              hw::DsmMap::shared_base + (Addr{32} << 20));
}

TEST(Dsm, RemoteStoreThenLoadRoundTrip)
{
    hw::Machine m(small(4));
    std::uint32_t got = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr slot = ctx.alloc(8);
        ctx.barrier();
        if (ctx.id() == 0) {
            ctx.remote_store_u32(2, slot, 0xfeedface);
            ctx.wait_all_acks(); // remote stores auto-ack
        }
        ctx.barrier();
        if (ctx.id() == 1)
            got = ctx.remote_load_u32(2, slot);
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(got, 0xfeedfaceu);
}

TEST(Dsm, RemoteLoadIsBlocking)
{
    hw::Machine m(small(2));
    Tick issue = 0, done = 0;

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr slot = ctx.alloc(8);
        if (ctx.id() == 1)
            ctx.poke_u32(slot, 7);
        ctx.barrier();
        if (ctx.id() == 0) {
            issue = ctx.now();
            (void)ctx.remote_load_u32(1, slot);
            done = ctx.now();
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    // At minimum one network round trip passed while blocked.
    Tick rtt = 2 * m.tnet().latency(0, 1, net::Message::header_bytes);
    EXPECT_GE(done - issue, rtt);
}

TEST(Dsm, RemoteLoad64)
{
    hw::Machine m(small(2));
    std::uint64_t got = 0;
    auto r = run_spmd(m, [&](Context &ctx) {
        Addr slot = ctx.alloc(8);
        if (ctx.id() == 1)
            ctx.poke_f64(slot, 1.5);
        ctx.barrier();
        if (ctx.id() == 0)
            got = ctx.remote_load_u64(1, slot);
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    double d;
    std::memcpy(&d, &got, 8);
    EXPECT_DOUBLE_EQ(d, 1.5);
}

TEST(Dsm, StoresToCommRegSpaceLandInRegisters)
{
    hw::Machine m(small(2));
    std::uint32_t reg_value = 0;
    bool present_before_load = false;

    auto r = run_spmd(m, [&](Context &ctx) {
        if (ctx.id() == 0) {
            ctx.remote_store_u32(1, hw::Mc::commreg_base + 5 * 4,
                                 31337);
            ctx.wait_all_acks();
        }
        ctx.barrier();
        if (ctx.id() == 1) {
            present_before_load = ctx.cell().mc().regs().present(5);
            EXPECT_TRUE(ctx.cell().mc().regs().try_load(5, reg_value));
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_TRUE(present_before_load);
    EXPECT_EQ(reg_value, 31337u);
}

TEST(Dsm, RemoteLoadPriorityOverUserPuts)
{
    // Remote access uses a privileged queue: a blocked processor's
    // load must not sit behind a burst of user PUTs.
    hw::Machine m(small(2));

    auto r = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(4096);
        Addr slot = ctx.alloc(8);
        if (ctx.id() == 1)
            ctx.poke_u32(slot, 1);
        ctx.barrier();
        if (ctx.id() == 0) {
            for (int i = 0; i < 20; ++i)
                ctx.put(1, buf, buf, 4096, no_flag, no_flag);
            std::uint32_t v = ctx.remote_load_u32(1, slot);
            EXPECT_EQ(v, 1u);
        }
        ctx.barrier();
    });
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(m.cell(0).msc().stats().remoteLoads, 0u);
    EXPECT_EQ(m.cell(1).msc().stats().remoteLoads, 1u);
}
