/**
 * @file
 * Memory + DMA stride gather/scatter tests, including a property
 * sweep comparing the engine against a plain reference model.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "core/ap1000p.hh"
#include "hw/dma.hh"
#include "hw/memory.hh"
#include "hw/mmu.hh"

using namespace ap;
using namespace ap::hw;
using namespace ap::net;

namespace
{

struct Rig
{
    CellMemory mem{1 << 20};
    Mmu mmu;

    Rig() { mmu.map_linear(1 << 20); }

    void
    fill_iota(Addr base, std::size_t n)
    {
        std::vector<std::uint8_t> v(n);
        std::iota(v.begin(), v.end(), std::uint8_t{0});
        mem.write(base, v);
    }
};

/** Reference gather straight from physical memory. */
std::vector<std::uint8_t>
ref_gather(const CellMemory &mem, Addr addr, StrideSpec s)
{
    std::vector<std::uint8_t> out;
    Addr cur = addr;
    for (std::uint32_t i = 0; i < s.count; ++i) {
        std::vector<std::uint8_t> item(s.itemSize);
        mem.read(cur, item);
        out.insert(out.end(), item.begin(), item.end());
        cur += s.itemSize + s.skip;
    }
    return out;
}

} // namespace

TEST(CellMemory, TypedAccessRoundTrip)
{
    CellMemory mem(4096);
    mem.write_u32(0, 0xdeadbeef);
    EXPECT_EQ(mem.read_u32(0), 0xdeadbeefu);
    mem.write_u64(8, 0x0123456789abcdefull);
    EXPECT_EQ(mem.read_u64(8), 0x0123456789abcdefull);
    mem.write_f64(16, 3.25);
    EXPECT_DOUBLE_EQ(mem.read_f64(16), 3.25);
}

TEST(CellMemory, FetchIncrementReturnsOldValue)
{
    CellMemory mem(4096);
    mem.write_u32(100, 41);
    EXPECT_EQ(mem.fetch_increment_u32(100), 41u);
    EXPECT_EQ(mem.read_u32(100), 42u);
}

TEST(CellMemoryDeath, OutOfRangePanics)
{
    CellMemory mem(64);
    std::uint8_t b[8];
    EXPECT_DEATH(mem.read(60, b), "beyond");
}

TEST(Dma, ContiguousGatherMatchesMemory)
{
    Rig rig;
    rig.fill_iota(0x1000, 256);
    std::vector<std::uint8_t> out;
    DmaResult r = DmaEngine::gather(rig.mmu, rig.mem, 0x1000,
                                    StrideSpec::contiguous(256), out);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.bytesMoved, 256u);
    EXPECT_EQ(out, ref_gather(rig.mem, 0x1000, StrideSpec{256, 1, 0}));
}

TEST(Dma, StrideGatherSkipsGaps)
{
    Rig rig;
    rig.fill_iota(0, 64);
    // items of 4 bytes, skip 4: bytes 0-3, 8-11, 16-19.
    StrideSpec s{4, 3, 4};
    std::vector<std::uint8_t> out;
    DmaResult r = DmaEngine::gather(rig.mmu, rig.mem, 0, s, out);
    EXPECT_TRUE(r.ok);
    std::vector<std::uint8_t> expect = {0, 1, 2,  3,  8,  9,
                                        10, 11, 16, 17, 18, 19};
    EXPECT_EQ(out, expect);
}

TEST(Dma, ScatterThenGatherRoundTrips)
{
    Rig rig;
    StrideSpec s{8, 5, 24};
    std::vector<std::uint8_t> data(40);
    std::iota(data.begin(), data.end(), std::uint8_t{100});
    DmaResult w = DmaEngine::scatter(rig.mmu, rig.mem, 0x2000, s, data);
    EXPECT_TRUE(w.ok);
    std::vector<std::uint8_t> out;
    DmaResult r = DmaEngine::gather(rig.mmu, rig.mem, 0x2000, s, out);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(out, data);
}

TEST(Dma, PageCrossingRunIsSeamless)
{
    Rig rig;
    // Straddle the 4 KB boundary at 0x1000.
    rig.fill_iota(0x0ff0, 64);
    std::vector<std::uint8_t> out;
    DmaResult r = DmaEngine::gather(rig.mmu, rig.mem, 0x0ff0,
                                    StrideSpec::contiguous(64), out);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(out, ref_gather(rig.mem, 0x0ff0, StrideSpec{64, 1, 0}));
}

TEST(Dma, GatherFaultReportsAddressAndPartialBytes)
{
    Rig rig;
    Mmu mmu; // only first page mapped
    mmu.map(0, 0);
    std::vector<std::uint8_t> out;
    DmaResult r = DmaEngine::gather(mmu, rig.mem, 0x0f00,
                                    StrideSpec::contiguous(512), out);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.faultAddr, 0x1000u);
    EXPECT_EQ(r.bytesMoved, 0x100u);
    EXPECT_EQ(out.size(), 0x100u);
}

TEST(Dma, ScatterFaultStopsAtBoundary)
{
    Rig rig;
    Mmu mmu;
    mmu.map(0, 0);
    std::vector<std::uint8_t> data(512, 7);
    DmaResult r = DmaEngine::scatter(mmu, rig.mem, 0x0f00,
                                     StrideSpec::contiguous(512), data);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.faultAddr, 0x1000u);
    EXPECT_EQ(r.bytesMoved, 0x100u);
}

TEST(Dma, ZeroCountMovesNothing)
{
    Rig rig;
    std::vector<std::uint8_t> out;
    DmaResult r = DmaEngine::gather(rig.mmu, rig.mem, 0,
                                    StrideSpec{8, 0, 8}, out);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(out.empty());
}

struct StrideCase
{
    std::uint32_t item;
    std::uint32_t count;
    std::uint32_t skip;
    Addr base;
};

class DmaStrideProperty : public ::testing::TestWithParam<StrideCase>
{
};

TEST_P(DmaStrideProperty, GatherMatchesReference)
{
    auto c = GetParam();
    Rig rig;
    Random rng(c.base + c.item * 31 + c.count * 17 + c.skip);
    std::vector<std::uint8_t> image(1 << 16);
    for (auto &b : image)
        b = static_cast<std::uint8_t>(rng.next());
    rig.mem.write(0, image);

    StrideSpec s{c.item, c.count, c.skip};
    std::vector<std::uint8_t> out;
    DmaResult r = DmaEngine::gather(rig.mmu, rig.mem, c.base, s, out);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(out, ref_gather(rig.mem, c.base, s));
}

TEST_P(DmaStrideProperty, ScatterIsExactInverse)
{
    auto c = GetParam();
    Rig rig;
    Random rng(c.base ^ 0x5555);
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(c.item) * c.count);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());

    StrideSpec s{c.item, c.count, c.skip};
    ASSERT_TRUE(DmaEngine::scatter(rig.mmu, rig.mem, c.base, s, data)
                    .ok);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(DmaEngine::gather(rig.mmu, rig.mem, c.base, s, out).ok);
    EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, DmaStrideProperty,
    ::testing::Values(StrideCase{1, 1, 0, 0},
                      StrideCase{1, 100, 1, 7},
                      StrideCase{4, 64, 4, 0x100},
                      StrideCase{8, 257, 2048, 0},  // TOMCATV column
                      StrideCase{512, 16, 512, 3},
                      StrideCase{4096, 4, 4096, 0x800}, // page-sized
                      StrideCase{3, 333, 5, 0x123},
                      StrideCase{16, 1, 0, 0xfff})); // boundary start

// -- machine-level flush semantics -----------------------------------
//
// Section 4.1: a page fault hit *during* a remote transfer flushes
// the remainder of the message from the network; the receive flag is
// not bumped and later traffic is unaffected.

TEST(DmaMachine, RemoteScatterFaultFlushesMessageAndSkipsFlag)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    hw::Machine m(cfg);
    std::uint32_t final_flag = 0;
    double landed = 0.0;

    set_quiet(true);
    auto r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 1)
            ctx.cell().mc().mmu().unmap(0x80000);
        ctx.barrier();
        if (ctx.id() == 0) {
            ctx.poke_f64(buf, 6.5);
            ctx.put(1, 0x80000, buf, 64, no_flag, rf); // flushed
            ctx.put(1, buf, buf, 8, no_flag, rf);      // lands
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 1);
            final_flag = ctx.flag(rf);
            landed = ctx.peek_f64(buf);
        }
        ctx.barrier();
    });
    set_quiet(false);
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(m.stats_registry().sum("*.msc.remote_faults"), 1u);
    // Only the healthy PUT bumped the flag; the faulted one flushed.
    EXPECT_EQ(final_flag, 1u);
    EXPECT_DOUBLE_EQ(landed, 6.5);
    EXPECT_EQ(m.cell(1).msc().stats().remoteFaults, 1u);
    EXPECT_EQ(m.cell(1).msc().stats().flushedMessages, 1u);
}

TEST(DmaMachine, InjectedPageFaultPlanFlushesWholeMessages)
{
    // Injected MMU faults (FaultPlan::pageFaults) hit transfers on
    // both the gather and the scatter side. A command dropped at
    // gather never leaves the cell; a message flushed at scatter
    // leaves the destination untouched — so every 8-byte slot is
    // either fully delivered or still zero, never partial.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    cfg.faults = sim::FaultPlan::pageFaults(3, 0.5);
    hw::Machine m(cfg);
    constexpr int puts = 40;
    Addr base = 0;
    int delivered = 0, partial = 0;

    set_quiet(true);
    auto r = core::run_spmd(m, [&](core::Context &ctx) {
        base = ctx.alloc(puts * 8);
        ctx.barrier();
        if (ctx.id() == 0)
            for (int i = 0; i < puts; ++i) {
                Addr a = base + static_cast<Addr>(i) * 8;
                ctx.poke_f64(a, i + 0.125);
                ctx.put(1, a, a, 8, no_flag, no_flag);
            }
        ctx.barrier();
    });
    set_quiet(false);
    ASSERT_FALSE(r.deadlock);

    // run_spmd returns only once the event queue drained, so every
    // surviving message has landed; inspect cell 1's memory directly.
    const auto &mem = m.cell(1).memory();
    for (int i = 0; i < puts; ++i) {
        double got = mem.read_f64(base + static_cast<Addr>(i) * 8);
        if (got == i + 0.125)
            ++delivered;
        else if (got != 0.0)
            ++partial;
    }
    EXPECT_EQ(partial, 0) << "flush must be all-or-nothing";
    EXPECT_GT(delivered, 0);
    EXPECT_LT(delivered, puts);
    const auto &fs = m.faults().stats();
    EXPECT_GT(fs.injectedPageFaults, 0u);
    const auto &s1 = m.cell(1).msc().stats();
    const auto &s0 = m.cell(0).msc().stats();
    EXPECT_GT(s0.localFaults, 0u);  // dropped at gather
    EXPECT_GT(s1.remoteFaults, 0u); // flushed at scatter
    EXPECT_EQ(s1.flushedMessages, s1.remoteFaults);
    EXPECT_EQ(static_cast<std::uint64_t>(delivered),
              s1.putsReceived - s1.remoteFaults);
}
