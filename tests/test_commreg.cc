/**
 * @file
 * Communication register tests: p-bit semantics and hardware-retry
 * loads (Section 4.4). A blocking load is the probe-and-park loop
 * core::Context runs: try_load(), park on store_cond(), re-probe.
 */

#include <gtest/gtest.h>

#include "hw/commreg.hh"
#include "sim/eventq.hh"
#include "sim/process.hh"

using namespace ap;
using namespace ap::hw;

namespace
{

/** Blocking load: probe, park on the register's store condition,
 *  re-probe — counting the stall the way core::Context does. */
std::uint32_t
load(CommRegisterFile &regs, int index, sim::Process &proc)
{
    std::uint32_t v = 0;
    bool stalled = false;
    while (!regs.try_load(index, v, stalled)) {
        stalled = true;
        proc.wait(regs.store_cond(index));
    }
    return v;
}

} // namespace

TEST(CommReg, StoreSetsPresentBit)
{
    CommRegisterFile regs;
    EXPECT_FALSE(regs.present(0));
    regs.store(0, 77);
    EXPECT_TRUE(regs.present(0));
}

TEST(CommReg, TryLoadClearsPresentBit)
{
    CommRegisterFile regs;
    regs.store(3, 123);
    std::uint32_t v = 0;
    EXPECT_TRUE(regs.try_load(3, v));
    EXPECT_EQ(v, 123u);
    EXPECT_FALSE(regs.present(3));
    EXPECT_FALSE(regs.try_load(3, v));
}

TEST(CommReg, OverwriteOfFullRegisterCounted)
{
    CommRegisterFile regs;
    regs.store(5, 1);
    regs.store(5, 2);
    EXPECT_EQ(regs.overwrites(), 1u);
    std::uint32_t v = 0;
    regs.try_load(5, v);
    EXPECT_EQ(v, 2u); // last write wins
}

TEST(CommReg, BlockingLoadStallsUntilStore)
{
    sim::Simulator sim;
    CommRegisterFile regs;
    std::uint32_t got = 0;
    Tick when = 0;

    sim::Process consumer(sim, "consumer", [&](sim::Process &p) {
        got = load(regs, 7, p);
        when = sim.now();
    });
    sim::Process producer(sim, "producer", [&](sim::Process &p) {
        p.delay(1000);
        regs.store(7, 99);
    });
    consumer.start(0);
    producer.start(0);
    sim.run();

    EXPECT_EQ(got, 99u);
    EXPECT_EQ(when, 1000u);
    EXPECT_EQ(regs.stats().stalledLoads, 1u);
}

TEST(CommReg, LoadOfPresentValueDoesNotStall)
{
    sim::Simulator sim;
    CommRegisterFile regs;
    regs.store(1, 5);
    std::uint32_t got = 0;
    sim::Process p(sim, "p",
                   [&](sim::Process &self) { got = load(regs, 1, self); });
    p.start(0);
    sim.run();
    EXPECT_EQ(got, 5u);
    EXPECT_EQ(regs.stats().stalledLoads, 0u);
    EXPECT_EQ(sim.now(), 0u);
}

TEST(CommReg, PingPongThroughOneRegister)
{
    sim::Simulator sim;
    CommRegisterFile regs;
    std::vector<std::uint32_t> seen;

    sim::Process reader(sim, "reader", [&](sim::Process &p) {
        for (int i = 0; i < 5; ++i)
            seen.push_back(load(regs, 0, p));
    });
    sim::Process writer(sim, "writer", [&](sim::Process &p) {
        for (std::uint32_t i = 0; i < 5; ++i) {
            p.delay(10);
            regs.store(0, i);
        }
    });
    reader.start(0);
    writer.start(0);
    sim.run();
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(CommRegDeath, OutOfRangeIndexPanics)
{
    CommRegisterFile regs;
    EXPECT_DEATH(regs.store(128, 0), "out of range");
    EXPECT_DEATH(regs.store(-1, 0), "out of range");
}
