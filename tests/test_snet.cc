/**
 * @file
 * S-net unit tests: context creation, arrival/release semantics,
 * re-arming, subset contexts, and misuse detection.
 */

#include <gtest/gtest.h>

#include "mlsim/params.hh"
#include "net/snet.hh"
#include "sim/eventq.hh"

using namespace ap;
using namespace ap::net;

namespace
{

/** The AP1000+ table with a 2 us S-net release. */
mlsim::Params
two_us_release()
{
    mlsim::Params p = mlsim::Params::ap1000_plus();
    p.barrier_time = 2.0;
    return p;
}

struct Rig
{
    sim::Simulator sim;
    Snet snet{sim, 8, two_us_release()};
};

} // namespace

TEST(Snet, ReleasesAfterLastArrivalPlusLatency)
{
    Rig rig;
    auto ctx = rig.snet.create_context({0, 1, 2});
    std::vector<Tick> released;

    rig.sim.schedule(100, [&]() {
        rig.snet.arrive(ctx, 0,
                        [&]() { released.push_back(rig.sim.now()); });
    });
    rig.sim.schedule(300, [&]() {
        rig.snet.arrive(ctx, 1,
                        [&]() { released.push_back(rig.sim.now()); });
    });
    rig.sim.schedule(250, [&]() {
        rig.snet.arrive(ctx, 2,
                        [&]() { released.push_back(rig.sim.now()); });
    });
    rig.sim.run();

    ASSERT_EQ(released.size(), 3u);
    for (Tick t : released)
        EXPECT_EQ(t, 300u + us_to_ticks(2.0));
}

TEST(Snet, ReArmsAfterEachEpisode)
{
    Rig rig;
    auto ctx = rig.snet.create_context({0, 1});
    int releases = 0;
    for (int round = 0; round < 5; ++round) {
        rig.snet.arrive(ctx, 0, [&]() { ++releases; });
        rig.snet.arrive(ctx, 1, [&]() { ++releases; });
        rig.sim.run();
    }
    EXPECT_EQ(releases, 10);
    EXPECT_EQ(rig.snet.episodes(ctx), 5u);
}

TEST(Snet, EmptyMemberListMeansAllCells)
{
    Rig rig;
    auto ctx = rig.snet.create_context();
    int releases = 0;
    for (CellId c = 0; c < 8; ++c)
        rig.snet.arrive(ctx, c, [&]() { ++releases; });
    rig.sim.run();
    EXPECT_EQ(releases, 8);
}

TEST(Snet, IndependentContextsDoNotInterfere)
{
    Rig rig;
    auto a = rig.snet.create_context({0, 1});
    auto b = rig.snet.create_context({2, 3});
    bool a_released = false, b_released = false;

    rig.snet.arrive(a, 0, [&]() { a_released = true; });
    rig.snet.arrive(b, 2, [&]() { b_released = true; });
    rig.snet.arrive(b, 3, [&]() { b_released = true; });
    rig.sim.run();
    EXPECT_FALSE(a_released); // cell 1 never arrived
    EXPECT_TRUE(b_released);
}

TEST(SnetDeath, DoubleArrivalPanics)
{
    Rig rig;
    auto ctx = rig.snet.create_context({0, 1});
    rig.snet.arrive(ctx, 0, []() {});
    EXPECT_DEATH(rig.snet.arrive(ctx, 0, []() {}), "twice");
}

TEST(SnetDeath, NonMemberArrivalPanics)
{
    Rig rig;
    auto ctx = rig.snet.create_context({0, 1});
    EXPECT_DEATH(rig.snet.arrive(ctx, 5, []() {}), "not a member");
}

TEST(SnetDeath, InvalidMemberIsFatal)
{
    Rig rig;
    EXPECT_DEATH(rig.snet.create_context({0, 99}), "outside");
}
