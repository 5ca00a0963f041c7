/**
 * @file
 * S-net unit tests: context creation, arrival/release semantics,
 * re-arming, subset contexts, members killed through the kill table,
 * and misuse detection.
 */

#include <gtest/gtest.h>

#include "mlsim/params.hh"
#include "net/kills.hh"
#include "net/snet.hh"
#include "obs/span.hh"
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
    KillTable kills{8};
    obs::SpanLayer spans{8, 16};
    Snet snet{sim, 8, two_us_release(), kills, spans};
    std::vector<Tick> released;

    /** Cell @p cell arrives at @p ctx at tick @p at. */
    void
    arrive_at(Snet::ContextId ctx, CellId cell, Tick at)
    {
        sim.schedule(at, [this, ctx, cell] {
            snet.arrive(ctx, cell,
                        [this] { released.push_back(sim.now()); });
        });
    }

    /** Kill @p cell at tick @p at, the way the machine does: record
     *  it in the table, then deliver the death on its timeline. */
    void
    kill_at(CellId cell, Tick at)
    {
        kills.record(cell, at);
        sim.schedule_for(cell, at, [this, cell] { snet.fail_cell(cell); });
    }
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

TEST(Snet, MemberKilledAfterTheOthersArriveReleasesAtItsKill)
{
    // fail_cell() is the event that releases: kill tick + latency.
    Rig rig;
    auto ctx = rig.snet.create_context({0, 1, 2});
    rig.arrive_at(ctx, 0, 100);
    rig.arrive_at(ctx, 1, 300);
    rig.kill_at(2, 5000);
    rig.sim.run();

    EXPECT_EQ(rig.released,
              (std::vector<Tick>(2, 5000 + us_to_ticks(2.0))));
    EXPECT_EQ(rig.snet.episodes(ctx), 1u);
}

TEST(Snet, MemberKilledBeforeTheLastArrivalReleasesAtThatArrival)
{
    // The dead member stays dead in later episodes and in contexts
    // created after its kill.
    Rig rig;
    auto ctx = rig.snet.create_context({0, 1, 2});
    rig.kill_at(2, 150);
    rig.arrive_at(ctx, 0, 100);
    rig.arrive_at(ctx, 1, 300);
    rig.sim.run();
    EXPECT_EQ(rig.released,
              (std::vector<Tick>(2, 300 + us_to_ticks(2.0))));

    rig.released.clear();
    rig.arrive_at(ctx, 1, 9000);
    rig.arrive_at(ctx, 0, 9100);
    auto later = rig.snet.create_context({1, 2});
    rig.arrive_at(later, 1, 9200);
    rig.sim.run();
    EXPECT_EQ(rig.released,
              (std::vector<Tick>{9100 + us_to_ticks(2.0),
                                 9100 + us_to_ticks(2.0),
                                 9200 + us_to_ticks(2.0)}));
    EXPECT_EQ(rig.snet.episodes(ctx), 2u);
    EXPECT_EQ(rig.snet.episodes(later), 1u);
}

TEST(Snet, MemberKilledAtTheLastArrivalTickReleasesThen)
{
    Rig rig;
    auto ctx = rig.snet.create_context({0, 1, 2});
    rig.arrive_at(ctx, 0, 100);
    rig.arrive_at(ctx, 1, 300);
    rig.kill_at(2, 300);
    rig.sim.run();

    EXPECT_EQ(rig.released,
              (std::vector<Tick>(2, 300 + us_to_ticks(2.0))));
    EXPECT_EQ(rig.snet.episodes(ctx), 1u);
}

TEST(Snet, MemberArrivingJustAfterItsKillJoinsTheEpisode)
{
    // A cell whose barrier began before its kill tick arrives after
    // it, onto its own death: that is an arrival, not a second one.
    Rig rig;
    auto ctx = rig.snet.create_context({0, 1, 2});
    rig.arrive_at(ctx, 0, 100);
    rig.kill_at(2, 200);
    rig.arrive_at(ctx, 2, 250);
    rig.arrive_at(ctx, 1, 300);
    rig.sim.run();

    EXPECT_EQ(rig.released,
              (std::vector<Tick>(3, 300 + us_to_ticks(2.0))));
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
