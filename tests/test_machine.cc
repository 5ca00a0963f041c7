/**
 * @file
 * Machine-level integration tests: network statistics, determinism
 * across runs, back-to-back SPMD programs on one machine, and
 * end-to-end functional-vs-MLSim consistency for a mixed workload.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "mlsim/params.hh"
#include "mlsim/replay.hh"
#include "mlsim/trace_file.hh"
#include "obs/json.hh"

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

/** A mixed ring workload used by several tests. */
void
ring_program(Context &ctx, int iters)
{
    Addr buf = ctx.alloc(2048);
    Addr rf = ctx.alloc_flag();
    CellId right = (ctx.id() + 1) % ctx.nprocs();
    for (int it = 0; it < iters; ++it) {
        ctx.compute_us(20.0 + ctx.id() % 3);
        ctx.put(right, buf, buf, 1024, no_flag, rf, true);
        ctx.wait_all_acks();
        ctx.wait_flag(rf, static_cast<std::uint32_t>(it + 1));
        ctx.barrier();
    }
    ctx.allreduce(1.0, ReduceOp::sum);
}

} // namespace

TEST(Machine, TnetStatsMatchWorkload)
{
    hw::Machine m(small(4));
    run_spmd(m, [](Context &ctx) { ring_program(ctx, 3); });
    // 3 iterations x 4 cells x (1 put + 1 probe + 1 reply) plus
    // collective traffic: at least the puts are visible.
    EXPECT_GE(m.tnet().stats().messages, 36u);
    EXPECT_GE(m.tnet().stats().payloadBytes, 3u * 4u * 1024u);
    EXPECT_GT(m.tnet().stats().distance.scalar().mean(), 0.0);
}

TEST(Machine, RunsAreDeterministic)
{
    Tick finish[2];
    std::uint64_t events[2];
    for (int run = 0; run < 2; ++run) {
        hw::Machine m(small(8));
        auto r = run_spmd(m,
                          [](Context &ctx) { ring_program(ctx, 5); });
        ASSERT_FALSE(r.deadlock);
        finish[run] = r.finishTick;
        events[run] = m.sim().executed();
    }
    EXPECT_EQ(finish[0], finish[1]);
    EXPECT_EQ(events[0], events[1]);
}

TEST(Machine, BackToBackProgramsShareOneMachine)
{
    hw::Machine m(small(4));
    auto r1 = run_spmd(m, [](Context &ctx) { ring_program(ctx, 2); });
    ASSERT_FALSE(r1.deadlock);
    Tick t1 = r1.finishTick;
    auto r2 = run_spmd(m, [](Context &ctx) { ring_program(ctx, 2); });
    ASSERT_FALSE(r2.deadlock);
    // Time keeps advancing; the second run starts where the first
    // ended.
    EXPECT_GT(r2.finishTick, t1);
}

TEST(Machine, TlbSeesTrafficDuringDma)
{
    hw::Machine m(small(2));
    run_spmd(m, [](Context &ctx) {
        Addr buf = ctx.alloc(64 << 10); // crosses 16 pages
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64 << 10, no_flag, rf);
        if (ctx.id() == 1)
            ctx.wait_flag(rf, 1);
        ctx.barrier();
    });
    const auto &tlb0 = m.cell(0).mc().mmu().stats();
    const auto &tlb1 = m.cell(1).mc().mmu().stats();
    // Gather on 0 and scatter on 1 both walked multiple pages.
    EXPECT_GE(tlb0.hits + tlb0.misses, 16u);
    EXPECT_GE(tlb1.hits + tlb1.misses, 16u);
    EXPECT_EQ(tlb0.faults, 0u);
}

TEST(Machine, FunctionalTraceFileReplayPipeline)
{
    // The full workflow of Section 5: run on the "real machine",
    // dump the trace to its file format, read it back, replay under
    // both models, and check the hardware model wins.
    hw::Machine m(small(8));
    Trace trace;
    auto r = run_spmd(
        m, [](Context &ctx) { ring_program(ctx, 10); }, &trace);
    ASSERT_FALSE(r.deadlock);

    std::string text = mlsim::trace_to_text(trace);
    Trace loaded = mlsim::trace_from_text(text);
    ASSERT_EQ(loaded.total_events(), trace.total_events());

    double base =
        mlsim::Replay(loaded, mlsim::Params::ap1000()).run().totalUs;
    double plus =
        mlsim::Replay(loaded, mlsim::Params::ap1000_plus())
            .run()
            .totalUs;
    EXPECT_LT(plus, base);
}

TEST(Machine, StatsJsonRoundTripsWithPerCellCounters)
{
    hw::Machine m(small(4));
    run_spmd(m, [](Context &ctx) { ring_program(ctx, 3); });

    std::string err;
    EXPECT_TRUE(obs::json_valid(m.stats_json(), &err)) << err;
    EXPECT_TRUE(obs::json_valid(m.stats_json(false), &err)) << err;

    const obs::StatsRegistry &r = m.stats_registry();
    for (int c = 0; c < 4; ++c) {
        std::string p = strprintf("cell%d.", c);
        EXPECT_GT(r.value(p + "msc.puts_sent"), 0u) << c;
        EXPECT_NE(r.find(p + "msc.user_queue.pushes"), nullptr);
        EXPECT_NE(r.find(p + "msc.user_queue.max_hw_depth"),
                  nullptr);
        EXPECT_NE(r.find(p + "mc.flag_increments"), nullptr);
        EXPECT_NE(r.find(p + "commreg.stores"), nullptr);
        EXPECT_NE(r.find(p + "mmu.tlb_hits"), nullptr);
        EXPECT_NE(r.find(p + "ring.deposits"), nullptr);
    }
    // 3 iterations x 4 cells, one data PUT each.
    EXPECT_EQ(r.sum("*.msc.puts_sent"), 12u);

    // The on-disk dump is the same validated document.
    std::string path = testing::TempDir() + "ap_stats_rt.json";
    ASSERT_TRUE(m.dump_stats(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(obs::json_valid(ss.str(), &err)) << err;
    std::remove(path.c_str());
}

TEST(Machine, FaultCountersCoverEveryCell)
{
    hw::Machine m(small(4));
    set_quiet(true);
    run_spmd(m, [](Context &ctx) {
        if (ctx.id() == 2)
            ctx.cell().mc().mmu().unmap(0x40000);
        ctx.barrier();
        Addr buf = ctx.alloc(32);
        if (ctx.id() != 2)
            ctx.put(2, 0x40000, buf, 32, no_flag, no_flag);
        ctx.barrier();
    });
    set_quiet(false);
    const obs::StatsRegistry &reg = m.stats_registry();
    EXPECT_EQ(reg.sum("*.msc.local_faults") +
                  reg.sum("*.msc.remote_faults"),
              3u);
    EXPECT_EQ(m.cell(2).msc().stats().remoteFaults, 3u);
}

// ------------------------------------- parallel kernel == threads=1

namespace
{

/** What a probe run leaves behind, minus the kernel's own "sim."
 *  telemetry. */
struct ProbeOutcome
{
    std::string digest;
    std::string stats;
    std::vector<std::vector<std::uint8_t>> memory;
    Tick finish = 0;
    bool deadlock = false;
    std::size_t errors = 0;
};

ProbeOutcome
run_probe(hw::MachineConfig cfg, int threads, const SpmdBody &body)
{
    cfg.threads = threads;
    hw::Machine m(cfg);
    sim::TickHistory hist;
    m.sim().set_history(&hist);
    SpmdResult r = run_spmd(m, body);
    ProbeOutcome out;
    out.digest = hist.digest();
    out.stats = m.stats_registry().dump_json(false, "sim.");
    out.finish = r.finishTick;
    out.deadlock = r.deadlock;
    out.errors = r.errors.size();
    for (int c = 0; c < m.size(); ++c) {
        std::vector<std::uint8_t> img(64 * 1024);
        m.cell(c).memory().read(0, img);
        out.memory.push_back(std::move(img));
    }
    return out;
}

/** Run @p body at 1 thread and at 2, 4 and 8; every parallel run
 *  must leave the same digest, memory and stats. */
void
expect_thread_count_independent(const hw::MachineConfig &cfg,
                                const SpmdBody &body)
{
    ProbeOutcome seq = run_probe(cfg, 1, body);
    EXPECT_FALSE(seq.deadlock);
    for (int threads : {2, 4, 8}) {
        ProbeOutcome par = run_probe(cfg, threads, body);
        EXPECT_EQ(seq.finish, par.finish) << threads << " threads";
        EXPECT_EQ(seq.deadlock, par.deadlock) << threads << " threads";
        EXPECT_EQ(seq.errors, par.errors) << threads << " threads";
        EXPECT_EQ(seq.digest, par.digest) << threads << " threads";
        EXPECT_TRUE(seq.memory == par.memory) << threads << " threads";
        EXPECT_EQ(seq.stats, par.stats) << threads << " threads";
    }
}

} // namespace

TEST(ThreadsProbe, BarrierArrivalsSkewedWithinOneLookahead)
{
    // Arrivals spread by less than one lookahead: the release tick
    // must come from the latest arrival tick, not from whichever
    // shard's arrival the host processed last.
    expect_thread_count_independent(small(16), [](Context &ctx) {
        for (int r = 0; r < 50; ++r) {
            ctx.compute_us(0.02 * ((7 * ctx.id() + r) % 16));
            ctx.barrier();
        }
    });
}

TEST(ThreadsProbe, TwoBnetRootsOnDifferentShards)
{
    // Roots 0 and 15 broadcast 256 B 50 times each, every 7 us, root
    // 0 0-0.08 us after root 15: their bus claims race within one
    // lookahead, and the loser waits out the winner's occupancy.
    expect_thread_count_independent(small(16), [](Context &ctx) {
        Addr buf = ctx.alloc(256);
        Addr flags[2] = {ctx.alloc_flag(), ctx.alloc_flag()};
        CellId roots[2] = {0, 15};
        for (int r = 0; r < 50; ++r) {
            for (int k = 0; k < 2; ++k) {
                if (ctx.id() != roots[k])
                    continue;
                double at =
                    7.0 * (r + 1) + (k == 0 ? 0.02 * (r % 5) : 0.0);
                ctx.compute_us(at - ticks_to_us(ctx.now()));
                ctx.poke_u32(buf, static_cast<std::uint32_t>(
                                      1000 * k + r));
                ctx.broadcast(roots[k], buf, 256, flags[k]);
            }
        }
        for (int k = 0; k < 2; ++k)
            if (ctx.id() != roots[k])
                ctx.wait_flag(flags[k], 50);
        ctx.barrier();
    });
}

TEST(ThreadsProbe, KillWithALateSenderOnAnotherShard)
{
    // Cells 8-15, on other shards than cell 5 at 2, 4 and 8 threads,
    // send to cell 5 from just before to less than one lookahead after
    // cell 5's kill tick, under the reliable layer: whether a send
    // sees the dead peer must follow from the kill tick alone.
    hw::MachineConfig cfg = small(16);
    cfg.reliableNet = true;
    cfg.retry.watchdogUs = 2000.0;
    cfg.faults.kills.push_back({5, 30.0});
    expect_thread_count_independent(cfg, [](Context &ctx) {
        Addr buf = ctx.alloc(512);
        Addr flag = ctx.alloc_flag();
        if (ctx.id() >= 8) {
            ctx.compute_us(29.95 + 0.04 * (ctx.id() - 8));
            ctx.put(5, buf, buf, 256, no_flag, flag);
        }
        if (ctx.owner().cell_failed(ctx.id()))
            return;
        ctx.compute_us(40.0);
        ctx.barrier();
    });
}
