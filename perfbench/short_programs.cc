/**
 * @file
 * short_programs: short SPMD programs, each on a freshly built
 * machine. One pass runs every point of the setup grid (cells x DRAM
 * per cell) once, in a fixed order (the order sets which DRAM images
 * the recycler holds, and so the peak RSS). The seed draws each
 * point's ring distance, payload size and payload bytes. Each body
 * does one flagged ring PUT, one GET and two barriers, and checks the
 * landed bytes.
 *
 * Machine build and teardown dominate here, so page-table,
 * stats-registration and DRAM-image work shows; kernel work barely
 * does.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "harness.hh"
#include "hw/memory.hh"
#include "machine_probe.hh"

using namespace ap;
using namespace ap::core;

namespace pb
{
namespace
{

constexpr int grid_cells[] = {64, 256, 1024};
constexpr int grid_mb[] = {1, 4, 16};

struct Point
{
    int cells = 0;
    int mb = 0;
    int shift = 1;            ///< ring distance of the PUT and GET
    std::uint32_t bytes = 8;  ///< payload of each transfer
    std::uint64_t salt = 0;   ///< payload pattern key
};

/** The payload cell @p c writes for point @p p. */
std::vector<std::uint8_t>
pattern(const Point &p, CellId c)
{
    std::vector<std::uint8_t> out(p.bytes);
    for (std::uint32_t i = 0; i < p.bytes; i += 8) {
        std::uint64_t w = draw(p.salt, static_cast<std::uint64_t>(c), i);
        for (int b = 0; b < 8; ++b)
            out[i + static_cast<std::uint32_t>(b)] =
                static_cast<std::uint8_t>(w >> (8 * b));
    }
    return out;
}

/** Host microseconds per cell at one grid point, over all passes. */
struct GridCost
{
    std::vector<double> constructUs;
    std::vector<double> destroyUs;
};

class ShortPrograms : public Workload
{
  public:
    explicit ShortPrograms(std::uint64_t seed)
    {
        Rng rng(seed);
        for (int c : grid_cells)
            for (int mb : grid_mb) {
                Point p;
                p.cells = c;
                p.mb = mb;
                p.shift = 1 + rng.below(c - 1);
                p.bytes = 8u * static_cast<std::uint32_t>(
                                   1 + rng.below(128));
                p.salt = rng.next();
                points.push_back(p);
            }
        grid.resize(points.size());
    }

    const char *op_name() const override { return "program"; }

    PassResult
    pass(SpanLog &log, std::uint64_t passNo, bool traced) override
    {
        PassResult res;
        std::uint64_t imageHits0 = hw::CellMemory::image_cache_hits();
        std::uint64_t imageMiss0 = hw::CellMemory::image_cache_misses();
        Tick makespan = 0;
        std::uint64_t events = 0, messages = 0, wireBytes = 0;
        std::uint64_t checksum = 0;

        for (std::size_t k = 0; k < points.size(); ++k) {
            const Point &p = points[k];
            int prog = log.open("bench", "program", passNo);
            double t0 = host_now();

            hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(p.cells);
            cfg.memBytesPerCell = static_cast<std::size_t>(p.mb) << 20;
            std::unique_ptr<hw::Machine> m;
            {
                Phase ph(log, &res.setup, "hw", "construct", passNo);
                m = std::make_unique<hw::Machine>(cfg);
            }
            double built = res.setup.back();

            std::atomic<std::uint64_t> bad{0};
            std::atomic<std::uint64_t> sum{0};
            SpmdTimes st;
            SpmdResult r = timed_spmd(
                *m,
                [&](Context &ctx) {
                    int n = ctx.nprocs();
                    CellId me = ctx.id();
                    CellId right = (me + p.shift) % n;
                    CellId left = (me - p.shift + n) % n;
                    Addr src = ctx.alloc(p.bytes);
                    Addr land = ctx.alloc(p.bytes);
                    Addr got = ctx.alloc(p.bytes);
                    Addr putFlag = ctx.alloc_flag();
                    Addr getFlag = ctx.alloc_flag();
                    std::vector<std::uint8_t> mine = pattern(p, me);
                    ctx.poke(src, mine);
                    ctx.barrier();
                    ctx.put(right, land, src, p.bytes, no_flag, putFlag);
                    ctx.wait_flag(putFlag, 1);
                    ctx.get(left, src, got, p.bytes, no_flag, getFlag);
                    ctx.wait_flag(getFlag, 1);
                    std::vector<std::uint8_t> want = pattern(p, left);
                    std::vector<std::uint8_t> seen(p.bytes);
                    ctx.peek(land, seen);
                    bool ok = seen == want;
                    ctx.peek(got, seen);
                    ok = ok && seen == want;
                    if (!ok)
                        bad.fetch_add(1);
                    std::uint64_t w = 0;
                    for (int b = 0; b < 8; ++b)
                        w |= static_cast<std::uint64_t>(seen[
                                 static_cast<std::size_t>(b)])
                             << (8 * b);
                    sum.fetch_add(w);
                    ctx.barrier();
                },
                st);
            log.add("core", "spawn", st.call, st.firstBody, passNo);
            log.add("sim", "run", st.firstBody, st.lastBody, passNo);
            log.add("core", "reap", st.lastBody, st.ret, passNo);
            res.setup.push_back(st.spawn());
            res.run.push_back(st.run());
            res.teardown.push_back(st.reap());

            res.check(!r.failed() && bad.load() == 0,
                      strprintf("c%d_m%d: deadlock=%d errors=%zu "
                                "bad_cells=%llu",
                                p.cells, p.mb, r.deadlock ? 1 : 0,
                                r.errors.size(),
                                static_cast<unsigned long long>(
                                    bad.load())));
            makespan += r.finishTick;
            events += m->sim().executed();
            messages += m->stats_registry().value("tnet.messages");
            wireBytes += m->stats_registry().value("tnet.wire_bytes");
            checksum += sum.load();
            if (traced) {
                int c = log.open("trace", "counters", passNo);
                add_machine_counters(*m, res.layer);
                log.close(c, host_now());
            }

            {
                Phase ph(log, &res.teardown, "hw", "destroy", passNo);
                m.reset();
            }
            double destroyed = res.teardown.back();
            double t1 = host_now();
            log.close(prog, t1);

            res.opMs.push_back((t1 - t0) * 1e3);
            grid[k].constructUs.push_back(built * 1e6 / p.cells);
            grid[k].destroyUs.push_back(destroyed * 1e6 / p.cells);
        }

        res.ops = events;
        res.fingerprint = {{"makespan_ticks", makespan},
                           {"events", events},
                           {"tnet_messages", messages},
                           {"tnet_wire_bytes", wireBytes},
                           {"data_checksum", checksum}};
        if (traced) {
            std::uint64_t hits =
                hw::CellMemory::image_cache_hits() - imageHits0;
            std::uint64_t miss =
                hw::CellMemory::image_cache_misses() - imageMiss0;
            res.layer["hw.image_hit_pct"] =
                hits + miss > 0 ? 100.0 * static_cast<double>(hits) /
                                      static_cast<double>(hits + miss)
                                : 0.0;
        }
        return res;
    }

    std::string
    summary() const override
    {
        std::string out = "setup grid (host us per cell, median over "
                          "passes): cells x MB/cell -> construct / "
                          "destroy\n";
        for (std::size_t k = 0; k < points.size(); ++k)
            out += strprintf("  grid c%d_m%d: construct %.2f us/cell, "
                             "destroy %.2f us/cell\n",
                             points[k].cells, points[k].mb,
                             median(grid[k].constructUs),
                             median(grid[k].destroyUs));
        return out;
    }

  private:
    std::vector<Point> points;
    std::vector<GridCost> grid;
};

} // namespace

std::unique_ptr<Workload>
make_short_programs(std::uint64_t seed)
{
    return std::make_unique<ShortPrograms>(seed);
}

} // namespace pb
