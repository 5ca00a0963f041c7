#include "machine_probe.hh"

#include <atomic>

#include "harness.hh"
#include "sim/eventq.hh"

using namespace ap;

namespace pb
{

core::SpmdResult
timed_spmd(hw::Machine &m, const core::SpmdBody &body, SpmdTimes &t)
{
    // Bodies run on fibers, and on several host threads under the
    // sharded kernel, so the boundary stamps are min/max atomics.
    std::atomic<double> first{0.0};
    std::atomic<double> last{0.0};
    auto wrapped = [&](core::Context &ctx) {
        double in = host_now();
        double seen = first.load();
        while ((seen == 0.0 || in < seen) &&
               !first.compare_exchange_weak(seen, in)) {
        }
        body(ctx);
        double out = host_now();
        seen = last.load();
        while (out > seen && !last.compare_exchange_weak(seen, out)) {
        }
    };
    t.call = host_now();
    core::SpmdResult r = core::run_spmd(m, wrapped);
    t.ret = host_now();
    t.firstBody = first.load() > 0.0 ? first.load() : t.call;
    t.lastBody = last.load() > 0.0 ? last.load() : t.firstBody;
    return r;
}

namespace
{

double
hist_sum(const obs::StatsRegistry &r, const char *path)
{
    const obs::StatEntry *e = r.find(path);
    return e != nullptr && e->hist != nullptr ? e->hist->scalar().sum()
                                              : 0.0;
}

double
ratio_pct(double num, double den)
{
    return den > 0.0 ? 100.0 * num / den : 0.0;
}

} // namespace

void
add_machine_counters(const hw::Machine &m, std::map<std::string, double> &out)
{
    const obs::StatsRegistry &r = m.stats_registry();
    auto v = [&r](const char *p) {
        return static_cast<double>(r.value(p));
    };
    auto s = [&r](const char *p) { return static_cast<double>(r.sum(p)); };
    // const_cast: sim() has no const overload; executed() only reads.
    out["sim.events"] += static_cast<double>(
        const_cast<hw::Machine &>(m).sim().executed());
    out["sim.pool_miss"] += v("sim.alloc.pool_miss");
    out["sim.fn_heap"] += v("sim.alloc.fn_heap");

    out["hw.cells_built"] += m.size();
    out["hw.msc.commands"] += s("*.msc.messages_sent");
    out["hw.msc.payload_bytes"] += s("*.msc.payload_bytes_sent");
    out["hw.queue.spills"] += s("*.msc.*.spills");
    out["hw.queue.refill_interrupts"] += s("*.msc.*.refill_interrupts");
    out["hw.mc.flag_increments"] += s("*.mc.flag_increments");
    out["hw.ring.deposits"] += s("*.ring.deposits");
    out["_hw.ring_in_place"] += s("*.ring.in_place_reads");
    out["_hw.ring_receives"] += s("*.ring.receives");
    out["_hw.tlb_misses"] += s("*.mmu.tlb_misses");
    out["_hw.tlb_lookups"] += s("*.mmu.tlb_misses") + s("*.mmu.tlb_hits");
    out["_hw.payload_hits"] += v("sim.alloc.payload_hits");
    out["_hw.payload_lookups"] +=
        v("sim.alloc.payload_hits") + v("sim.alloc.payload_miss");

    out["net.tnet.messages"] += v("tnet.messages");
    out["net.tnet.wire_bytes"] += v("tnet.wire_bytes");
    out["_net.hops"] += hist_sum(r, "tnet.distance");
    out["_net.latency_us"] += hist_sum(r, "tnet.latency_us");
    out["net.bnet.broadcasts"] += v("bnet.broadcasts");
    out["net.snet.episodes"] += v("snet.episodes");

    out["obs.registry_paths"] += static_cast<double>(r.size());
    out["obs.flight_events"] += v("spans.recorded");
    out["obs.span_events"] += v("spans.full_log_events");
    out["obs.spans_dropped"] += v("spans.full_dropped");
}

void
finish_machine_ratios(std::map<std::string, double> &out)
{
    out["hw.ring.in_place_pct"] =
        ratio_pct(out["_hw.ring_in_place"], out["_hw.ring_receives"]);
    out["hw.mmu.tlb_miss_pct"] =
        ratio_pct(out["_hw.tlb_misses"], out["_hw.tlb_lookups"]);
    out["hw.payload_pool_hit_pct"] =
        ratio_pct(out["_hw.payload_hits"], out["_hw.payload_lookups"]);
    double msgs = out["net.tnet.messages"];
    out["net.tnet.mean_hops"] = msgs > 0.0 ? out["_net.hops"] / msgs : 0.0;
    out["net.tnet.latency_us_mean"] =
        msgs > 0.0 ? out["_net.latency_us"] / msgs : 0.0;
}

} // namespace pb
