#include "obs/sampler.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "obs/json.hh"
#include "sim/eventq.hh"

namespace ap::obs
{

TimelineSampler::TimelineSampler(const StatsRegistry &reg,
                                 Tick period,
                                 std::vector<SeriesSpec> series,
                                 std::size_t capacity)
    : reg(reg), periodTicks(period), specs(std::move(series)),
      cap(capacity)
{
    if (periodTicks < 1)
        fatal("timeline sampler needs a period >= 1 tick");
    if (cap < 1)
        fatal("timeline sampler needs capacity >= 1");
    if (specs.empty())
        specs = default_series();
}

std::vector<SeriesSpec>
TimelineSampler::default_series()
{
    return {
        {"events", "sim.executed_events", false},
        {"tnet_messages", "tnet.messages", false},
        {"tnet_payload_bytes", "tnet.payload_bytes", false},
        {"bnet_broadcasts", "bnet.broadcasts", false},
        {"msc_messages", "*.msc.messages_sent", false},
        {"flag_increments", "*.mc.flag_increments", false},
        {"ring_deposits", "*.ring.deposits", false},
        {"handoffs", "sim.shard.*.handoffs_out", false},
        {"windows", "sim.window.count", false},
        {"barrier_wait_ns", "sim.window.barrier_wait_ns", false},
        {"spans_recorded", "spans.recorded", false},
        {"pending_events", "sim.pending_events", true},
    };
}

Tick
TimelineSampler::next_boundary(Tick now) const
{
    Tick periods = now / periodTicks;
    if (periods >= max_tick / periodTicks)
        return max_tick;
    Tick b = (periods + 1) * periodTicks;
    return b <= now ? max_tick : b;
}

std::vector<std::uint64_t>
TimelineSampler::sums() const
{
    std::vector<std::uint64_t> out;
    out.reserve(specs.size());
    for (const SeriesSpec &s : specs)
        out.push_back(reg.sum(s.pattern));
    return out;
}

void
TimelineSampler::start()
{
    prev = sums();
    started = true;
}

void
TimelineSampler::sample(Tick now)
{
    if (!started)
        start();
    std::vector<std::uint64_t> cur = sums();

    TimelineSample row;
    row.tick = now;
    row.values.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        row.values.push_back(
            static_cast<std::int64_t>(cur[i]) -
            (specs[i].level ? 0 : static_cast<std::int64_t>(prev[i])));
    prev = std::move(cur);

    if (ring.size() < cap) {
        ring.push_back(std::move(row));
    } else {
        ring[head] = std::move(row);
        head = (head + 1) % cap;
    }
    ++total;
}

void
TimelineSampler::run(sim::Simulator &sim)
{
    if (!started)
        start();
    // Boundaries advance from the last *sampled* boundary, not from
    // sim.now(): run_until() leaves the clock at the last executed
    // event, so an empty period would otherwise re-derive the same
    // boundary forever.
    Tick at = 0;
    while (!sim.empty()) {
        at = next_boundary(std::max(sim.now(), at));
        if (at == max_tick) {
            // Remaining events sit past the last representable
            // boundary; finish the run and take a final sample.
            sim.run();
            sample(sim.now());
            break;
        }
        sim.run_until(at);
        sample(at);
    }
}

std::vector<TimelineSample>
TimelineSampler::samples() const
{
    std::vector<TimelineSample> out;
    out.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(head + i) % ring.size()]);
    return out;
}

std::string
TimelineSampler::json(bool pretty) const
{
    const char *nl = pretty ? "\n" : "";
    const char *sp = pretty ? "  " : "";
    std::string out = strprintf(
        "{%s%s\"kind\": \"timeline\",%s%s\"period_us\": %s,%s"
        "%s\"taken\": %llu,%s%s\"dropped\": %llu,%s",
        nl, sp, nl, sp, json_number(ticks_to_us(periodTicks)).c_str(),
        nl, sp, static_cast<unsigned long long>(taken()), nl, sp,
        static_cast<unsigned long long>(dropped()), nl);
    out += strprintf("%s\"series\": [", sp);
    for (std::size_t i = 0; i < specs.size(); ++i)
        out += strprintf("%s\"%s\"", i ? ", " : "",
                         json_escape(specs[i].name).c_str());
    out += strprintf("],%s%s\"level\": [", nl, sp);
    for (std::size_t i = 0; i < specs.size(); ++i)
        out += strprintf("%s%s", i ? ", " : "",
                         specs[i].level ? "true" : "false");
    out += strprintf("],%s%s\"samples\": [", nl, sp);
    std::vector<TimelineSample> rows = samples();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out += strprintf("%s%s%s%s{\"t_us\": %s, \"v\": [",
                         i ? "," : "", nl, sp, sp,
                         json_number(ticks_to_us(rows[i].tick))
                             .c_str());
        for (std::size_t j = 0; j < rows[i].values.size(); ++j)
            out += strprintf(
                "%s%lld", j ? ", " : "",
                static_cast<long long>(rows[i].values[j]));
        out += "]}";
    }
    out += strprintf("%s%s]%s}%s", nl, sp, nl, nl);
    return out;
}

bool
TimelineSampler::write(const std::string &path) const
{
    return write_file(path, json(true));
}

std::string
TimelineSampler::csv() const
{
    std::string out = "t_us";
    for (const SeriesSpec &s : specs)
        out += "," + s.name;
    out += "\n";
    for (const TimelineSample &row : samples()) {
        out += json_number(ticks_to_us(row.tick));
        for (std::int64_t v : row.values)
            out += strprintf(",%lld", static_cast<long long>(v));
        out += "\n";
    }
    return out;
}

bool
TimelineSampler::write_csv(const std::string &path) const
{
    return write_file(path, csv());
}

} // namespace ap::obs
