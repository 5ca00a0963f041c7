#include "sim/fault.hh"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "base/logging.hh"

namespace ap::sim
{

std::string
FaultPlan::describe() const
{
    if (!any() && kills.empty())
        return "none";
    std::string out;
    auto add = [&](const char *name, double v) {
        if (v > 0)
            out += strprintf("%s%s=%.3g", out.empty() ? "" : " ",
                             name, v);
    };
    add("drop", dropProb);
    add("dup", dupProb);
    add("reorder", reorderProb);
    add("overflow", overflowProb);
    add("pagefault", pageFaultProb);
    add("jitter", jitterMaxUs);
    add("corrupt", corruptProb);
    if (!kills.empty())
        out += strprintf("%skills=%zu", out.empty() ? "" : " ",
                         kills.size());
    out += strprintf(" seed=%llu",
                     static_cast<unsigned long long>(seed));
    return out;
}

FaultPlan::CellKill
FaultPlan::CellKill::parse(const char *spec, int cells)
{
    char *end = nullptr;
    long cell = std::strtol(spec, &end, 10);
    if (end == spec || *end != '@')
        fatal("--kill=%s: want CELL@US", spec);
    if (cell < 0 || cell >= cells)
        fatal("--kill=%s: cell %ld is outside the machine's %d cells",
              spec, cell, cells);
    const char *us = end + 1;
    double atUs = std::strtod(us, &end);
    if (end == us || *end != '\0')
        fatal("--kill=%s: want CELL@US", spec);
    // Negated so that NaN fails too; the bound keeps us_to_ticks()
    // inside the tick range.
    if (!(atUs >= 0.0 && atUs < ticks_to_us(max_tick / 2)))
        fatal("--kill=%s: US must be a finite, non-negative time in "
              "microseconds", spec);
    return {static_cast<CellId>(cell), atUs};
}

FaultPlan
FaultPlan::drops(std::uint64_t seed, double p)
{
    FaultPlan f;
    f.seed = seed;
    f.dropProb = p;
    return f;
}

FaultPlan
FaultPlan::duplicates(std::uint64_t seed, double p)
{
    FaultPlan f;
    f.seed = seed;
    f.dupProb = p;
    return f;
}

FaultPlan
FaultPlan::reorders(std::uint64_t seed, double p)
{
    FaultPlan f;
    f.seed = seed;
    f.reorderProb = p;
    return f;
}

FaultPlan
FaultPlan::overflows(std::uint64_t seed, double p)
{
    FaultPlan f;
    f.seed = seed;
    f.overflowProb = p;
    return f;
}

FaultPlan
FaultPlan::pageFaults(std::uint64_t seed, double p)
{
    FaultPlan f;
    f.seed = seed;
    f.pageFaultProb = p;
    return f;
}

FaultPlan
FaultPlan::jitter(std::uint64_t seed, double maxUs)
{
    FaultPlan f;
    f.seed = seed;
    f.jitterMaxUs = maxUs;
    return f;
}

FaultPlan
FaultPlan::corrupts(std::uint64_t seed, double p)
{
    FaultPlan f;
    f.seed = seed;
    f.corruptProb = p;
    return f;
}

FaultPlan
FaultPlan::lossy(std::uint64_t seed)
{
    FaultPlan f;
    f.seed = seed;
    f.dropProb = 0.02;
    f.dupProb = 0.01;
    f.reorderProb = 0.02;
    return f;
}

FaultPlan
FaultPlan::kill_cell(std::uint64_t seed, CellId cell, double atUs)
{
    FaultPlan f;
    f.seed = seed;
    f.kills.push_back({cell, atUs});
    return f;
}

FaultPlan
FaultPlan::chaos(std::uint64_t seed)
{
    FaultPlan f;
    f.seed = seed;
    f.dropProb = 0.01;
    f.dupProb = 0.01;
    f.reorderProb = 0.02;
    f.overflowProb = 0.2;
    f.pageFaultProb = 0.01;
    f.jitterMaxUs = 10.0;
    return f;
}

namespace
{

/** splitmix64's finalizer: a bijective 64-bit mix. */
std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

FaultInjector::FaultInjector(FaultPlan plan, int cells)
    : fp(std::move(plan)), armed(fp.any()),
      rows(static_cast<std::size_t>(cells) + 1)
{
}

std::uint64_t
FaultInjector::hash(Point point, int cell, std::uint64_t n) const
{
    constexpr std::uint64_t golden = 0x9e3779b97f4a7c15ull;
    std::uint64_t h = mix(fp.seed + golden);
    h = mix(h ^ (static_cast<std::uint64_t>(point) + 1) * golden);
    h = mix(h ^ static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(cell)));
    return mix(h + n * golden);
}

double
FaultInjector::draw(Point point, int cell, std::uint64_t n) const
{
    return static_cast<double>(hash(point, cell, n) >> 11) * 0x1.0p-53;
}

bool
FaultInjector::roll(Point point, int cell, std::uint64_t n,
                    double prob) const
{
    return prob > 0 && draw(point, cell, n) < prob;
}

std::size_t
FaultInjector::index(int cell) const
{
    auto idx = static_cast<std::size_t>(cell < 0 ? 0 : cell + 1);
    if (idx >= rows.size())
        panic("fault injector sized for %zu cells, asked for cell %d",
              rows.size() - 1, cell);
    return idx;
}

Tick
FaultInjector::jitter_draw(Point point, Row &r, int cell,
                           std::uint64_t n)
{
    Tick extra = us_to_ticks(fp.jitterMaxUs * draw(point, cell, n));
    if (extra > 0) {
        ++r.stats.jitteredEvents;
        r.stats.jitterTicks += extra;
    }
    return extra;
}

FaultInjector::SendFaults
FaultInjector::on_send(CellId src)
{
    Row &r = row(src);
    std::uint64_t n = r.sends++;
    SendFaults f;
    if (fp.jitterMaxUs > 0)
        f.jitter = jitter_draw(Point::net_jitter, r, src, n);
    f.drop = roll(Point::drop, src, n, fp.dropProb);
    if (f.drop) {
        ++r.stats.drops;
        return f;
    }
    f.duplicate = roll(Point::duplicate, src, n, fp.dupProb);
    f.reorder = roll(Point::reorder, src, n, fp.reorderProb);
    f.corrupt =
        !f.reorder && roll(Point::corrupt, src, n, fp.corruptProb);
    if (f.corrupt)
        f.pick = hash(Point::corrupt_byte, src, n);
    r.stats.duplicates += f.duplicate;
    r.stats.reorders += f.reorder;
    r.stats.corruptions += f.corrupt;
    return f;
}

bool
FaultInjector::force_overflow(CellId cell)
{
    if (fp.overflowProb <= 0)
        return false;
    Row &r = row(cell);
    if (!roll(Point::overflow, cell, r.pushes++, fp.overflowProb))
        return false;
    ++r.stats.forcedSpills;
    return true;
}

bool
FaultInjector::inject_page_fault(CellId cell)
{
    if (fp.pageFaultProb <= 0)
        return false;
    Row &r = row(cell);
    if (!roll(Point::page_fault, cell, r.dmas++, fp.pageFaultProb))
        return false;
    ++r.stats.injectedPageFaults;
    return true;
}

Tick
FaultInjector::jitter(int timeline)
{
    if (fp.jitterMaxUs <= 0)
        return 0;
    Row &r = row(timeline);
    return jitter_draw(Point::kernel_jitter, r, timeline,
                       r.schedules++);
}

bool
FaultInjector::try_hold(CellId src, HoldKind kind, Tick now,
                        Tick arrival)
{
    Row &r = row(src);
    std::erase_if(r.held, [now](Tick t) { return t <= now; });
    HoldStats &h = r.hold;
    if (fp.maxHeldPerCell > 0 &&
        r.held.size() >= static_cast<std::size_t>(fp.maxHeldPerCell)) {
        if (kind == HoldKind::duplicate)
            ++h.dupEvictions;
        else
            ++h.reorderEvictions;
        h.held = r.held.size();
        return false;
    }
    r.held.push_back(arrival);
    h.held = r.held.size();
    h.heldHighWater = std::max(h.heldHighWater, h.held);
    return true;
}

const FaultInjector::HoldStats &
FaultInjector::hold_stats(CellId cell) const
{
    return rows[index(cell)].hold;
}

FaultStats
FaultInjector::stats() const
{
    FaultStats t;
    for (const Row &r : rows) {
        t.drops += r.stats.drops;
        t.duplicates += r.stats.duplicates;
        t.reorders += r.stats.reorders;
        t.forcedSpills += r.stats.forcedSpills;
        t.injectedPageFaults += r.stats.injectedPageFaults;
        t.jitteredEvents += r.stats.jitteredEvents;
        t.corruptions += r.stats.corruptions;
        t.jitterTicks += r.stats.jitterTicks;
    }
    return t;
}

} // namespace ap::sim
