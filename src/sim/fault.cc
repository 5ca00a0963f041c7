#include "sim/fault.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace ap::sim
{

std::string
FaultPlan::describe() const
{
    if (!any())
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

FaultInjector::FaultInjector(FaultPlan plan)
    : fp(std::move(plan)), armed(fp.any())
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

void
FaultInjector::set_cells(int cells)
{
    if (rows.size() < static_cast<std::size_t>(cells) + 1)
        rows.resize(static_cast<std::size_t>(cells) + 1);
}

FaultInjector::Row &
FaultInjector::row(int cell)
{
    auto idx = static_cast<std::size_t>(cell < 0 ? 0 : cell + 1);
    if (idx >= rows.size())
        panic("fault injector sized for %zu cells, asked for cell %d",
              rows.size() - 1, cell);
    return rows[idx];
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

Tick
FaultInjector::reorder_delay() const
{
    return us_to_ticks(fp.reorderDelayUs);
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
    static const HoldStats empty{};
    auto idx = static_cast<std::size_t>(cell) + 1;
    if (cell < 0 || idx >= rows.size())
        return empty;
    return rows[idx].hold;
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
