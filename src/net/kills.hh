/**
 * @file
 * The kill table: the one record of when each cell fail-stops.
 *
 * hw::Machine owns it and records every kill, planned or issued at
 * run time; the T-net, the reliable layer and the S-net read it. A
 * kill issued inside an event lands at least one lookahead after the
 * event's tick (hw::Machine::kill_cell), so every kernel shard has
 * seen it recorded before any of them can reach it: failed_by()
 * gives the same answer on every shard.
 */

#ifndef AP_NET_KILLS_HH
#define AP_NET_KILLS_HH

#include <atomic>
#include <memory>

#include "base/types.hh"

namespace ap::net
{

/** Kill tick per cell (max_tick while the cell lives). */
class KillTable
{
  public:
    explicit KillTable(int cells)
        : ticks(std::make_unique<std::atomic<Tick>[]>(
              static_cast<std::size_t>(cells)))
    {
        for (int i = 0; i < cells; ++i)
            ticks[static_cast<std::size_t>(i)].store(
                max_tick, std::memory_order_relaxed);
    }

    /** The networks hold it by reference. */
    KillTable(const KillTable &) = delete;
    KillTable &operator=(const KillTable &) = delete;

    /** @return the tick @p id fail-stops at (max_tick: never). */
    Tick
    kill_tick(CellId id) const
    {
        return ticks[static_cast<std::size_t>(id)].load(
            std::memory_order_relaxed);
    }

    /** @return true when @p id is fail-stop at tick @p t. */
    bool failed_by(CellId id, Tick t) const { return t >= kill_tick(id); }

    /** @return true when any cell is fail-stop at tick @p t. */
    bool
    any_failed_by(Tick t) const
    {
        return t >= first.load(std::memory_order_relaxed);
    }

    /** Record that @p id fail-stops at @p at; the earliest kill wins.
     *  @return true when @p at lowered the cell's recorded tick. */
    bool
    record(CellId id, Tick at)
    {
        lower(first, at);
        return lower(ticks[static_cast<std::size_t>(id)], at);
    }

  private:
    static bool
    lower(std::atomic<Tick> &t, Tick at)
    {
        Tick cur = t.load(std::memory_order_relaxed);
        while (at < cur)
            if (t.compare_exchange_weak(cur, at,
                                        std::memory_order_relaxed))
                return true;
        return false;
    }

    std::unique_ptr<std::atomic<Tick>[]> ticks;
    std::atomic<Tick> first{max_tick};
};

} // namespace ap::net

#endif // AP_NET_KILLS_HH
