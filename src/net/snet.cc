#include "net/snet.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace ap::net
{

Snet::Snet(sim::Simulator &sim, int cells, const mlsim::Params &costs,
           const KillTable &kills, obs::SpanLayer &spans)
    : sim(sim), numCells(cells), costs(costs), kills(kills), spans(spans)
{
}

Snet::ContextId
Snet::create_context(std::vector<CellId> members)
{
    if (members.empty()) {
        members.resize(static_cast<std::size_t>(numCells));
        for (int i = 0; i < numCells; ++i)
            members[static_cast<std::size_t>(i)] = i;
    }
    Context ctx;
    ctx.member.assign(static_cast<std::size_t>(numCells), false);
    for (CellId c : members) {
        if (c < 0 || c >= numCells)
            fatal("barrier member %d outside machine of %d cells", c,
                  numCells);
        if (!ctx.member[static_cast<std::size_t>(c)]) {
            ctx.member[static_cast<std::size_t>(c)] = true;
            ctx.members.push_back(c);
        }
    }
    ctx.arrived.assign(static_cast<std::size_t>(numCells), true);
    // No other timeline reaches a context created inside an event
    // before a lookahead has passed.
    begin_episode(ctx, sim.executing() ? sim.now() + sim.lookahead()
                                       : sim.now());
    std::lock_guard<std::mutex> lock(ctxMutex);
    ctx.id = static_cast<std::uint32_t>(contexts.size());
    contexts.push_back(std::move(ctx));
    return static_cast<ContextId>(contexts.size()) - 1;
}

void
Snet::arrive(ContextId id, CellId cell, std::function<void()> on_release)
{
    std::lock_guard<std::mutex> lock(ctxMutex);
    if (id < 0 || static_cast<std::size_t>(id) >= contexts.size())
        panic("unknown barrier context %d", id);
    Context &ctx = contexts[static_cast<std::size_t>(id)];
    auto idx = static_cast<std::size_t>(cell);
    if (cell < 0 || cell >= numCells || !ctx.member[idx])
        panic("cell %d is not a member of barrier context %d", cell,
              id);
    Tick now = sim.now();
    if (ctx.arrived[idx] && !kills.failed_by(cell, now))
        panic("cell %d arrived twice at barrier context %d", cell, id);

    // A cell arriving onto its own death was counted at it.
    ctx.pending -= !ctx.arrived[idx];
    ctx.arrived[idx] = true;
    ctx.waiters.push_back({cell, sim.next_key(), std::move(on_release)});
    ctx.episodeBegin = std::min(ctx.episodeBegin, now);
    ctx.lastArrival = std::max(ctx.lastArrival, now);

    maybe_release(ctx);
}

void
Snet::begin_episode(Context &ctx, Tick t) const
{
    ctx.episodeBegin = max_tick;
    ctx.lastArrival = 0;
    ctx.pending = 0;
    for (CellId m : ctx.members) {
        bool dead = kills.failed_by(m, t);
        ctx.arrived[static_cast<std::size_t>(m)] = dead;
        ctx.pending += !dead;
    }
}

void
Snet::maybe_release(Context &ctx)
{
    if (ctx.waiters.empty() || ctx.pending > 0)
        return;

    Tick release = ctx.lastArrival + us_to_ticks(costs.barrier_time);
    spans.record(-1, spans.episode_trace(ctx.id, ctx.completed),
                 obs::SpanStage::barrier, ctx.episodeBegin, release,
                 obs::SpanOp::barrier);
    ctx.completed++;
    // Every arrival at the next episode comes after this release.
    begin_episode(ctx, release);
    // Each release callback resumes its own cell: route it to that
    // cell's shard, not the shard of whichever arrival released us.
    for (Waiter &w : ctx.waiters)
        sim.schedule_keyed(w.cell, release, w.key,
                           std::move(w.onRelease));
    ctx.waiters.clear();
}

void
Snet::fail_cell(CellId cell)
{
    if (cell < 0 || cell >= numCells)
        panic("fail_cell %d outside machine of %d cells", cell,
              numCells);
    auto idx = static_cast<std::size_t>(cell);
    std::lock_guard<std::mutex> lock(ctxMutex);
    for (Context &ctx : contexts) {
        if (ctx.arrived[idx])
            continue;
        ctx.arrived[idx] = true;
        --ctx.pending;
        ctx.lastArrival = std::max(ctx.lastArrival, sim.now());
        maybe_release(ctx);
    }
}

std::uint64_t
Snet::total_episodes() const
{
    std::lock_guard<std::mutex> lock(ctxMutex);
    std::uint64_t n = 0;
    for (const Context &ctx : contexts)
        n += ctx.completed;
    return n;
}

std::uint64_t
Snet::episodes(ContextId id) const
{
    std::lock_guard<std::mutex> lock(ctxMutex);
    if (id < 0 || static_cast<std::size_t>(id) >= contexts.size())
        panic("unknown barrier context %d", id);
    return contexts[static_cast<std::size_t>(id)].completed;
}

} // namespace ap::net
