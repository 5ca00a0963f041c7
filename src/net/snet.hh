/**
 * @file
 * The S-net: dedicated hardware barrier-synchronization network.
 *
 * The paper's machine uses the S-net for all-cell barriers and
 * software (communication registers) for group barriers; this model
 * supports arbitrary member sets so both modes and the group
 * extension can be exercised. A barrier context collects arrivals and
 * releases every member a fixed latency after the last arrival. A
 * member that dies without arriving counts as arriving at its kill
 * tick (the machine's kill table, net/kills.hh).
 * Members arrive on their own timelines, possibly on different
 * host threads, so nothing depends on which arrival the host
 * processes last: the release tick is the latest arrival or kill
 * tick plus the latency, and each release carries the key its member
 * reserved at arrival. A death enters an episode only from the dead
 * cell's own timeline (fail_cell()) or from before the episode can
 * begin, never from another shard's clock, so it is ordered against
 * that cell's arrivals exactly as in a one-shard run.
 */

#ifndef AP_NET_SNET_HH
#define AP_NET_SNET_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "mlsim/params.hh"
#include "net/kills.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"

namespace ap::net
{

/** Hardware barrier engine. */
class Snet
{
  public:
    /** Identifier of a barrier context. */
    using ContextId = int;

    /**
     * @param sim owning simulator
     * @param cells machine size
     * @param costs the Figure 6 table; barrier_time is the
     *              combine-and-release latency after the last arrival
     * @param kills the machine's kill table
     * @param spans the machine's span layer: each barrier episode
     *              records one machine-wide span from the first
     *              arrival to the release tick under its own trace id
     */
    Snet(sim::Simulator &sim, int cells, const mlsim::Params &costs,
         const KillTable &kills, obs::SpanLayer &spans);

    /**
     * Create a barrier context over @p members (empty = all cells).
     * Contexts are reusable: the barrier re-arms after each release.
     * Safe to call while the machine runs (the serving layer creates
     * a partition-scoped context per gang launch): creation locks
     * the same mutex as arrive()/fail_cell(), and contexts live in a
     * deque so concurrent arrivals keep stable references.
     */
    ContextId create_context(std::vector<CellId> members = {});

    /**
     * Cell @p cell arrives at barrier @p ctx; @p on_release fires at
     * the release tick. Arriving twice before release is an error,
     * except for a cell whose barrier began before its kill tick and
     * arrives after it, onto its own death.
     */
    void arrive(ContextId ctx, CellId cell,
                std::function<void()> on_release);

    /** Number of completed barrier episodes on @p ctx. */
    std::uint64_t episodes(ContextId ctx) const;

    /** Completed barrier episodes across every context. */
    std::uint64_t total_episodes() const;

    /**
     * Deliver @p cell 's death, on its own timeline at its kill tick:
     * it counts as arriving then at every context it has not arrived
     * at, and contexts blocked only on it release.
     */
    void fail_cell(CellId cell);

  private:
    /** One member's pending release. */
    struct Waiter
    {
        CellId cell;
        std::uint64_t key; ///< reserved by the member at arrival
        std::function<void()> onRelease;
    };

    struct Context
    {
        std::uint32_t id = 0;
        std::vector<CellId> members; ///< distinct
        /** Per cell: whether it is a member. */
        std::vector<bool> member;
        /** Per cell: arrived or dead this episode (non-members are
         *  always set). */
        std::vector<bool> arrived;
        /** Members neither arrived nor dead this episode. */
        std::size_t pending = 0;
        std::vector<Waiter> waiters;
        std::uint64_t completed = 0;
        Tick episodeBegin = max_tick; ///< earliest arrival
        Tick lastArrival = 0;         ///< latest arrival or death
    };

    /** Start @p ctx 's next episode: members dead by @p t, before
     *  any arrival can reach it, enter it as arrived. */
    void begin_episode(Context &ctx, Tick t) const;

    /** Release @p ctx when every member has arrived or died: O(1)
     *  until the release, which visits each member once. */
    void maybe_release(Context &ctx);

    sim::Simulator &sim;
    int numCells;
    mlsim::Params costs;
    const KillTable &kills;
    obs::SpanLayer &spans;
    /** Serializes create_context()/arrive()/fail_cell(): barrier
     *  contexts are shared by every member cell's shard and may be
     *  created mid-run. */
    mutable std::mutex ctxMutex;
    /** Deque, not vector: growth must not invalidate references a
     *  concurrent arrive() holds across maybe_release(). */
    std::deque<Context> contexts;
};

} // namespace ap::net

#endif // AP_NET_SNET_HH
