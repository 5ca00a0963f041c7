/**
 * @file
 * The T-net: point-to-point 2-D torus interconnect.
 *
 * A message's flight time is MLSim's network term (Figure 7, items
 * 15-18), charged by mlsim::CostModel::network() from the machine's
 * Figure 6 table — the expression MLSim's replay charges:
 *
 *   latency = network_prolog_time
 *           + network_delay_time * distance
 *           + network_msg_time   * wire_bytes
 *           + network_epilog_time
 *
 * Delivery is FIFO per source-destination pair, matching the T-net's
 * static routing ("passes messages in order", Section 4.1) — the
 * property that makes a GET reply usable as a PUT acknowledgement.
 *
 * Like MLSim, the model has no link contention. Everything a send
 * touches belongs to the sender's kernel shard (Simulator::shard_of()
 * of the source cell) or, for fault decisions, the sender itself, so
 * senders on different shards share nothing and take no lock.
 */

#ifndef AP_NET_TNET_HH
#define AP_NET_TNET_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "mlsim/costmodel.hh"
#include "net/kills.hh"
#include "net/link.hh"
#include "net/message.hh"
#include "net/topology.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"

namespace ap::net
{

/** Aggregate T-net statistics. */
struct TnetStats
{
    std::uint64_t messages = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t dropped = 0;    ///< injected drops
    std::uint64_t duplicated = 0; ///< injected duplicates
    std::uint64_t reordered = 0;  ///< injected reorders
    std::uint64_t corrupted = 0;  ///< injected payload corruptions
    /** Messages discarded because an endpoint was declared failed. */
    std::uint64_t deadCellDrops = 0;
    Histogram distance;
    Histogram messageSize;
    /** Injection-to-arrival flight time, microseconds. */
    Histogram latencyUs;
};

/**
 * The torus network. send() injects a message and hands it to the
 * receiver (Link::set_receiver()) at the arrival tick.
 */
class Tnet final : public Link
{
  public:
    /**
     * @param sim owning simulator; each of its kernel shards gets its
     *            own FIFO clamp and stats row
     * @param topo torus shape
     * @param costs the Figure 6 table whose network_* items price a
     *              flight
     * @param kills the machine's kill table: traffic to or from a
     *              fail-stop cell is discarded (deadCellDrops)
     * @param faults the machine's fault injector. Injected faults:
     *               drop (message vanishes in the network), duplicate
     *               (delivered twice), reorder (held back without
     *               advancing the FIFO clamp, so later same-pair
     *               traffic overtakes it), corruption, and latency
     *               jitter applied before the FIFO clamp
     *               (timing-only, order-preserving), all decided by
     *               the sender's count of sends
     * @param spans the machine's span layer: flights are recorded
     *              under their message's trace id, injected faults
     *              annotated on the machine track
     */
    Tnet(sim::Simulator &sim, Torus topo, const mlsim::Params &costs,
         const KillTable &kills, sim::FaultInjector &faults,
         obs::SpanLayer &spans);

    /**
     * Inject @p msg now. @return the arrival tick at the destination.
     * Messages between the same pair never reorder.
     */
    Tick send(Message msg) override;

    /** Point-to-point pure latency for a @p bytes-byte wire message. */
    Tick latency(CellId src, CellId dst, std::uint64_t bytes) const;

    const Torus &topology() const { return topo; }

    /** Machine-wide totals: shard 0 writes them directly, the other
     *  shards at each fold_stats() (every window barrier). */
    const TnetStats &stats() const { return netStats; }
    void fold_stats();

  private:
    /** What one shard's senders write; only that shard touches it. */
    struct SendRow
    {
        /** Last arrival per (src * size + dst) pair: the FIFO clamp. */
        std::unordered_map<std::uint64_t, Tick> lastArrival;
        TnetStats stats; ///< unfolded (row 0 writes netStats)
    };

    void schedule_delivery(Message msg, Tick arrive);

    /** Annotate injected fault "@p what<kind>" on the machine track
     *  (full span mode only). */
    void note_fault(const char *what, MsgKind kind);

    sim::Simulator &sim;
    Torus topo;
    mlsim::CostModel cost;
    const KillTable &kills;
    sim::FaultInjector &faults;
    obs::SpanLayer &spans;
    std::vector<SendRow> rows; ///< one per kernel shard
    TnetStats netStats;
};

} // namespace ap::net

#endif // AP_NET_TNET_HH
