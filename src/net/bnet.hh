/**
 * @file
 * The B-net: shared broadcast bus (50 MB/s on the real machine).
 *
 * Used for program/data distribution and host communication. Modelled
 * as a single serialized channel: one broadcast occupies the bus for
 * bnet_prolog_time + bnet_msg_time * wire bytes (Figure 6 table) and
 * is then delivered to every other cell.
 * The bus is arbitrated on the machine timeline: a broadcast issued
 * at tick t becomes a bus event at t + prolog carrying t, and bus
 * events claim the bus in (tick, key) order; the arrival formula is
 * unchanged (start = max(t, bus free)). The prolog and the header's
 * transfer time bound the kernel lookahead (hw/machine.cc).
 */

#ifndef AP_NET_BNET_HH
#define AP_NET_BNET_HH

#include <utility>

#include "base/stats.hh"
#include "base/types.hh"
#include "mlsim/params.hh"
#include "net/message.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"

namespace ap::net
{

/** Aggregate B-net statistics. */
struct BnetStats
{
    std::uint64_t broadcasts = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t wireBytes = 0;
    /** Bus occupancy per broadcast, microseconds. */
    Histogram occupancyUs;
};

/** The broadcast network. */
class Bnet
{
  public:
    /**
     * @param sim owning simulator
     * @param cells number of cells on the bus
     * @param costs the Figure 6 table (bnet_prolog_time,
     *              bnet_msg_time)
     * @param spans the machine's span layer (bus occupancy is
     *              recorded under the broadcast's trace id)
     */
    Bnet(sim::Simulator &sim, int cells, const mlsim::Params &costs,
         obs::SpanLayer &spans);

    /** Install the receiver of every cell's copy of a broadcast. */
    void set_receiver(Deliver d) { receiver = std::move(d); }

    /**
     * Broadcast @p msg from msg.src to every other cell. The bus
     * event decides the delivery tick (the same for all receivers).
     */
    void broadcast(Message msg);

    /** Number of broadcasts that have claimed the bus so far. */
    std::uint64_t count() const { return netStats.broadcasts; }

    const BnetStats &stats() const { return netStats; }

  private:
    /** The bus event: claim the bus, schedule the deliveries. */
    void arbitrate(Message msg, Tick issued);

    sim::Simulator &sim;
    int numCells;
    mlsim::Params costs;
    obs::SpanLayer &spans;
    Deliver receiver;
    /** Bus free-at tick; machine timeline only. */
    Tick busyUntil = 0;
    BnetStats netStats;
};

} // namespace ap::net

#endif // AP_NET_BNET_HH
