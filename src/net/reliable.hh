/**
 * @file
 * Reliable-delivery layer between the MSC+ and the T-net.
 *
 * The paper's T-net is lossless and FIFO per (src,dst) pair; the
 * fault injector deliberately breaks both. This layer restores them
 * on demand, the way production one-sided runtimes (DART-MPI, the
 * Epiphany OpenSHMEM port) layer reliable completion tracking under
 * a PGAS API:
 *
 *  - every reliable message carries a per-(src,dst)-channel sequence
 *    number and an FNV-1a payload checksum;
 *  - the receiver suppresses duplicates, buffers a bounded window of
 *    out-of-order arrivals, and releases messages to the MSC+ in
 *    sequence order only;
 *  - cumulative acks ride piggybacked on reverse-channel data or, if
 *    no reverse traffic shows up within ack_delay_us, on standalone
 *    RNET_ACK messages;
 *  - unacked messages sit in a sliding-window retransmit queue per
 *    channel; a go-back-N retransmit fires on an exponentially
 *    backed-off timer driven by the simulator's event queue.
 *
 * Both timers are kernel Timers (Simulator::arm), cancelled the moment
 * they have nothing left to do, so no event runs only to find itself
 * stale. The retransmit timer follows RFC 6298 §5.1–5.3: data sent
 * with no timer running starts it, an ack that advances the window
 * restarts it at now + rto_us, and it stops when the window empties,
 * the channel aborts or the cell is flushed. The delayed ack is armed
 * by the first arrival not yet acked and cancelled by a piggyback, so
 * a standalone ack leaves exactly ack_delay_us after the first
 * arrival it covers.
 *
 * Fail-stop cells are read from the machine's kill table: channels
 * touching a dead cell are flushed (their queued traffic is aborted)
 * so the event queue drains instead of retransmitting into the void.
 *
 * The protocol state is one row per cell, like the MSC+ it serves:
 * the cell's send channels (keyed by destination), its receive
 * channels (keyed by source) and its counters. Only the cell's own
 * events touch its row — its sends, retransmit timers and incoming
 * acks on the send side, deliveries to it and its delayed acks on
 * the receive side — so cells on different kernel shards share no
 * state and take no lock, and every timer in a row is armed and
 * cancelled on its cell's own timeline.
 *
 * The layer is toggleable (MachineConfig::reliableNet); when off the
 * MSC+ talks to the raw T-net and no message carries the envelope.
 */

#ifndef AP_NET_RELIABLE_HH
#define AP_NET_RELIABLE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "net/kills.hh"
#include "net/link.hh"
#include "net/tnet.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"

namespace ap::net
{

/** Per-cell counters of the reliable layer (cellN.rnet.*). */
struct RnetStats
{
    // sender side (indexed by the sending cell)
    std::uint64_t dataSent = 0;       ///< first transmissions
    std::uint64_t retransmits = 0;    ///< go-back-N retransmissions
    std::uint64_t acksPiggybacked = 0;
    std::uint64_t queuedFull = 0;     ///< sends parked behind window
    std::uint64_t windowHighWater = 0;
    std::uint64_t abortedMsgs = 0;    ///< flushed (dead peer/give-up)
    Histogram ackLatencyUs;           ///< first-send to cum-ack

    // receiver side (indexed by the receiving cell)
    std::uint64_t dupDrops = 0;
    std::uint64_t oooBuffered = 0;
    std::uint64_t oooEvictions = 0;
    std::uint64_t checksumDrops = 0;
    std::uint64_t acksSent = 0;       ///< standalone RNET_ACKs
};

/**
 * The machine-wide reliable link. Sits between every MSC+ and the
 * T-net: the MSC+ send path calls send(), the T-net delivers into
 * on_deliver() (this layer is the T-net's receiver), and in-order
 * messages come out through this link's receiver.
 */
class ReliableNet : public Link
{
  public:
    /** Max unacked messages in flight per (src,dst) channel. */
    static constexpr int window_size = 32;
    /** Initial retransmit timeout, microseconds. Well above the
     *  T-net round trip (tens of us) plus the delayed-ack window. */
    static constexpr double rto_us = 400.0;
    /** Exponential-backoff saturation for the RTO. */
    static constexpr double rto_max_us = 6400.0;
    /** How long the receiver waits for piggyback traffic before
     *  sending a standalone ack. */
    static constexpr double ack_delay_us = 20.0;
    /** Out-of-order reassembly buffer capacity per channel; an
     *  arrival past the cap is dropped (retransmission recovers). */
    static constexpr int ooo_capacity = 64;
    /** Give-up bound: after this many retransmissions of the oldest
     *  unacked message the channel aborts its queue. */
    static constexpr int max_retransmits = 20;

    /**
     * Install this layer as @p tnet 's receiver.
     * @param kills the machine's kill table
     * @param spans the machine's span layer: each go-back-N resend
     *              records a retransmit child span under the
     *              message's original trace id (aux = try count)
     */
    ReliableNet(sim::Simulator &sim, Tnet &tnet, const KillTable &kills,
                obs::SpanLayer &spans);

    /** Stamp, sequence and transmit (or window-park) @p msg. */
    Tick send(Message msg) override;

    /** Abort the queued traffic of a failed cell and cancel its
     *  timers (its own row; live senders drop their channels to it
     *  at their next timer or send) so the event queue can drain.
     *  Runs on the dead cell's timeline. */
    void flush_cell(CellId dead);

    /** Stats of cell @p id (valid for the topology's cells). */
    const RnetStats &stats(CellId id) const
    {
        return rows[static_cast<std::size_t>(id)].stats;
    }

  private:
    /** One in-flight (sent, unacked) message. */
    struct Pending
    {
        Message msg;
        Tick firstSent = 0;
        int sends = 1;
    };

    /** Sender state of one directed (src,dst) channel. */
    struct SendChannel
    {
        std::uint64_t nextSeq = 1;
        std::deque<Pending> window;  ///< sent, awaiting ack
        std::deque<Message> backlog; ///< parked behind the window
        double rtoUs = rto_us;
        sim::Timer rtoTimer; ///< queued while the window holds data
    };

    /** Receiver state of one directed (src,dst) channel. */
    struct RecvChannel
    {
        std::uint64_t expected = 1; ///< next in-order seq
        std::map<std::uint64_t, Message> ooo;
        sim::Timer ackTimer; ///< queued while a standalone ack is owed
    };

    /** One cell's protocol state; only the cell's own events touch
     *  it. */
    struct Row
    {
        std::unordered_map<CellId, SendChannel> send; ///< by dst
        std::unordered_map<CellId, RecvChannel> recv; ///< by src
        RnetStats stats;
    };

    Row &row(CellId id) { return rows[static_cast<std::size_t>(id)]; }
    /** Channel src -> dst, held in the sender's row. */
    SendChannel &send_channel(CellId src, CellId dst)
    {
        return row(src).send[dst];
    }
    /** Channel src -> dst, held in the receiver's row. */
    RecvChannel &recv_channel(CellId src, CellId dst)
    {
        return row(dst).recv[src];
    }
    RnetStats &stats_of(CellId id) { return row(id).stats; }

    bool is_dead(CellId id) const { return kills.failed_by(id, sim.now()); }

    /** Refresh the piggybacked cumulative ack on an outgoing data
     *  message (reverse channel dst->src); it replaces the standalone
     *  ack owed on that channel. */
    void stamp_ack(Message &msg);

    /** Push @p msg into the in-flight window and onto the wire. */
    void transmit(SendChannel &ch, CellId src, CellId dst,
                  Message msg);

    /** Start @p ch 's retransmit timer at now + its RTO, unless it
     *  is running. */
    void arm_timer(SendChannel &ch, CellId src, CellId dst);
    /** Drop @p ch 's window and backlog, counted against @p src,
     *  and stop its timer. */
    void abort_channel(SendChannel &ch, CellId src);
    void on_timer(CellId src, CellId dst);

    /** T-net delivery tap: runs the full receiver protocol. */
    void on_deliver(Message msg);

    /** Apply cumulative ack @p ackSeq to the channel me -> peer. */
    void process_ack(CellId me, CellId peer, std::uint64_t ackSeq);

    /** Arm the delayed standalone ack on channel src -> dst, unless
     *  one is owed already. */
    void schedule_ack(CellId src, CellId dst);

    sim::Simulator &sim;
    Tnet &tnet;
    const KillTable &kills;
    obs::SpanLayer &spans;
    std::vector<Row> rows; ///< one per cell, never resized
};

} // namespace ap::net

#endif // AP_NET_RELIABLE_HH
