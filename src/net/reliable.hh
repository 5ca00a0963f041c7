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
 *    no reverse traffic shows up within ackDelayUs, on standalone
 *    RNET_ACK messages;
 *  - unacked messages sit in a sliding-window retransmit queue per
 *    channel; a go-back-N retransmit fires on an exponentially
 *    backed-off timer driven by the simulator's event queue.
 *
 * Fail-stop cells are read from the machine's kill table: channels
 * touching a dead cell are flushed (their queued traffic is aborted)
 * so the event queue drains instead of retransmitting into the void.
 *
 * The layer is toggleable (MachineConfig::reliableNet); when off the
 * MSC+ talks to the raw T-net and no message carries the envelope.
 */

#ifndef AP_NET_RELIABLE_HH
#define AP_NET_RELIABLE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
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

/** Protocol knobs of the reliable layer. */
struct ReliableParams
{
    /** Max unacked messages in flight per (src,dst) channel. */
    int windowSize = 32;
    /** Initial retransmit timeout, microseconds. Well above the
     *  T-net round trip (tens of us) plus the delayed-ack window. */
    double rtoUs = 400.0;
    /** Exponential-backoff saturation for the RTO. */
    double rtoMaxUs = 6400.0;
    /** How long the receiver waits for piggyback traffic before
     *  sending a standalone ack. */
    double ackDelayUs = 20.0;
    /** Out-of-order reassembly buffer capacity per channel; an
     *  arrival past the cap is dropped (retransmission recovers). */
    int oooCapacity = 64;
    /** Give-up bound: after this many (re)transmissions of the
     *  oldest unacked message the channel aborts its queue. */
    int maxRetransmits = 20;
};

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
    /** Install this layer as @p tnet 's receiver. @p kills is the
     *  machine's kill table. */
    ReliableNet(sim::Simulator &sim, Tnet &tnet, const KillTable &kills,
                ReliableParams params);

    /** Stamp, sequence and transmit (or window-park) @p msg. */
    Tick send(Message msg) override;

    /** Attach the machine's span layer (nullptr detaches). Each
     *  go-back-N resend records a retransmit child span under the
     *  message's original trace id (aux = try count). */
    void set_spans(obs::SpanLayer *s) { spans = s; }

    /** Abort the queued traffic of a failed cell (its own channels;
     *  live senders drop theirs to it at their next timer or send)
     *  so retransmit timers stop and the event queue can drain.
     *  Runs on the dead cell's timeline. */
    void flush_cell(CellId dead);

    /** Stats of cell @p id (valid for the topology's cells). */
    const RnetStats &stats(CellId id) const
    {
        return cellStats[static_cast<std::size_t>(id)];
    }

    const ReliableParams &params() const { return prm; }

  private:
    /** One in-flight (sent, unacked) message. */
    struct Pending
    {
        Message msg;
        Tick firstSent = 0;
        Tick lastSent = 0;
        int sends = 1;
    };

    /** Sender state of one directed (src,dst) channel. */
    struct SendChannel
    {
        std::uint64_t nextSeq = 1;
        std::deque<Pending> window;  ///< sent, awaiting ack
        std::deque<Message> backlog; ///< parked behind the window
        double rtoUs = 0.0;
        bool timerArmed = false;
        /** Bumped to invalidate scheduled timer events (the event
         *  queue cannot cancel). */
        std::uint64_t timerSeq = 0;
    };

    /** Receiver state of one directed (src,dst) channel. */
    struct RecvChannel
    {
        std::uint64_t expected = 1; ///< next in-order seq
        std::map<std::uint64_t, Message> ooo;
        bool ackPending = false;
    };

    std::uint64_t chan_key(CellId src, CellId dst) const;
    SendChannel &send_channel(CellId src, CellId dst);
    RecvChannel &recv_channel(CellId src, CellId dst);
    RnetStats &stats_of(CellId id)
    {
        return cellStats[static_cast<std::size_t>(id)];
    }

    bool is_dead(CellId id) const { return kills.failed_by(id, sim.now()); }

    /** Refresh the piggybacked cumulative ack on an outgoing data
     *  message (reverse channel dst->src). */
    void stamp_ack(Message &msg);

    /** Push @p msg into the in-flight window and onto the wire. */
    void transmit(SendChannel &ch, CellId src, CellId dst,
                  Message msg);

    void arm_timer(SendChannel &ch, CellId src, CellId dst,
                   double delayUs);
    /** Drop @p ch 's window and backlog, counted against @p src. */
    void abort_channel(SendChannel &ch, CellId src);
    void on_timer(CellId src, CellId dst, std::uint64_t expect);

    /** T-net delivery tap: runs the full receiver protocol. */
    void on_deliver(Message msg);

    /** Apply cumulative ack @p ackSeq to the channel me -> peer. */
    void process_ack(CellId me, CellId peer, std::uint64_t ackSeq);

    /** Schedule a delayed standalone ack on channel src -> dst. */
    void schedule_ack(CellId src, CellId dst);

    sim::Simulator &sim;
    Tnet &tnet;
    const KillTable &kills;
    ReliableParams prm;
    /** Serializes the channel maps, which rehash on insert from
     *  any shard. Each channel has one owner timeline: a (src, dst)
     *  send channel is driven by src's events (send, retransmit
     *  timers, ack processing), its receive channel by dst's
     *  (delivery, delayed acks), so the protocol's decisions do not
     *  depend on lock order. Recursive because the receiver may
     *  re-enter send() (GET replies). */
    std::recursive_mutex mu;
    int cells = 0;
    std::unordered_map<std::uint64_t, SendChannel> sendChans;
    std::unordered_map<std::uint64_t, RecvChannel> recvChans;
    std::vector<RnetStats> cellStats;
    obs::SpanLayer *spans = nullptr;
};

} // namespace ap::net

#endif // AP_NET_RELIABLE_HH
