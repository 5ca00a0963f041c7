#include "net/reliable.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "base/logging.hh"

namespace ap::net
{

ReliableNet::ReliableNet(sim::Simulator &sim, Tnet &tnet,
                         const KillTable &kills, obs::SpanLayer &spans)
    : sim(sim), tnet(tnet), kills(kills), spans(spans),
      rows(static_cast<std::size_t>(tnet.topology().size()))
{
    tnet.set_receiver([this](Message m) { on_deliver(std::move(m)); });
}

void
ReliableNet::stamp_ack(Message &msg)
{
    // An outgoing src->dst data message acknowledges what we have
    // received in order on the reverse channel dst->src.
    RecvChannel &rc = recv_channel(msg.dst, msg.src);
    msg.ackSeq = rc.expected - 1;
    if (sim.armed(rc.ackTimer)) {
        sim.cancel(rc.ackTimer);
        ++stats_of(msg.src).acksPiggybacked;
    }
}

Tick
ReliableNet::send(Message msg)
{
    CellId src = msg.src, dst = msg.dst;
    SendChannel &ch = send_channel(src, dst);
    if (is_dead(src) || is_dead(dst)) {
        // A sender drops its channel to a dead peer itself (the
        // peer's flush only clears the peer's own channels).
        abort_channel(ch, src);
        ++stats_of(src).abortedMsgs;
        return sim.now();
    }

    msg.reliable = true;
    msg.seq = ch.nextSeq++;
    stamp_ack(msg);
    msg.checksum = msg.payload_checksum();

    RnetStats &st = stats_of(src);
    ++st.dataSent;

    if (ch.window.size() <
        static_cast<std::size_t>(window_size)) {
        transmit(ch, src, dst, std::move(msg));
    } else {
        ++st.queuedFull;
        ch.backlog.push_back(std::move(msg));
    }
    return sim.now();
}

void
ReliableNet::transmit(SendChannel &ch, CellId src, CellId dst,
                      Message msg)
{
    Pending p;
    p.msg = msg;
    p.firstSent = sim.now();
    ch.window.push_back(std::move(p));
    RnetStats &st = stats_of(src);
    st.windowHighWater =
        std::max(st.windowHighWater,
                 static_cast<std::uint64_t>(ch.window.size()));
    tnet.send(std::move(msg));
    arm_timer(ch, src, dst);
}

void
ReliableNet::arm_timer(SendChannel &ch, CellId src, CellId dst)
{
    if (sim.armed(ch.rtoTimer))
        return;
    ch.rtoTimer = sim.arm(sim.now() + us_to_ticks(ch.rtoUs),
                          [this, src, dst]() { on_timer(src, dst); });
}

void
ReliableNet::on_timer(CellId src, CellId dst)
{
    // Every path that empties the window cancels the timer, so a
    // timer that runs has data to resend.
    SendChannel &ch = send_channel(src, dst);
    if (is_dead(src) || is_dead(dst)) {
        // A live sender's channel to a dead peer ends here (or at
        // its next send).
        abort_channel(ch, src);
        return;
    }

    if (ch.window.front().sends > max_retransmits) {
        warn("rnet: channel %d -> %d gave up after %d retransmits "
             "(%llu messages aborted)",
             src, dst, max_retransmits,
             static_cast<unsigned long long>(ch.window.size() +
                                             ch.backlog.size()));
        abort_channel(ch, src);
        return;
    }

    // Go-back-N: retransmit the whole window with fresh piggybacked
    // acks; the receiver's duplicate suppression absorbs any that
    // were delivered but whose acks were lost.
    RnetStats &st = stats_of(src);
    for (Pending &p : ch.window) {
        ++st.retransmits;
        ++p.sends;
        Message copy = p.msg;
        stamp_ack(copy);
        std::uint64_t tid = copy.traceId;
        Tick resent = sim.now();
        Tick arr = tnet.send(std::move(copy));
        spans.record(dst, tid, obs::SpanStage::retransmit, resent, arr,
                     obs::SpanOp::none,
                     static_cast<std::uint32_t>(p.sends));
    }
    ch.rtoUs = std::min(ch.rtoUs * 2.0, rto_max_us);
    arm_timer(ch, src, dst);
}

void
ReliableNet::on_deliver(Message msg)
{
    CellId src = msg.src, dst = msg.dst;

    if (msg.kind == MsgKind::rnet_ack) {
        process_ack(dst, src, msg.ackSeq);
        return;
    }
    if (!msg.reliable) {
        // Defensive pass-through for unsequenced traffic.
        receiver(std::move(msg));
        return;
    }

    // Piggybacked cumulative ack for our dst->src send channel.
    process_ack(dst, src, msg.ackSeq);

    RnetStats &st = stats_of(dst);
    if (msg.payload_checksum() != msg.checksum) {
        // Corrupted in flight: drop without acking; the sender's
        // retransmission carries a clean copy.
        ++st.checksumDrops;
        return;
    }

    RecvChannel &rc = recv_channel(src, dst);
    if (msg.seq < rc.expected || rc.ooo.count(msg.seq)) {
        ++st.dupDrops;
        // Re-ack so a sender whose ack was lost stops retransmitting.
        schedule_ack(src, dst);
        return;
    }
    if (msg.seq == rc.expected) {
        ++rc.expected;
        receiver(std::move(msg));
        // Release any directly following out-of-order arrivals.
        auto it = rc.ooo.find(rc.expected);
        while (it != rc.ooo.end()) {
            ++rc.expected;
            Message next = std::move(it->second);
            rc.ooo.erase(it);
            receiver(std::move(next));
            it = rc.ooo.find(rc.expected);
        }
        schedule_ack(src, dst);
        return;
    }
    // Ahead of sequence: buffer for reassembly (bounded).
    if (rc.ooo.size() >= static_cast<std::size_t>(ooo_capacity)) {
        ++st.oooEvictions;
    } else {
        ++st.oooBuffered;
        rc.ooo.emplace(msg.seq, std::move(msg));
    }
    schedule_ack(src, dst);
}

void
ReliableNet::process_ack(CellId me, CellId peer,
                         std::uint64_t ackSeq)
{
    if (ackSeq == 0)
        return;
    auto it = row(me).send.find(peer);
    if (it == row(me).send.end())
        return;
    SendChannel &ch = it->second;
    bool progress = false;
    while (!ch.window.empty() &&
           ch.window.front().msg.seq <= ackSeq) {
        stats_of(me).ackLatencyUs.sample(static_cast<std::uint64_t>(
            ticks_to_us(sim.now() - ch.window.front().firstSent)));
        ch.window.pop_front();
        progress = true;
    }
    if (!progress)
        return;
    // An ack of new data stops the timer and resets the backoff; it
    // restarts at now + rto_us while data is outstanding.
    ch.rtoUs = rto_us;
    sim.cancel(ch.rtoTimer);
    // Promote parked sends into the freed window slots.
    while (!ch.backlog.empty() &&
           ch.window.size() <
               static_cast<std::size_t>(window_size)) {
        Message next = std::move(ch.backlog.front());
        ch.backlog.pop_front();
        stamp_ack(next);
        transmit(ch, me, peer, std::move(next));
    }
    if (!ch.window.empty())
        arm_timer(ch, me, peer);
}

void
ReliableNet::schedule_ack(CellId src, CellId dst)
{
    RecvChannel &rc = recv_channel(src, dst);
    if (sim.armed(rc.ackTimer))
        return;
    rc.ackTimer = sim.arm(
        sim.now() + us_to_ticks(ack_delay_us), [this, src, dst]() {
            if (is_dead(src) || is_dead(dst))
                return;
            Message ack;
            ack.kind = MsgKind::rnet_ack;
            ack.src = dst;
            ack.dst = src;
            ack.ackSeq = recv_channel(src, dst).expected - 1;
            ++stats_of(dst).acksSent;
            tnet.send(std::move(ack));
        });
}

void
ReliableNet::abort_channel(SendChannel &ch, CellId src)
{
    stats_of(src).abortedMsgs += ch.window.size() + ch.backlog.size();
    ch.window.clear();
    ch.backlog.clear();
    sim.cancel(ch.rtoTimer);
}

void
ReliableNet::flush_cell(CellId dead)
{
    // Only the dead cell's own row. A live peer's channels belong to
    // the peer's timeline, which drops them at its next timer or send.
    Row &r = row(dead);
    for (auto &[dst, ch] : r.send)
        abort_channel(ch, dead);
    for (auto &[src, rc] : r.recv) {
        rc.ooo.clear();
        sim.cancel(rc.ackTimer);
    }
}

} // namespace ap::net
