#include "net/tnet.hh"

#include <string>
#include <utility>

#include "base/logging.hh"

namespace ap::net
{

Tnet::Tnet(sim::Simulator &sim, Torus topo, const mlsim::Params &costs,
           const KillTable &kills, sim::FaultInjector &faults,
           obs::SpanLayer &spans)
    : sim(sim), topo(topo), cost(costs), kills(kills), faults(faults),
      spans(spans), rows(static_cast<std::size_t>(sim.shards()))
{
}

void
Tnet::fold_stats()
{
    for (std::size_t i = 1; i < rows.size(); ++i) {
        TnetStats &r = rows[i].stats;
        netStats.messages += r.messages;
        netStats.payloadBytes += r.payloadBytes;
        netStats.wireBytes += r.wireBytes;
        netStats.dropped += r.dropped;
        netStats.duplicated += r.duplicated;
        netStats.reordered += r.reordered;
        netStats.corrupted += r.corrupted;
        netStats.deadCellDrops += r.deadCellDrops;
        netStats.distance.merge(r.distance);
        netStats.messageSize.merge(r.messageSize);
        netStats.latencyUs.merge(r.latencyUs);
        r = TnetStats{};
    }
}

Tick
Tnet::latency(CellId src, CellId dst, std::uint64_t bytes) const
{
    return us_to_ticks(cost.network(topo.distance(src, dst), bytes));
}

void
Tnet::schedule_delivery(Message msg, Tick arrive)
{
    // Delivery executes on the destination cell's timeline: the
    // explicit affinity routes the event to the destination's shard
    // (the cross-shard handoff of the model).
    CellId dst = msg.dst;
    sim.schedule_for(dst, arrive,
                     [this, msg = std::move(msg)]() mutable {
        receiver(std::move(msg));
    });
}

void
Tnet::note_fault(const char *what, MsgKind kind)
{
    if (spans.full())
        spans.instant(obs::machine_track, "fault",
                      std::string(what) + to_string(kind), sim.now());
}

Tick
Tnet::send(Message msg)
{
    if (!topo.valid(msg.src) || !topo.valid(msg.dst))
        panic("send between invalid cells %d -> %d", msg.src, msg.dst);

    int r = sim.shard_of(msg.src);
    SendRow &row = rows[static_cast<std::size_t>(r)];
    TnetStats &st = r == 0 ? netStats : row.stats;
    Tick inject = sim.now();

    // Fail-stop cells neither send nor receive: discard silently so
    // retransmission logic above (or a watchdog) surfaces the loss.
    if (kills.failed_by(msg.src, inject) ||
        kills.failed_by(msg.dst, inject)) {
        ++st.deadCellDrops;
        return inject;
    }

    Tick arrive = inject + latency(msg.src, msg.dst, msg.wire_bytes());

    // Injected latency jitter is added before the FIFO clamp below,
    // so a jitter-only fault plan perturbs timing without ever
    // breaking in-order delivery.
    bool inject_faults = faults.active();
    sim::FaultInjector::SendFaults f;
    if (inject_faults) {
        f = faults.on_send(msg.src);
        arrive += f.jitter;
    }

    // Enforce FIFO per source-destination pair: a later injection may
    // never arrive before an earlier one.
    Tick &last = row.lastArrival[static_cast<std::uint64_t>(msg.src) *
                                     static_cast<std::uint64_t>(
                                         topo.size()) +
                                 static_cast<std::uint64_t>(msg.dst)];
    if (arrive < last)
        arrive = last;
    last = arrive;

    st.messages++;
    st.payloadBytes += msg.payload.size();
    st.wireBytes += msg.wire_bytes();
    st.distance.sample(
        static_cast<std::uint64_t>(topo.distance(msg.src, msg.dst)));
    st.messageSize.sample(msg.payload.size());
    st.latencyUs.sample(
        static_cast<std::uint64_t>(ticks_to_us(arrive - inject)));

    if (inject_faults) {
        using Hold = sim::FaultInjector::HoldKind;
        if (f.drop) {
            // The wire was used (stats above) but nothing arrives.
            // aux=1 marks the flight as lost for the span layer.
            ++st.dropped;
            spans.record(msg.dst, msg.traceId, obs::SpanStage::net,
                         inject, arrive, obs::SpanOp::none, 1);
            note_fault("drop:", msg.kind);
            return arrive;
        }
        if (f.duplicate &&
            faults.try_hold(msg.src, Hold::duplicate, inject, arrive)) {
            ++st.duplicated;
            note_fault("duplicate:", msg.kind);
            schedule_delivery(msg, arrive);
        }
        Tick late =
            arrive + us_to_ticks(sim::FaultPlan::reorder_delay_us);
        if (f.reorder &&
            faults.try_hold(msg.src, Hold::reorder, inject, late)) {
            // Held back past the FIFO clamp already recorded in
            // `last`: later same-pair traffic overtakes this message.
            ++st.reordered;
            note_fault("reorder:", msg.kind);
            spans.record(msg.dst, msg.traceId, obs::SpanStage::net,
                         inject, late);
            schedule_delivery(std::move(msg), late);
            return arrive;
        }
        if (f.corrupt) {
            ++st.corrupted;
            if (!msg.payload.empty())
                msg.payload[f.pick % msg.payload.size()] ^= 0xFF;
            else
                msg.checksum ^= 1;
            note_fault("corrupt:", msg.kind);
        }
    }

    spans.record(msg.dst, msg.traceId, obs::SpanStage::net, inject,
                 arrive);
    schedule_delivery(std::move(msg), arrive);
    return arrive;
}

} // namespace ap::net
