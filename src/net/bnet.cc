#include "net/bnet.hh"

#include <algorithm>
#include <utility>

namespace ap::net
{

Bnet::Bnet(sim::Simulator &sim, int cells, const mlsim::Params &costs,
           obs::SpanLayer &spans)
    : sim(sim), numCells(cells), costs(costs), spans(spans)
{
}

void
Bnet::broadcast(Message msg)
{
    Tick issued = sim.now();
    sim.schedule_for(-1, issued + us_to_ticks(costs.bnet_prolog_time),
                     [this, issued, msg = std::move(msg)]() mutable {
                         arbitrate(std::move(msg), issued);
                     });
}

void
Bnet::arbitrate(Message msg, Tick issued)
{
    Tick start = std::max(issued, busyUntil);
    Tick occupy = us_to_ticks(
        costs.bnet_prolog_time +
        costs.bnet_msg_time * static_cast<double>(msg.wire_bytes()));
    Tick arrive = start + occupy;
    busyUntil = arrive;
    ++netStats.broadcasts;
    netStats.payloadBytes += msg.payload.size();
    netStats.wireBytes += msg.wire_bytes();
    netStats.occupancyUs.sample(
        static_cast<std::uint64_t>(ticks_to_us(occupy)));
    spans.record(-1, msg.traceId, obs::SpanStage::net, start, arrive);

    for (CellId id = 0; id < numCells; ++id) {
        if (id == msg.src)
            continue;
        Message copy = msg;
        copy.dst = id;
        // Each receiving cell's copy lands on that cell's shard.
        sim.schedule_for(id, arrive,
                         [this, copy = std::move(copy)]() mutable {
            receiver(std::move(copy));
        });
    }
}

} // namespace ap::net
