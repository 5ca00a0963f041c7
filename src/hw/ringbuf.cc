#include "hw/ringbuf.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace ap::hw
{

RingBuffer::RingBuffer(sim::Simulator &sim, CellId cell,
                       obs::SpanLayer &spans, std::size_t capacity_bytes)
    : sim(sim), cell(cell), spans(spans), capacityBytes(capacity_bytes)
{
}

void
RingBuffer::deposit(SendRecord rec)
{
    while (usedBytes + rec.payload.size() > capacityBytes) {
        // "If the ring buffer becomes full, the MSC+ interrupts the
        // operating system, which then allocates a new buffer."
        capacityBytes *= 2;
        ++rbStats.growInterrupts;
        spans.instant(cell, "ring", "ring_grow", sim.now());
    }
    usedBytes += rec.payload.size();
    rec.depositedAt = sim.now();
    spans.record(cell, rec.traceId, obs::SpanStage::ring_deposit,
                 rec.depositedAt, rec.depositedAt);
    records.push_back(std::move(rec));
    ++rbStats.deposits;
    rbStats.maxDepth =
        std::max<std::uint64_t>(rbStats.maxDepth, records.size());
    rbStats.maxBytes =
        std::max<std::uint64_t>(rbStats.maxBytes, usedBytes);
    arrival.notify_all();
}

std::optional<std::size_t>
RingBuffer::find(CellId src, std::int32_t tag) const
{
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SendRecord &r = records[i];
        if ((src == any_source || r.src == src) &&
            (tag == any_tag || r.tag == tag))
            return i;
    }
    return std::nullopt;
}

SendRecord
RingBuffer::take(std::size_t index)
{
    SendRecord r = std::move(records[index]);
    records.erase(records.begin() +
                  static_cast<std::ptrdiff_t>(index));
    usedBytes -= r.payload.size();
    // The buffered wait: deposit to the matching RECEIVE/consume.
    spans.record(cell, r.traceId, obs::SpanStage::ring_receive,
                 r.depositedAt, sim.now());
    return r;
}

bool
RingBuffer::try_receive(CellId src, std::int32_t tag, SendRecord &out,
                        bool in_place)
{
    auto hit = find(src, tag);
    if (!hit)
        return false;
    ++rbStats.receives;
    if (in_place)
        ++rbStats.inPlaceReads;
    else
        ++rbStats.copies;
    out = take(*hit);
    return true;
}

} // namespace ap::hw
