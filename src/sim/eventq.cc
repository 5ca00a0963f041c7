#include "sim/eventq.hh"

#include <utility>

#include "base/logging.hh"

namespace ap::sim
{

std::string
TickHistory::digest() const
{
    std::string out = strprintf(
        "events=%llu hash=%#llx",
        static_cast<unsigned long long>(numEvents),
        static_cast<unsigned long long>(hash()));
    if (wasTruncated)
        out += strprintf(
            " log=truncated(%zu of %llu kept)", logBuf.size(),
            static_cast<unsigned long long>(numEvents));
    return out;
}

std::uint64_t
Simulator::take_key(std::vector<std::uint64_t> &counters,
                    std::uint64_t source)
{
    if (source >= counters.size())
        counters.resize(source + 1, 0);
    std::uint64_t seq = counters[source]++;
    if (seq >> key_seq_bits)
        panic("event source %llu ran out of sequence numbers",
              static_cast<unsigned long long>(source));
    return event_key(source, seq);
}

std::uint64_t
Simulator::next_key()
{
    return take_key(sourceSeq, currentSource);
}

void
Simulator::schedule(Tick when, EventFn fn)
{
    push(currentAffinity, when, take_key(sourceSeq, currentSource),
         std::move(fn));
}

void
Simulator::schedule_for(int affinity, Tick when, EventFn fn)
{
    push(affinity, when, take_key(sourceSeq, currentSource),
         std::move(fn));
}

void
Simulator::schedule_keyed(int affinity, Tick when, std::uint64_t key,
                          EventFn fn)
{
    push(affinity, when, key, std::move(fn));
}

void
Simulator::push(int affinity, Tick when, std::uint64_t key, EventFn fn)
{
    if (when < currentTick)
        panic("scheduling event in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    queue.push(when, key, affinity, std::move(fn));
}

bool
Simulator::step()
{
    EventNode *n = queue.pop();
    if (!n)
        return false;
    currentTick = n->when;
    currentAffinity = n->affinity;
    currentSource = source_of(n->affinity);
    ++numExecuted;
    if (history)
        history->record(n->when, n->affinity);
    // Recycle the node and leave the event even if the handler
    // throws (CommError from machine code unwinds through here); the
    // handler may schedule new events, which is safe — the node is
    // off the queue already.
    struct Leave
    {
        Simulator &s;
        EventNode *n;
        ~Leave()
        {
            s.queue.release(n);
            s.currentAffinity = 0;
            s.currentSource = outside_source;
        }
    } leave{*this, n};
    n->fn();
    return true;
}

Tick
Simulator::run()
{
    while (step()) {
    }
    return currentTick;
}

Tick
Simulator::run_until(Tick limit)
{
    while (!queue.empty() && queue.min_when() <= limit)
        step();
    return currentTick;
}

SimAllocStats
Simulator::alloc_stats() const
{
    const EventPoolStats &p = queue.pool_stats();
    SimAllocStats s;
    s.poolHits = p.hits;
    s.poolMisses = p.misses;
    s.poolBlocks = p.blocks;
    s.fnHeap = eventfn_heap_allocs();
    return s;
}

} // namespace ap::sim
