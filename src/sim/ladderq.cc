#include "sim/ladderq.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ap::sim
{

namespace
{

/** a + b clamped to the tick horizon. */
Tick
sat_add(Tick a, Tick b)
{
    return a > max_tick - b ? max_tick : a + b;
}

/** Strict (when, seq) order — the kernel's total event order. */
bool
earlier(const EventNode *a, const EventNode *b)
{
    if (a->when != b->when)
        return a->when < b->when;
    return a->seq < b->seq;
}

/** Heap comparator: std::*_heap keep the "largest" at the top, so
 *  inverting `earlier` yields a min-heap on (when, seq). */
struct HeapLater
{
    bool
    operator()(const EventNode *a, const EventNode *b) const
    {
        return earlier(b, a);
    }
};

} // namespace

LadderQueue::LadderQueue()
{
    buckets.assign(num_buckets, nullptr);
    front.reserve(64);
}

LadderQueue::~LadderQueue()
{
    clear();
}

void
LadderQueue::heap_push(std::vector<EventNode *> &heap, EventNode *n)
{
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), HeapLater{});
}

EventNode *
LadderQueue::heap_pop(std::vector<EventNode *> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), HeapLater{});
    EventNode *n = heap.back();
    heap.pop_back();
    return n;
}

EventNode *
LadderQueue::push(Tick when, std::uint64_t seq, int affinity,
                  EventFn &&fn)
{
    // max_tick is the kernel-wide "nothing pending" sentinel (the
    // parallel run loop already treats it as queue-empty), so an
    // event AT the horizon was never executable; refuse it loudly.
    if (when == max_tick)
        panic("event scheduled at the tick horizon");
    EventNode *n = pool.acquire(when, seq, affinity, std::move(fn));
    ++numEvents;

    if (front.empty() && ringCount == 0 && overflow.empty()) {
        // Empty queue, tombstones gone too: re-anchor the whole
        // geometry at this event so a long-idle queue never funnels a
        // new burst through stale bucket bounds.
        front.push_back(n);
        frontEnd = sat_add(when, 1);
        bucketBase = frontEnd;
        nextBucket = 0;
        return n;
    }

    if (when < frontEnd) {
        heap_push(front, n);
        return n;
    }

    if (nextBucket < num_buckets) {
        Tick off = when - bucketBase;
        Tick b = off >> wShift;
        if (b < static_cast<Tick>(num_buckets)) {
            auto &head = buckets[static_cast<std::size_t>(b)];
            n->next = head;
            head = n;
            ++ringCount;
            return n;
        }
    }
    heap_push(overflow, n);
    return n;
}

EventNode *
LadderQueue::materialize()
{
    while (front.empty() || !front.front()->live) {
        if (!front.empty()) {
            pool.release(heap_pop(front)); // a tombstone: drop it unseen
            continue;
        }
        if (ringCount > 0) {
            while (buckets[static_cast<std::size_t>(nextBucket)] ==
                   nullptr)
                ++nextBucket; // ringCount > 0 guarantees termination
            EventNode *chain =
                buckets[static_cast<std::size_t>(nextBucket)];
            buckets[static_cast<std::size_t>(nextBucket)] = nullptr;
            ++nextBucket;
            frontEnd = sat_add(
                bucketBase,
                static_cast<Tick>(nextBucket) << wShift);
            std::size_t took = 0;
            while (chain) {
                EventNode *next = chain->next;
                chain->next = nullptr;
                front.push_back(chain);
                ++took;
                chain = next;
            }
            ringCount -= took;
            std::make_heap(front.begin(), front.end(), HeapLater{});
            continue;
        }
        nextBucket = num_buckets;
        if (overflow.empty())
            return nullptr;
        rebase();
    }
    return front.front();
}

void
LadderQueue::rebase()
{
    // Ring and front are empty; carve the overflow's near edge into
    // fresh buckets. First re-derive the bucket width from observed
    // density: aim for ~8 events per bucket given the average
    // inter-event gap seen since the last rebase.
    Tick newBase = overflow.front()->when;
    if (drainedSinceRebase >= 64 && newBase > lastRebaseBase) {
        Tick gap = (newBase - lastRebaseBase) / drainedSinceRebase;
        unsigned shift = 0;
        while (shift < 13 && (static_cast<Tick>(1) << shift) < gap + 1)
            ++shift;
        // 2^shift ≈ the average inter-event gap; widen by 8x so a
        // bucket holds ~8 events.
        wShift = shift + 3;
    }
    drainedSinceRebase = 0;
    lastRebaseBase = newBase;

    bucketBase = newBase;
    frontEnd = newBase;
    nextBucket = 0;
    Tick span = static_cast<Tick>(num_buckets) << wShift;
    Tick ringEnd = sat_add(bucketBase, span);
    while (!overflow.empty() &&
           (ringEnd == max_tick || overflow.front()->when < ringEnd)) {
        EventNode *n = heap_pop(overflow);
        // When ringEnd saturated, the far tail clamps into the last
        // bucket — still ordered, since that bucket drains last and
        // its contents sort in the front heap.
        Tick b = std::min<Tick>((n->when - bucketBase) >> wShift,
                                num_buckets - 1);
        auto &head = buckets[static_cast<std::size_t>(b)];
        n->next = head;
        head = n;
        ++ringCount;
    }
}

EventNode *
LadderQueue::pop(Tick end)
{
    EventNode *top = materialize();
    if (!top || top->when >= end)
        return nullptr;
    EventNode *n = heap_pop(front);
    n->live = false;
    --numEvents;
    ++drainedSinceRebase;
    return n;
}

void
LadderQueue::clear()
{
    for (EventNode *n : front)
        pool.release(n);
    front.clear();
    for (auto &head : buckets) {
        while (head) {
            EventNode *next = head->next;
            pool.release(head);
            head = next;
        }
    }
    ringCount = 0;
    for (EventNode *n : overflow)
        pool.release(n);
    overflow.clear();
    numEvents = 0;
    nextBucket = num_buckets;
}

} // namespace ap::sim
