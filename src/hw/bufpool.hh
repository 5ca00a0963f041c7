/**
 * @file
 * Payload buffer pool for the message hot path.
 *
 * A PUT/SEND payload is gathered into a vector on the sending cell,
 * rides the message by value (moves only) and dies at the destination
 * after the receive DMA scatters it — one short-lived heap allocation
 * per message. The pool breaks that cycle: send-side gathers acquire
 * a recycled vector with its capacity intact, and the destination
 * releases the buffer after consuming it, so steady-state traffic
 * performs no payload allocations at all.
 *
 * One pool exists per kernel shard (a single machine-wide pool at
 * --threads=1), not per cell: a one-directional flow —
 * every cell PUTting to a fixed partner — recirculates buffers only
 * if the acquire side and the release side share a pool. The pool is
 * deliberately NOT thread-safe: acquires happen inside send events on
 * the owning shard and releases inside receive events on the owning
 * shard, and a shard's events never run concurrently with each other.
 *
 * Cold paths (remote-load replies parked in the token map, spilled
 * commands) keep plain vectors; pooling needs a release point.
 */

#ifndef AP_HW_BUFPOOL_HH
#define AP_HW_BUFPOOL_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace ap::hw
{

/** BufferPool counters, surfaced as sim.alloc.payload.*. */
struct BufferPoolStats
{
    std::uint64_t hits = 0;     ///< acquires served from the freelist
    std::uint64_t misses = 0;   ///< acquires that started empty
    std::uint64_t releases = 0; ///< buffers offered back
    std::uint64_t discards = 0; ///< releases dropped (cap exceeded)
};

/** Freelist of payload vectors with retained capacity. */
class BufferPool
{
  public:
    /** Buffers kept at rest; beyond this, releases are discarded. */
    static constexpr std::size_t max_retained = 64;
    /** Largest capacity worth keeping — a stray giant transfer must
     *  not pin megabytes in the freelist forever. */
    static constexpr std::size_t max_retained_capacity = 256 * 1024;

    /** An empty vector, with recycled capacity when available. */
    std::vector<std::uint8_t>
    acquire()
    {
        if (!freeList.empty()) {
            std::vector<std::uint8_t> b = std::move(freeList.back());
            freeList.pop_back();
            b.clear();
            ++st.hits;
            return b;
        }
        ++st.misses;
        return {};
    }

    /** Offer @p buf back. Capacity-less vectors are ignored (they
     *  carry nothing worth recycling). */
    void
    release(std::vector<std::uint8_t> buf)
    {
        if (buf.capacity() == 0)
            return;
        ++st.releases;
        if (freeList.size() >= max_retained ||
            buf.capacity() > max_retained_capacity) {
            ++st.discards;
            return;
        }
        buf.clear();
        freeList.push_back(std::move(buf));
    }

    const BufferPoolStats &stats() const { return st; }

  private:
    std::vector<std::vector<std::uint8_t>> freeList;
    BufferPoolStats st;
};

} // namespace ap::hw

#endif // AP_HW_BUFPOOL_HH
