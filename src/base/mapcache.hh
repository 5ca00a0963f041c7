/**
 * @file
 * A bounded recycler of anonymous memory mappings.
 *
 * The emulator gives each cell a DRAM image and each fiber a stack,
 * and drivers build thousands of short-lived machines. Both come
 * straight from mmap, never from malloc: glibc raises its dynamic
 * M_MMAP_THRESHOLD when a large block is freed, so later large blocks
 * slide onto the brk heap, which keeps their touched pages resident
 * after free and grows with every machine. A retired mapping is
 * instead parked here, still resident, and the next request of the
 * same size takes it back without a syscall or a page fault. The rest
 * of the heap gets a fixed policy (mapcache.cc).
 */

#ifndef AP_BASE_MAPCACHE_HH
#define AP_BASE_MAPCACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace ap
{

/**
 * Process-wide freelist of read-write anonymous mappings, matched by
 * exact size. Each size has its own list, newest last, so acquire()
 * and release() cost O(1) however many mappings of other sizes are
 * parked.
 *
 * Two bounds limit what stays parked: a count of mappings (each is
 * one kernel VMA) and the bytes they keep resident. A mapping's
 * address space costs nothing until a page is touched, so the byte
 * bound counts what its last user says it touched, not its size: a
 * 16 MB DRAM image with three written pages parks as 12 KB. A page
 * that an earlier user wrote and cleaned stays resident, uncounted.
 *
 * Each user owns one instance, built once and never destroyed (a
 * leaky singleton), so what it parks stays reachable for
 * LeakSanitizer's exit scan and a mapping released during static
 * destruction still finds its cache. Safe to share between threads.
 */
class MappingCache
{
  public:
    /** What the cache keeps parked at most; a release past either
     *  bound unmaps. */
    struct Bounds
    {
        /** Parked mappings, of all sizes together. */
        std::size_t mappings;
        /** Resident bytes of the parked mappings, as release() was
         *  told them. */
        std::size_t resident;
    };

    /**
     * @param bounds retention bounds
     * @param guard bytes of PROT_NONE mapped below every mapping (0
     *        or a multiple of the page size): a stack that overflows
     *        faults instead of overwriting its neighbour
     */
    MappingCache(Bounds bounds, std::size_t guard);

    /** Unmaps what is parked. */
    ~MappingCache();

    MappingCache(const MappingCache &) = delete;
    MappingCache &operator=(const MappingCache &) = delete;

    /** @return @p bytes of read-write memory: the newest parked
     *  mapping of exactly that size (its contents as its last user
     *  left them), or a fresh zero-filled one. Panics when the
     *  kernel refuses. */
    void *acquire(std::size_t bytes);

    /**
     * Give back @p p, which acquire(@p bytes) returned, with
     * @p resident of its bytes touched. When the bounds have room
     * for one more mapping and @p resident more bytes, @p clean runs
     * first, outside the lock, and must leave the bytes as the next
     * user may see them; then @p p is parked. Otherwise @p p is
     * unmapped and @p clean never runs.
     */
    template <typename Clean>
    void
    release(void *p, std::size_t bytes, std::size_t resident,
            Clean &&clean)
    {
        if (!reserve(resident)) {
            unmap(p, bytes);
            return;
        }
        clean();
        park(p, bytes, resident);
    }

    /** acquire() calls served from a parked mapping. */
    std::uint64_t
    hits() const
    {
        return hitCount.load(std::memory_order_relaxed);
    }

    /** acquire() calls that mapped fresh memory. */
    std::uint64_t
    misses() const
    {
        return missCount.load(std::memory_order_relaxed);
    }

  private:
    /** Unmap @p p (from acquire(@p bytes)) for good. */
    void unmap(void *p, std::size_t bytes) const;
    /** Claim room for one parked mapping keeping @p resident bytes. */
    bool reserve(std::size_t resident);
    /** Park @p p into the room reserve(@p resident) claimed. */
    void park(void *p, std::size_t bytes, std::size_t resident);

    struct Parked
    {
        void *ptr;
        std::size_t resident;
    };

    const Bounds bounds;
    const std::size_t guard;
    std::mutex mu;
    /** Parked mappings by size, each list newest last. */
    std::unordered_map<std::size_t, std::vector<Parked>> parked;
    /** Parked plus reserved: the quantities the bounds limit. */
    std::size_t heldCount = 0;
    std::size_t heldResident = 0;
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> missCount{0};
};

} // namespace ap

#endif // AP_BASE_MAPCACHE_HH
