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
#include <vector>

namespace ap
{

/**
 * Process-wide freelist of read-write anonymous mappings, matched by
 * exact size. Each user owns one instance, built once and never
 * destroyed (a leaky singleton), so what it parks stays reachable
 * for LeakSanitizer's exit scan and a mapping released during static
 * destruction still finds its cache. Safe to share between threads.
 */
class MappingCache
{
  public:
    /** What the cache keeps parked at most; a release past either
     *  bound unmaps. */
    struct Bounds
    {
        std::size_t mappings;
        std::size_t bytes;
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

    /** @return @p bytes of read-write memory: a parked mapping of
     *  exactly that size (its contents as its last user left them),
     *  or a fresh zero-filled one. Panics when the kernel refuses. */
    void *acquire(std::size_t bytes);

    /**
     * Give back @p p, which acquire(@p bytes) returned. When the cache
     * has room, @p clean runs first, outside the lock, and must leave
     * the bytes as the next user may see them; then @p p is parked.
     * Otherwise @p p is unmapped and @p clean never runs.
     */
    template <typename Clean>
    void
    release(void *p, std::size_t bytes, Clean &&clean)
    {
        if (!reserve(bytes)) {
            unmap(p, bytes);
            return;
        }
        clean();
        park(p, bytes);
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
    /** Claim room for one parked mapping of @p bytes. */
    bool reserve(std::size_t bytes);
    /** Park @p p into the room reserve() claimed. */
    void park(void *p, std::size_t bytes);

    struct Parked
    {
        void *ptr;
        std::size_t bytes;
    };

    const Bounds bounds;
    const std::size_t guard;
    std::mutex mu;
    std::vector<Parked> parked;
    /** Parked plus reserved: the quantities the bounds limit. */
    std::size_t heldCount = 0;
    std::size_t heldBytes = 0;
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> missCount{0};
};

} // namespace ap

#endif // AP_BASE_MAPCACHE_HH
