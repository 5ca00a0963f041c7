#include "base/mapcache.hh"

#include <malloc.h>
#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "base/logging.hh"

namespace ap
{

namespace
{

/**
 * The heap's policy, fixed for the process. glibc adapts its mmap and
 * trim thresholds to the allocation history, so whether a freed block
 * went back to the kernel depended on what had passed through the
 * heap before: fragmentation from heap-allocated fiber stacks kept a
 * driver's heap from shrinking between runs. Serve every block below
 * glibc's own 32 MB ceiling from the heap and never trim it, so a
 * driver that frees its working set and builds it again reuses
 * resident pages instead of faulting them in anew. The large blocks
 * that churn, DRAM images and fiber stacks, bypass the heap through
 * mapping caches.
 */
[[maybe_unused]] const bool heap_policy = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, -1);
    return true;
}();

} // namespace

MappingCache::MappingCache(Bounds bounds, std::size_t guard)
    : bounds(bounds), guard(guard)
{
}

MappingCache::~MappingCache()
{
    for (const auto &[bytes, list] : parked)
        for (const Parked &m : list)
            unmap(m.ptr, bytes);
}

void *
MappingCache::acquire(std::size_t bytes)
{
    {
        std::lock_guard lock(mu);
        auto it = parked.find(bytes);
        if (it != parked.end() && !it->second.empty()) {
            // Newest first: its pages are the likeliest still in cache.
            Parked m = it->second.back();
            it->second.pop_back();
            --heldCount;
            heldResident -= m.resident;
            hitCount.fetch_add(1, std::memory_order_relaxed);
            return m.ptr;
        }
    }
    missCount.fetch_add(1, std::memory_order_relaxed);
    // Anonymous pages are zero-filled lazily on first touch, so a
    // fresh mapping costs nothing per byte until it is used.
    void *base = ::mmap(nullptr, guard + bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        panic("cannot map %zu bytes: %s", guard + bytes,
              std::strerror(errno));
    if (guard && ::mprotect(base, guard, PROT_NONE) != 0)
        panic("cannot protect a %zu-byte guard: %s", guard,
              std::strerror(errno));
    return static_cast<char *>(base) + guard;
}

void
MappingCache::unmap(void *p, std::size_t bytes) const
{
    ::munmap(static_cast<char *>(p) - guard, guard + bytes);
}

bool
MappingCache::reserve(std::size_t resident)
{
    std::lock_guard lock(mu);
    if (heldCount >= bounds.mappings ||
        heldResident + resident > bounds.resident)
        return false;
    ++heldCount;
    heldResident += resident;
    return true;
}

void
MappingCache::park(void *p, std::size_t bytes, std::size_t resident)
{
    std::lock_guard lock(mu);
    parked[bytes].push_back({p, resident});
}

} // namespace ap
