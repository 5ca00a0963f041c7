#include "hw/memory.hh"

#if defined(__linux__) || defined(__APPLE__)
#include <sys/mman.h>
#define AP_HW_MEMORY_HAVE_MMAP 1
#endif

#include <atomic>
#include <mutex>
#include <vector>

#include "base/logging.hh"

namespace ap::hw
{

namespace
{

// Images at or above this size come straight from mmap. malloc's own
// mmap threshold is dynamic (glibc raises it after large frees), so a
// program that builds machines repeatedly would silently fall back to
// heap memory where calloc must memset the whole image. Going to the
// kernel directly keeps the first construction O(1): anonymous pages
// are zero-filled lazily on first touch.
constexpr std::size_t mmap_threshold = 256 * 1024;

struct FreeImage
{
    std::uint8_t *ptr;
    std::size_t bytes;
    std::size_t mapBytes;
};

/**
 * Process-wide cache of retired DRAM images, already zeroed by the
 * donating CellMemory destructor. Recycling keeps the pages resident
 * across machine rebuilds: a stress loop that constructs thousands of
 * short-lived machines neither memsets full-capacity images nor
 * re-faults fresh anonymous mappings every iteration — it pays only
 * for the span each cell actually dirtied. Exact-size matching keeps
 * the logic trivial; mixed-size workloads just miss and map fresh.
 *
 * The mutex is uncontended in practice (machines are built and torn
 * down from one thread); it only guards against concurrent machine
 * construction in multi-machine tests.
 *
 * Leaky singleton: never destroyed, so the parked images stay
 * reachable for LeakSanitizer's exit-time scan, and a CellMemory
 * outliving static destruction still finds the cache.
 */
class ImageCache
{
  public:
    static ImageCache &
    instance()
    {
        static auto *cache = new ImageCache;
        return *cache;
    }

    bool
    pop(std::size_t bytes, FreeImage &out)
    {
        std::lock_guard lock(mu);
        for (std::size_t i = images.size(); i-- > 0;) {
            if (images[i].bytes != bytes)
                continue;
            out = images[i];
            images.erase(images.begin() +
                         static_cast<std::ptrdiff_t>(i));
            totalBytes -= bytes;
            return true;
        }
        return false;
    }

    /** @return false when full; the caller frees the image. */
    bool
    push(FreeImage img)
    {
        std::lock_guard lock(mu);
        if (images.size() >= max_images ||
            totalBytes + img.bytes > max_total_bytes)
            return false;
        images.push_back(img);
        totalBytes += img.bytes;
        return true;
    }

  private:
    /** Retention caps: enough for the biggest churn patterns (a few
     *  small machines rebuilt in a loop) without pinning the RSS of
     *  one large run's worth of cells forever. */
    static constexpr std::size_t max_images = 64;
    static constexpr std::size_t max_total_bytes =
        512ull * 1024 * 1024;

    std::mutex mu;
    std::vector<FreeImage> images;
    std::size_t totalBytes = 0;
};

std::atomic<std::uint64_t> cacheHits{0};
std::atomic<std::uint64_t> cacheMisses{0};

std::uint8_t *
alloc_image(std::size_t bytes, std::size_t &mapBytes)
{
    mapBytes = 0;
#ifdef AP_HW_MEMORY_HAVE_MMAP
    if (bytes >= mmap_threshold) {
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) {
            mapBytes = bytes;
            return static_cast<std::uint8_t *>(p);
        }
        // Fall through to calloc on mmap failure.
    }
#endif
    return static_cast<std::uint8_t *>(
        std::calloc(bytes ? bytes : 1, 1));
}

void
free_image(std::uint8_t *ptr, std::size_t mapBytes)
{
#ifdef AP_HW_MEMORY_HAVE_MMAP
    if (mapBytes) {
        ::munmap(ptr, mapBytes);
        return;
    }
#endif
    std::free(ptr);
}

} // namespace

std::uint64_t
CellMemory::image_cache_hits()
{
    return cacheHits.load(std::memory_order_relaxed);
}

std::uint64_t
CellMemory::image_cache_misses()
{
    return cacheMisses.load(std::memory_order_relaxed);
}

CellMemory::CellMemory(std::size_t bytes) : numBytes(bytes)
{
    FreeImage img;
    if (ImageCache::instance().pop(bytes, img)) {
        cacheHits.fetch_add(1, std::memory_order_relaxed);
        data = img.ptr;
        mapBytes = img.mapBytes;
        return;
    }
    cacheMisses.fetch_add(1, std::memory_order_relaxed);
    data = alloc_image(bytes, mapBytes);
    if (!data)
        panic("cannot allocate %zu-byte DRAM image", bytes);
}

CellMemory::~CellMemory()
{
    // Zero exactly the dirty span so the cached image is
    // indistinguishable from a fresh zero-filled mapping.
    if (dirtyHi > dirtyLo)
        std::memset(data + dirtyLo, 0, dirtyHi - dirtyLo);
    if (!ImageCache::instance().push({data, numBytes, mapBytes}))
        free_image(data, mapBytes);
}

void
CellMemory::check(Addr addr, std::size_t len) const
{
    if (addr + len > numBytes || addr + len < addr)
        panic("physical access [%#llx, +%zu) beyond %zu-byte DRAM",
              static_cast<unsigned long long>(addr), len, numBytes);
}

void
CellMemory::write(Addr addr, std::span<const std::uint8_t> buf)
{
    check(addr, buf.size());
    touch(addr, buf.size());
    std::memcpy(data + addr, buf.data(), buf.size());
}

void
CellMemory::read(Addr addr, std::span<std::uint8_t> buf) const
{
    check(addr, buf.size());
    std::memcpy(buf.data(), data + addr, buf.size());
}

std::uint32_t
CellMemory::read_u32(Addr addr) const
{
    check(addr, 4);
    std::uint32_t v;
    std::memcpy(&v, data + addr, 4);
    return v;
}

void
CellMemory::write_u32(Addr addr, std::uint32_t value)
{
    check(addr, 4);
    touch(addr, 4);
    std::memcpy(data + addr, &value, 4);
}

std::uint64_t
CellMemory::read_u64(Addr addr) const
{
    check(addr, 8);
    std::uint64_t v;
    std::memcpy(&v, data + addr, 8);
    return v;
}

void
CellMemory::write_u64(Addr addr, std::uint64_t value)
{
    check(addr, 8);
    touch(addr, 8);
    std::memcpy(data + addr, &value, 8);
}

double
CellMemory::read_f64(Addr addr) const
{
    check(addr, 8);
    double v;
    std::memcpy(&v, data + addr, 8);
    return v;
}

void
CellMemory::write_f64(Addr addr, double value)
{
    check(addr, 8);
    touch(addr, 8);
    std::memcpy(data + addr, &value, 8);
}

std::uint32_t
CellMemory::fetch_increment_u32(Addr addr)
{
    std::uint32_t v = read_u32(addr);
    write_u32(addr, v + 1);
    return v;
}

void
CellMemory::clear()
{
    std::memset(data, 0, numBytes);
    // The image is all-zero again: the dirty span collapses, so a
    // subsequent destructor does no redundant work.
    dirtyLo = static_cast<std::size_t>(-1);
    dirtyHi = 0;
}

} // namespace ap::hw
