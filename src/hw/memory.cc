#include "hw/memory.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"
#include "base/mapcache.hh"

namespace ap::hw
{

namespace
{

/** Retired images, all-zero. The mapping bound holds every image of
 *  several machine shapes built in turn (4,032 images for 64, 256
 *  and 1024 cells at 1, 4 and 16 MB each), one VMA each, far below
 *  the kernel's default vm.max_map_count of 65,530. The byte bound
 *  caps the written pages those images keep resident. */
MappingCache &
image_cache()
{
    static auto *cache = new MappingCache(
        {.mappings = 8192, .resident = std::size_t{512} << 20}, 0);
    return *cache;
}

} // namespace

std::uint64_t
CellMemory::image_cache_hits()
{
    return image_cache().hits();
}

std::uint64_t
CellMemory::image_cache_misses()
{
    return image_cache().misses();
}

CellMemory::CellMemory(std::size_t bytes)
    : numBytes(bytes),
      data(static_cast<std::uint8_t *>(image_cache().acquire(bytes))),
      written((bytes >> page_shift) / 64 + 1)
{
}

CellMemory::~CellMemory()
{
    image_cache().release(data, numBytes, written_bytes(),
                          [this] { zero_written(); });
}

std::size_t
CellMemory::written_bytes() const
{
    std::size_t pages = 0;
    for (std::uint64_t bits : written)
        pages += static_cast<std::size_t>(std::popcount(bits));
    return pages << page_shift;
}

void
CellMemory::zero_written()
{
    constexpr std::size_t page = std::size_t{1} << page_shift;
    for (std::size_t w = 0; w < written.size(); ++w) {
        for (std::uint64_t bits = written[w]; bits; bits &= bits - 1) {
            std::size_t at = (w * 64 + std::countr_zero(bits)) * page;
            std::memset(data + at, 0, std::min(page, numBytes - at));
        }
        written[w] = 0;
    }
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
    // Unwritten pages already read zero.
    zero_written();
}

} // namespace ap::hw
