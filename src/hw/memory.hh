/**
 * @file
 * Per-cell DRAM model.
 *
 * The functional machine moves real bytes, so each cell owns a flat
 * physical memory image. All accesses are bounds-checked; an
 * out-of-range physical access is a simulator bug (the MMU is in
 * charge of rejecting bad logical addresses first).
 */

#ifndef AP_HW_MEMORY_HH
#define AP_HW_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "base/types.hh"

namespace ap::hw
{

/**
 * Flat byte-addressable physical memory of one cell.
 *
 * The image is an anonymous mapping from a process-wide
 * MappingCache. The write accessors mark every 4 KB page they touch
 * in a bitmap, so each unmarked page still reads zero. The destructor
 * tells the cache the marked pages are what the image keeps resident,
 * and zeroes only them, only when the cache parks the image for the
 * next same-size CellMemory; an image the cache has no room for is
 * unmapped as it is. Drivers that build thousands of short-lived
 * machines (stress harnesses, micro-benchmarks) therefore pay for the
 * pages a run wrote, not for the DRAM capacity: no memset at
 * construction, none of unwritten pages at teardown, and a machine
 * rebuilt in a shape seen before maps, faults and unmaps nothing.
 */
class CellMemory
{
  public:
    /** @param bytes capacity of the DRAM image. */
    explicit CellMemory(std::size_t bytes);
    ~CellMemory();

    /** Process-wide image-cache hits (recycled DRAM images). */
    static std::uint64_t image_cache_hits();

    /** Process-wide image-cache misses (freshly mapped images). */
    static std::uint64_t image_cache_misses();

    CellMemory(const CellMemory &) = delete;
    CellMemory &operator=(const CellMemory &) = delete;

    /** Capacity in bytes. */
    std::size_t size() const { return numBytes; }

    /** Copy @p buf.size() bytes into memory at physical @p addr. */
    void write(Addr addr, std::span<const std::uint8_t> buf);

    /** Copy @p buf.size() bytes out of memory at physical @p addr. */
    void read(Addr addr, std::span<std::uint8_t> buf) const;

    /** Read a little-endian 32-bit word. */
    std::uint32_t read_u32(Addr addr) const;

    /** Write a little-endian 32-bit word. */
    void write_u32(Addr addr, std::uint32_t value);

    /** Read a little-endian 64-bit word. */
    std::uint64_t read_u64(Addr addr) const;

    /** Write a little-endian 64-bit word. */
    void write_u64(Addr addr, std::uint64_t value);

    /** Read a double (8 bytes). */
    double read_f64(Addr addr) const;

    /** Write a double (8 bytes). */
    void write_f64(Addr addr, double value);

    /** Atomic-in-simulation fetch-and-increment of a 32-bit word. */
    std::uint32_t fetch_increment_u32(Addr addr);

    /** Zero-fill the whole image. */
    void clear();

  private:
    /** Granule of the written-page bitmap: the host page. */
    static constexpr unsigned page_shift = 12;

    void check(Addr addr, std::size_t len) const;

    /** Mark the pages [addr, addr+len) overlaps as written. Called
     *  by every mutating accessor after check(). */
    void
    touch(Addr addr, std::size_t len)
    {
        if (len == 0)
            return;
        std::size_t last = (addr + len - 1) >> page_shift;
        for (std::size_t p = addr >> page_shift; p <= last; ++p)
            written[p / 64] |= std::uint64_t{1} << (p % 64);
    }

    /** Bytes of the written pages: what the image keeps resident
     *  beyond what an earlier user left. */
    std::size_t written_bytes() const;

    /** Zero the written pages and unmark them: the image reads
     *  all-zero again. */
    void zero_written();

    std::size_t numBytes;
    std::uint8_t *data;
    /** One bit per page, set once an accessor writes into it. */
    std::vector<std::uint64_t> written;
};

} // namespace ap::hw

#endif // AP_HW_MEMORY_HH
