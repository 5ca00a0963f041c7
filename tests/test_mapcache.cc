/**
 * @file
 * Unit tests of the mapping cache and of the DRAM image recycling it
 * backs: exact-size reuse from one list per size, retention bounds on
 * mappings and on resident bytes, the guard page, and a teardown that
 * zeroes only the pages a cell wrote.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/mapcache.hh"
#include "hw/memory.hh"

using namespace ap;

namespace
{

constexpr std::size_t page = 4096;

long
minor_faults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

/** @return true when every byte of @p mem reads zero. */
bool
all_zero(const hw::CellMemory &mem)
{
    std::vector<std::uint8_t> buf(1 << 16);
    for (std::size_t at = 0; at < mem.size(); at += buf.size()) {
        std::span<std::uint8_t> chunk(buf.data(),
                                      std::min(buf.size(),
                                               mem.size() - at));
        mem.read(at, chunk);
        for (std::uint8_t b : chunk)
            if (b != 0)
                return false;
    }
    return true;
}

} // namespace

TEST(MappingCache, RecyclesExactSizesOnly)
{
    MappingCache cache({.mappings = 4, .resident = 64 * page}, 0);
    void *a = cache.acquire(4 * page);
    static_cast<char *>(a)[0] = 7;
    cache.release(a, 4 * page, page, [] {});
    EXPECT_EQ(cache.misses(), 1u);

    // Another size maps fresh; the same size gets the parked mapping
    // back, contents as its last user left them.
    void *b = cache.acquire(8 * page);
    EXPECT_EQ(cache.misses(), 2u);
    void *c = cache.acquire(4 * page);
    EXPECT_EQ(c, a);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(static_cast<char *>(c)[0], 7);
    cache.release(b, 8 * page, 0, [] {});
    cache.release(c, 4 * page, page, [] {});
}

TEST(MappingCache, InterleavedSizesGetTheirOwnNewest)
{
    MappingCache cache({.mappings = 8, .resident = 64 * page}, 0);
    void *small[2], *large[2];
    for (int i = 0; i < 2; ++i) {
        small[i] = cache.acquire(page);
        large[i] = cache.acquire(16 * page);
    }
    // Parked in turn: small 0, large 0, small 1, large 1.
    for (int i = 0; i < 2; ++i) {
        cache.release(small[i], page, 0, [] {});
        cache.release(large[i], 16 * page, 0, [] {});
    }
    // Each size hands back its own mappings, newest first, whatever
    // the other size parked in between.
    EXPECT_EQ(cache.acquire(16 * page), large[1]);
    EXPECT_EQ(cache.acquire(page), small[1]);
    EXPECT_EQ(cache.acquire(page), small[0]);
    EXPECT_EQ(cache.acquire(16 * page), large[0]);
    EXPECT_EQ(cache.hits(), 4u);
    EXPECT_EQ(cache.misses(), 4u);
    for (int i = 0; i < 2; ++i) {
        cache.release(small[i], page, 0, [] {});
        cache.release(large[i], 16 * page, 0, [] {});
    }
}

TEST(MappingCache, CleansOnlyWhatItParks)
{
    MappingCache cache({.mappings = 2, .resident = 64 * page}, 0);
    std::vector<void *> maps;
    for (int i = 0; i < 3; ++i)
        maps.push_back(cache.acquire(page));
    int cleaned = 0;
    for (void *p : maps)
        cache.release(p, page, page, [&] { ++cleaned; });
    // The third release is past the mapping bound: unmapped, never
    // cleaned.
    EXPECT_EQ(cleaned, 2);
    for (int i = 0; i < 3; ++i)
        maps[static_cast<std::size_t>(i)] = cache.acquire(page);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 4u);
    for (std::size_t i = 0; i < maps.size(); ++i)
        cache.release(maps[i], page, page, [] {});
}

TEST(MappingCache, ByteBoundCountsResidentBytes)
{
    MappingCache cache({.mappings = 8, .resident = 64 * page}, 0);
    void *a = cache.acquire(48 * page);
    void *b = cache.acquire(32 * page);
    void *c = cache.acquire(32 * page);
    int cleaned = 0;
    // 48 resident pages parked leave room for 16: a release keeping
    // 17 is unmapped and never cleaned, one keeping 16 fits exactly.
    cache.release(a, 48 * page, 48 * page, [&] { ++cleaned; });
    cache.release(b, 32 * page, 17 * page, [&] { ++cleaned; });
    EXPECT_EQ(cleaned, 1);
    cache.release(c, 32 * page, 16 * page, [&] { ++cleaned; });
    EXPECT_EQ(cleaned, 2);
    EXPECT_EQ(cache.acquire(32 * page), c);
    EXPECT_EQ(cache.acquire(48 * page), a);
    EXPECT_EQ(cache.hits(), 2u);
    cache.release(a, 48 * page, 48 * page, [] {});
    cache.release(c, 32 * page, 16 * page, [] {});
}

TEST(MappingCache, MappingLargerThanTheBudgetParksWhenBarelyTouched)
{
    // 256 pages of address space against a 4-page budget: what it
    // keeps resident decides, not its size.
    MappingCache cache({.mappings = 2, .resident = 4 * page}, 0);
    void *big = cache.acquire(256 * page);
    static_cast<char *>(big)[0] = 1;
    int cleaned = 0;
    cache.release(big, 256 * page, page, [&] {
        static_cast<char *>(big)[0] = 0;
        ++cleaned;
    });
    EXPECT_EQ(cleaned, 1);
    EXPECT_EQ(cache.acquire(256 * page), big);
    EXPECT_EQ(cache.hits(), 1u);
    cache.release(big, 256 * page, page, [] {});
}

TEST(MappingCacheDeathTest, GuardPageBelowEveryMapping)
{
    MappingCache cache({.mappings = 1, .resident = page}, page);
    auto *p = static_cast<volatile char *>(cache.acquire(page));
    p[0] = 1;
    p[page - 1] = 1;
    EXPECT_DEATH(p[-1] = 1, "");
    cache.release(const_cast<char *>(p), page, page, [] {});
}

TEST(CellMemory, TeardownZeroesOnlyWrittenPages)
{
    // A size no other test here uses, so the image is a fresh mapping
    // whose unwritten pages were never faulted in.
    constexpr std::size_t bytes = 4 << 20;
    std::uint64_t miss0 = hw::CellMemory::image_cache_misses();
    long during = 0;
    {
        auto mem = std::make_unique<hw::CellMemory>(bytes);
        EXPECT_EQ(hw::CellMemory::image_cache_misses(), miss0 + 1);
        mem->write_u64(0, ~0ull);
        mem->write_u64(bytes - 8, ~0ull);
        long before = minor_faults();
        mem.reset();
        during = minor_faults() - before;
    }
    // Zeroing the whole span between the two words would fault in
    // its 1022 untouched pages.
    EXPECT_LT(during, 16);

    std::uint64_t hits0 = hw::CellMemory::image_cache_hits();
    hw::CellMemory again(bytes);
    EXPECT_EQ(hw::CellMemory::image_cache_hits(), hits0 + 1);
    EXPECT_TRUE(all_zero(again));

    // clear() also leaves all-zero, and the next teardown has nothing
    // left to zero.
    std::vector<std::uint8_t> ones(3 * page + 5, 0xff);
    again.write(page - 3, ones);
    again.write_u32(bytes / 2, 0xdeadbeef);
    again.write_f64(bytes - 8, 1.5);
    EXPECT_FALSE(all_zero(again));
    again.clear();
    EXPECT_TRUE(all_zero(again));
}
