/**
 * @file
 * MMU and TLB tests: the direct-mapped 256-entry 4 KB / 64-entry
 * 256 KB configuration of the MC (Section 4.1).
 */

#include <gtest/gtest.h>

#include <random>

#include "hw/mmu.hh"

using namespace ap;
using namespace ap::hw;

TEST(Mmu, LinearMapIsIdentity)
{
    Mmu mmu;
    mmu.map_linear(1 << 20);
    for (Addr a : {Addr{0}, Addr{4095}, Addr{4096}, Addr{999999}}) {
        Translation t = mmu.translate(a, false);
        ASSERT_TRUE(t.valid) << a;
        EXPECT_EQ(t.paddr, a);
    }
}

TEST(Mmu, UnmappedAddressFaults)
{
    Mmu mmu;
    mmu.map_linear(1 << 20);
    Translation t = mmu.translate(Addr{1} << 21, false);
    EXPECT_FALSE(t.valid);
    EXPECT_EQ(mmu.stats().faults, 1u);
}

TEST(Mmu, NonIdentityMappingTranslates)
{
    Mmu mmu;
    mmu.map(0x10000, 0x40000);
    Translation t = mmu.translate(0x10123, false);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.paddr, 0x40123u);
}

TEST(Mmu, ReadOnlyPageRejectsWrites)
{
    Mmu mmu;
    mmu.map(0, 0, false, /*writable=*/false);
    EXPECT_TRUE(mmu.translate(0x10, false).valid);
    EXPECT_FALSE(mmu.translate(0x10, true).valid);
    EXPECT_EQ(mmu.stats().faults, 1u);
}

TEST(Mmu, FirstAccessMissesThenHits)
{
    Mmu mmu;
    mmu.map_linear(1 << 20);
    mmu.translate(0x1000, false);
    EXPECT_EQ(mmu.stats().misses, 1u);
    EXPECT_EQ(mmu.stats().hits, 0u);
    mmu.translate(0x1004, false);
    EXPECT_EQ(mmu.stats().misses, 1u);
    EXPECT_EQ(mmu.stats().hits, 1u);
}

TEST(Mmu, DirectMappedConflictEvicts)
{
    Mmu mmu;
    // Two pages whose VPNs collide in the 256-entry direct map.
    Addr a = 0;
    Addr b = Addr{256} << 12;
    mmu.map(a, a);
    mmu.map(b, b);
    mmu.translate(a, false); // miss, fill
    mmu.translate(b, false); // miss, evicts a
    mmu.translate(a, false); // miss again (conflict)
    EXPECT_EQ(mmu.stats().misses, 3u);
    EXPECT_EQ(mmu.stats().hits, 0u);
}

TEST(Mmu, NonConflictingPagesBothHit)
{
    Mmu mmu;
    Addr a = 0;
    Addr b = 1 << 12;
    mmu.map(a, a);
    mmu.map(b, b);
    mmu.translate(a, false);
    mmu.translate(b, false);
    mmu.translate(a, false);
    mmu.translate(b, false);
    EXPECT_EQ(mmu.stats().misses, 2u);
    EXPECT_EQ(mmu.stats().hits, 2u);
}

TEST(Mmu, LargePageCoversWholeRange)
{
    Mmu mmu;
    mmu.map(0, 0, /*large=*/true);
    Translation t = mmu.translate(200000, false); // < 256 KB
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.paddr, 200000u);
    // A single TLB entry serves the whole page: one miss, rest hits.
    mmu.translate(100, false);
    mmu.translate(262143, false);
    EXPECT_EQ(mmu.stats().misses, 1u);
    EXPECT_EQ(mmu.stats().hits, 2u);
}

TEST(Mmu, SmallPageShadowsLargePage)
{
    Mmu mmu;
    mmu.map(0, 0x100000, /*large=*/true);
    mmu.map(0x1000, 0x9000, /*large=*/false);
    // Address in the small page goes through the small mapping.
    Translation t = mmu.peek(0x1234);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.paddr, 0x9234u);
    // Address outside it falls back to the large mapping.
    Translation u = mmu.peek(0x3000);
    ASSERT_TRUE(u.valid);
    EXPECT_EQ(u.paddr, 0x103000u);
}

TEST(Mmu, FlushTlbForcesMisses)
{
    Mmu mmu;
    mmu.map_linear(1 << 16);
    mmu.translate(0, false);
    mmu.translate(0, false);
    EXPECT_EQ(mmu.stats().hits, 1u);
    mmu.flush_tlb();
    mmu.translate(0, false);
    EXPECT_EQ(mmu.stats().misses, 2u);
}

TEST(Mmu, UnmapRemovesTranslation)
{
    Mmu mmu;
    mmu.map(0x2000, 0x2000);
    EXPECT_TRUE(mmu.translate(0x2000, false).valid);
    mmu.unmap(0x2000);
    EXPECT_FALSE(mmu.translate(0x2000, false).valid);
}

TEST(Mmu, PeekDoesNotTouchStats)
{
    Mmu mmu;
    mmu.map_linear(1 << 16);
    mmu.peek(0x100);
    EXPECT_EQ(mmu.stats().hits + mmu.stats().misses, 0u);
}

TEST(MmuDeath, MisalignedMapIsFatal)
{
    Mmu mmu;
    EXPECT_DEATH(mmu.map(0x123, 0), "aligned");
}

// ---------------------------------------------------- remaps and the TLB

TEST(Mmu, RemapToANewFrameDropsTheStaleTlbEntry)
{
    Mmu mmu;
    mmu.map(0x10000, 0x40000);
    EXPECT_EQ(mmu.translate(0x10010, false).paddr, 0x40010u);
    mmu.map(0x10000, 0x80000);
    Translation t = mmu.translate(0x10010, false);
    ASSERT_TRUE(t.valid);
    EXPECT_FALSE(t.tlbHit);
    EXPECT_EQ(t.paddr, 0x80010u);
    EXPECT_EQ(t.paddr, mmu.peek(0x10010).paddr);
    EXPECT_TRUE(mmu.translate(0x10010, false).tlbHit);
}

TEST(Mmu, RemapReadOnlyRejectsWritesAtOnce)
{
    Mmu mmu;
    mmu.map(0x10000, 0x10000);
    EXPECT_TRUE(mmu.translate(0x10010, true).valid);
    mmu.map(0x10000, 0x10000, false, /*writable=*/false);
    EXPECT_FALSE(mmu.translate(0x10010, true).valid);
    EXPECT_EQ(mmu.stats().faults, 1u);
    Translation t = mmu.translate(0x10010, false);
    ASSERT_TRUE(t.valid);
    EXPECT_FALSE(t.writable);
}

TEST(Mmu, SmallPageMappedInsideACachedLargePageShadowsIt)
{
    Mmu mmu;
    mmu.map(0, 0x100000, /*large=*/true);
    EXPECT_EQ(mmu.translate(0x1234, false).paddr, 0x101234u);
    mmu.map(0x1000, 0x9000);
    Translation t = mmu.translate(0x1234, false);
    ASSERT_TRUE(t.valid);
    EXPECT_FALSE(t.tlbHit);
    EXPECT_EQ(t.paddr, 0x9234u);
    // The rest of the large page still translates through it.
    EXPECT_EQ(mmu.translate(0x3000, false).paddr, 0x103000u);
}

TEST(Mmu, LargePageCachedAroundASmallPageDoesNotAnswerForIt)
{
    Mmu mmu;
    mmu.map(0, 0x100000, /*large=*/true);
    mmu.map(0x1000, 0x9000);
    // Cache the large page through an address outside the small one.
    EXPECT_EQ(mmu.translate(0x3000, false).paddr, 0x103000u);
    EXPECT_EQ(mmu.translate(0x1234, false).paddr, 0x9234u);
    EXPECT_EQ(mmu.translate(0x3004, false).paddr, 0x103004u);
    EXPECT_EQ(mmu.translate(0x1238, false).paddr, 0x9238u);
}

TEST(Mmu, RemappedLargePageDropsItsCachedSlices)
{
    Mmu mmu;
    mmu.map(0, 0x100000, /*large=*/true);
    mmu.map(0x1000, 0x9000);
    EXPECT_EQ(mmu.translate(0x3000, false).paddr, 0x103000u);
    mmu.map(0, 0x200000, /*large=*/true);
    EXPECT_EQ(mmu.translate(0x3000, false).paddr, 0x203000u);
    EXPECT_EQ(mmu.translate(0x1234, false).paddr, 0x9234u);
}

TEST(MmuDeath, MappingAboveTheLogicalSpaceIsFatal)
{
    Mmu mmu;
    EXPECT_DEATH(mmu.map(Mmu::logical_bytes, 0), "logical space");
}

// ------------------------------------------------- identity fast path

namespace
{

constexpr std::size_t range_bytes = 3 << 20; // 768 pages

/** An MMU mapping every page of the range one map() at a time. */
void
map_each_page(Mmu &mmu, std::size_t bytes, bool writable)
{
    for (Addr p = 0; p < bytes; p += Addr{1} << Mmu::small_page_bits)
        mmu.map(p, p, false, writable);
}

/**
 * Drive the same seeded access stream through both MMUs and require
 * identical translations and TLB counters after every access. The
 * addresses fall inside the range, around its edge and past it.
 */
void
expect_same_stream(Mmu &a, Mmu &b, std::uint64_t seed, int accesses)
{
    std::mt19937_64 rng(seed);
    for (int i = 0; i < accesses; ++i) {
        Addr va = 0;
        switch (rng() % 4) {
        case 0: // anywhere in the range
        case 1:
            va = rng() % range_bytes;
            break;
        case 2: // within two pages of the edge
            va = range_bytes - 8192 + rng() % 16384;
            break;
        default: // past it, up to 1 MB
            va = range_bytes + rng() % (1 << 20);
            break;
        }
        bool write = rng() % 3 == 0;
        Translation ta = a.translate(va, write);
        Translation tb = b.translate(va, write);
        ASSERT_EQ(ta.valid, tb.valid) << "access " << i << " va " << va;
        ASSERT_EQ(ta.paddr, tb.paddr) << "access " << i;
        ASSERT_EQ(ta.tlbHit, tb.tlbHit) << "access " << i;
        ASSERT_EQ(ta.writable, tb.writable) << "access " << i;
        ASSERT_EQ(a.stats().hits, b.stats().hits) << "access " << i;
        ASSERT_EQ(a.stats().misses, b.stats().misses) << "access " << i;
        ASSERT_EQ(a.stats().faults, b.stats().faults) << "access " << i;
    }
}

} // namespace

TEST(MmuIdentity, LinearMapMatchesPerPageMaps)
{
    Mmu linear, paged;
    linear.map_linear(range_bytes);
    map_each_page(paged, range_bytes, true);
    expect_same_stream(linear, paged, 1, 20000);
}

TEST(MmuIdentity, MatchesAfterUnmapAndRemapInsideTheRange)
{
    Mmu linear, paged;
    linear.map_linear(range_bytes);
    map_each_page(paged, range_bytes, true);
    expect_same_stream(linear, paged, 2, 5000);
    for (Mmu *m : {&linear, &paged}) {
        m->unmap(0x20000);
        m->map(0x21000, 0x7000);
        m->map(0x30000, 0x30000, false, /*writable=*/false);
    }
    expect_same_stream(linear, paged, 3, 20000);
}

TEST(MmuIdentity, ReadOnlyLinearMapMatchesPerPageMaps)
{
    Mmu linear, paged;
    linear.map_linear(range_bytes, /*writable=*/false);
    map_each_page(paged, range_bytes, false);
    expect_same_stream(linear, paged, 4, 20000);
}

TEST(MmuIdentity, MatchesWithALargePageAboveTheRange)
{
    Mmu linear, paged;
    linear.map_linear(range_bytes);
    map_each_page(paged, range_bytes, true);
    for (Mmu *m : {&linear, &paged})
        m->map(range_bytes, 0x1000000, /*large=*/true);
    expect_same_stream(linear, paged, 5, 20000);
}
