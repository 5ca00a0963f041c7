/**
 * @file
 * Machine churn: building and destroying machines of mixed shapes
 * in a loop must not grow the resident set, and once every shape has
 * been built, a rebuild must map no DRAM image and take almost no
 * page faults. DRAM images and fiber stacks come from bounded mapping
 * caches; a stack or image that slid onto the malloc heap would leave
 * its pages behind with every machine, and one the cache could not
 * hold would be mapped and faulted in anew.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/ap1000p.hh"
#include "hw/memory.hh"

using namespace ap;
using namespace ap::core;

namespace
{

/** This process's resident set in MB (VmRSS), -1 if unreadable. */
double
resident_mb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return -1;
    char line[256];
    double kb = -1;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmRSS:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024;
}

/** This process's minor page faults so far. */
long
minor_faults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

/** Build a machine, run a barrier and one 4 KB PUT per cell, tear
 *  down. */
void
churn(int cells, std::size_t mbPerCell)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.memBytesPerCell = mbPerCell << 20;
    hw::Machine m(cfg);
    SpmdResult r = run_spmd(m, [](Context &ctx) {
        Addr buf = ctx.alloc(4096);
        Addr flag = ctx.alloc_flag();
        ctx.barrier();
        ctx.put((ctx.id() + 1) % ctx.nprocs(), buf, buf, 4096, no_flag,
                flag);
        ctx.wait_flag(flag, 1);
    });
    ASSERT_FALSE(r.deadlock);
}

} // namespace

TEST(Churn, ResidentSetStopsGrowing)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    // Their allocators hold freed memory back by design.
    GTEST_SKIP() << "resident set is not meaningful under a sanitizer";
#endif
    struct Shape
    {
        int cells;
        std::size_t mbPerCell;
    };
    const Shape shapes[] = {{1024, 4}, {256, 16}, {1024, 1}, {64, 4}};
    double round2 = 0;
    for (int round = 1; round <= 8; ++round) {
        std::uint64_t miss0 = hw::CellMemory::image_cache_misses();
        long faults0 = minor_faults();
        for (const Shape &s : shapes)
            churn(s.cells, s.mbPerCell);
        std::uint64_t misses = hw::CellMemory::image_cache_misses() - miss0;
        long faults = minor_faults() - faults0;
        if (round == 2)
            round2 = resident_mb();
        if (round < 3)
            continue;
        // Every shape was built before: each image comes back parked
        // and its written pages are still resident.
        EXPECT_EQ(misses, 0u) << "round " << round;
        EXPECT_LT(faults, 256) << "round " << round;
    }
    double round8 = resident_mb();
    ASSERT_GT(round2, 0);
    EXPECT_LT(round8 - round2, 8.0)
        << "resident set grew from " << round2 << " MB after round 2 to "
        << round8 << " MB after round 8";
}
