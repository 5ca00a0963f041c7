/**
 * @file
 * The MC's MMU and TLB.
 *
 * PUT/GET commands carry *logical* addresses; the MSC+ asks the MC to
 * translate them (Section 4.1, "MMU and protection"). The TLB is
 * direct-mapped with 256 entries for 4-kilobyte pages and 64 entries
 * for 256-kilobyte pages. An unmapped logical address is a page
 * fault; during a remote transfer the MSC+ reacts by interrupting the
 * OS and pulling the remainder of the message from the network.
 */

#ifndef AP_HW_MMU_HH
#define AP_HW_MMU_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.hh"

namespace ap::hw
{

/** Result of a translation attempt. */
struct Translation
{
    bool valid = false;     ///< false = page fault
    Addr paddr = 0;         ///< physical address when valid
    bool tlbHit = false;    ///< whether the TLB already held the entry
    bool writable = false;  ///< page permits writes
};

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t faults = 0;
};

/**
 * Per-cell page table plus the MC's two direct-mapped TLBs.
 *
 * Pages are mapped explicitly with map(); map_linear() installs the
 * identity mapping the runtime uses by default. Both the paper's page
 * sizes are supported; a mapping chooses its size at map time.
 *
 * The page table is two flat arrays indexed by virtual page number,
 * one per page size. The default identity map is not stored at all:
 * map_linear() on a fresh MMU records the range, a TLB miss inside it
 * computes frame = page, and the first map() or unmap() writes the
 * range into the small-page array. Building a cell therefore costs
 * the same at every DRAM size.
 */
class Mmu
{
  public:
    static constexpr std::size_t small_page_bits = 12;  // 4 KB
    static constexpr std::size_t large_page_bits = 18;  // 256 KB
    static constexpr std::size_t small_tlb_entries = 256;
    static constexpr std::size_t large_tlb_entries = 64;
    /** Logical addresses are 32 bits wide (the SuperSPARC's). */
    static constexpr Addr logical_bytes = Addr{1} << 32;

    /**
     * Map one page, replacing any mapping of the same size there.
     * TLB entries the new mapping makes stale are dropped.
     * @param vaddr page-aligned logical address below logical_bytes
     * @param paddr page-aligned physical address
     * @param large use a 256 KB page instead of 4 KB
     * @param writable permit stores
     */
    void map(Addr vaddr, Addr paddr, bool large = false,
             bool writable = true);

    /** Remove the mapping containing @p vaddr (if any). */
    void unmap(Addr vaddr);

    /**
     * Identity-map [0, bytes) with 4 KB pages (a final partial page
     * is rounded up).
     */
    void map_linear(std::size_t bytes, bool writable = true);

    /**
     * Translate a logical address, updating TLB state and stats.
     * @param vaddr logical address
     * @param write whether the access is a store
     */
    Translation translate(Addr vaddr, bool write);

    /**
     * Translate without touching TLB state (diagnostics/tests).
     */
    Translation peek(Addr vaddr) const;

    /** TLB/fault statistics. */
    const TlbStats &stats() const { return tlbStats; }

    /** Forget all TLB entries (page table survives). */
    void flush_tlb();

  private:
    struct PageEntry
    {
        Addr pframe = 0;
        bool valid = false;
        bool writable = false;
    };

    struct TlbEntry
    {
        Addr vpn = 0;
        Addr pframe = 0;
        bool valid = false;
        bool writable = false;
    };

    std::optional<PageEntry> lookup_table(Addr vaddr, Addr &vpn_out,
                                          bool &large_out) const;

    /** Write a recorded identity range into smallTable. */
    void materialize();

    /** @return true when a small page is mapped inside large page
     *  @p lvpn. */
    bool has_small_pages(Addr lvpn) const;

    /** Identity-mapped small pages [0, identityPages) that are not in
     *  smallTable; nonzero only while both tables are empty. */
    Addr identityPages = 0;
    bool identityWritable = false;
    /** Page tables indexed by virtual page number. */
    std::vector<PageEntry> smallTable;
    std::vector<PageEntry> largeTable;
    std::array<TlbEntry, small_tlb_entries> smallTlb{};
    std::array<TlbEntry, large_tlb_entries> largeTlb{};
    TlbStats tlbStats;
};

} // namespace ap::hw

#endif // AP_HW_MMU_HH
