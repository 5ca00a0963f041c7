#include "hw/mmu.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ap::hw
{

namespace
{

constexpr Addr
page_mask(std::size_t bits)
{
    return (Addr{1} << bits) - 1;
}

} // namespace

void
Mmu::map(Addr vaddr, Addr paddr, bool large, bool writable)
{
    std::size_t bits = large ? large_page_bits : small_page_bits;
    if (vaddr & page_mask(bits))
        fatal("map: logical %#llx not aligned to %zu-bit page",
              static_cast<unsigned long long>(vaddr), bits);
    if (paddr & page_mask(bits))
        fatal("map: physical %#llx not aligned to %zu-bit page",
              static_cast<unsigned long long>(paddr), bits);
    if (vaddr >= logical_bytes)
        fatal("map: logical %#llx outside the 32-bit logical space",
              static_cast<unsigned long long>(vaddr));
    materialize();
    Addr vpn = vaddr >> bits;
    std::vector<PageEntry> &table = large ? largeTable : smallTable;
    if (vpn >= table.size())
        table.resize(vpn + 1);
    table[vpn] = PageEntry{paddr >> bits, true, writable};

    // Drop the TLB entries this mapping makes stale: the large page
    // covering it, which would otherwise keep answering for a newly
    // shadowed range, and every small entry inside the mapped page,
    // including the 4 KB slices translate() caches of a large page.
    auto drop = [](auto &tlb, Addr v) {
        TlbEntry &e = tlb[v % tlb.size()];
        if (e.valid && e.vpn == v)
            e.valid = false;
    };
    drop(largeTlb, vaddr >> large_page_bits);
    Addr first = vaddr >> small_page_bits;
    Addr last = first + (Addr{1} << (bits - small_page_bits));
    for (Addr s = first; s < last; ++s)
        drop(smallTlb, s);
}

void
Mmu::unmap(Addr vaddr)
{
    materialize();
    Addr svpn = vaddr >> small_page_bits;
    if (svpn < smallTable.size())
        smallTable[svpn] = PageEntry{};
    Addr lvpn = vaddr >> large_page_bits;
    if (lvpn < largeTable.size())
        largeTable[lvpn] = PageEntry{};
    flush_tlb();
}

void
Mmu::map_linear(std::size_t bytes, bool writable)
{
    Addr pages = (bytes + page_mask(small_page_bits)) >>
                 small_page_bits;
    if (pages > logical_bytes >> small_page_bits)
        fatal("map_linear: %zu bytes exceed the 32-bit logical space",
              bytes);
    if (identityPages == 0 && smallTable.empty() && largeTable.empty()) {
        identityPages = pages;
        identityWritable = writable;
        return;
    }
    for (Addr p = 0; p < pages; ++p)
        map(p << small_page_bits, p << small_page_bits, false,
            writable);
}

void
Mmu::materialize()
{
    if (identityPages == 0)
        return;
    smallTable.resize(identityPages);
    for (Addr p = 0; p < identityPages; ++p)
        smallTable[p] = PageEntry{p, true, identityWritable};
    identityPages = 0;
}

bool
Mmu::has_small_pages(Addr lvpn) const
{
    constexpr Addr per_large = Addr{1}
                               << (large_page_bits - small_page_bits);
    Addr first = lvpn * per_large;
    Addr end = std::min<Addr>(first + per_large, smallTable.size());
    for (Addr p = first; p < end; ++p)
        if (smallTable[p].valid)
            return true;
    return false;
}

std::optional<Mmu::PageEntry>
Mmu::lookup_table(Addr vaddr, Addr &vpn_out, bool &large_out) const
{
    // Small pages take precedence; a large mapping acts as backstop.
    Addr svpn = vaddr >> small_page_bits;
    vpn_out = svpn;
    large_out = false;
    if (svpn < identityPages)
        return PageEntry{svpn, true, identityWritable};
    if (svpn < smallTable.size() && smallTable[svpn].valid)
        return smallTable[svpn];
    Addr lvpn = vaddr >> large_page_bits;
    if (lvpn < largeTable.size() && largeTable[lvpn].valid) {
        vpn_out = lvpn;
        large_out = true;
        return largeTable[lvpn];
    }
    return std::nullopt;
}

Translation
Mmu::translate(Addr vaddr, bool write)
{
    Translation t;

    // TLB probe: both arrays, direct-mapped.
    Addr svpn = vaddr >> small_page_bits;
    TlbEntry &se = smallTlb[svpn % small_tlb_entries];
    if (se.valid && se.vpn == svpn) {
        if (write && !se.writable) {
            ++tlbStats.faults;
            return t;
        }
        ++tlbStats.hits;
        t.valid = true;
        t.tlbHit = true;
        t.writable = se.writable;
        t.paddr = (se.pframe << small_page_bits) |
                  (vaddr & page_mask(small_page_bits));
        return t;
    }
    Addr lvpn = vaddr >> large_page_bits;
    TlbEntry &le = largeTlb[lvpn % large_tlb_entries];
    if (le.valid && le.vpn == lvpn) {
        if (write && !le.writable) {
            ++tlbStats.faults;
            return t;
        }
        ++tlbStats.hits;
        t.valid = true;
        t.tlbHit = true;
        t.writable = le.writable;
        t.paddr = (le.pframe << large_page_bits) |
                  (vaddr & page_mask(large_page_bits));
        return t;
    }

    // TLB miss: walk the page table.
    Addr vpn = 0;
    bool large = false;
    auto entry = lookup_table(vaddr, vpn, large);
    if (!entry) {
        ++tlbStats.faults;
        return t;
    }
    ++tlbStats.misses;
    if (write && !entry->writable) {
        ++tlbStats.faults;
        return t;
    }

    // Fill the appropriate TLB (direct-mapped replacement). A large
    // page with small pages mapped inside it is cached one 4 KB slice
    // at a time: a large entry would answer for the small pages too.
    Addr frame = entry->pframe;
    if (large && has_small_pages(vpn)) {
        constexpr std::size_t slice_bits =
            large_page_bits - small_page_bits;
        large = false;
        vpn = vaddr >> small_page_bits;
        frame = (frame << slice_bits) | (vpn & page_mask(slice_bits));
    }
    if (large) {
        largeTlb[vpn % large_tlb_entries] =
            TlbEntry{vpn, frame, true, entry->writable};
        t.paddr = (frame << large_page_bits) |
                  (vaddr & page_mask(large_page_bits));
    } else {
        smallTlb[vpn % small_tlb_entries] =
            TlbEntry{vpn, frame, true, entry->writable};
        t.paddr = (frame << small_page_bits) |
                  (vaddr & page_mask(small_page_bits));
    }
    t.valid = true;
    t.tlbHit = false;
    t.writable = entry->writable;
    return t;
}

Translation
Mmu::peek(Addr vaddr) const
{
    Translation t;
    Addr vpn = 0;
    bool large = false;
    auto entry = lookup_table(vaddr, vpn, large);
    if (!entry)
        return t;
    std::size_t bits = large ? large_page_bits : small_page_bits;
    t.valid = true;
    t.writable = entry->writable;
    t.paddr = (entry->pframe << bits) | (vaddr & page_mask(bits));
    return t;
}

void
Mmu::flush_tlb()
{
    for (auto &e : smallTlb)
        e.valid = false;
    for (auto &e : largeTlb)
        e.valid = false;
}

} // namespace ap::hw
