#include "hw/mc.hh"

#include "hw/dma.hh"

namespace ap::hw
{

Mc::Mc(CellMemory &mem) : mem(mem)
{
}

bool
Mc::increment_flag(Addr addr)
{
    if (addr == no_flag)
        return true;
    Translation t = mmuUnit.translate(addr, true);
    if (!t.valid) {
        ++mcStats.flagFaults;
        return false;
    }
    mem.fetch_increment_u32(t.paddr);
    ++mcStats.flagIncrements;
    flagCond.notify_all();
    return true;
}

std::uint32_t
Mc::read_flag(Addr addr)
{
    if (addr == no_flag)
        return 0;
    Translation t = mmuUnit.translate(addr, false);
    if (!t.valid) {
        ++mcStats.accessFaults;
        return 0;
    }
    return mem.read_u32(t.paddr);
}

bool
Mc::load(Addr addr, std::span<std::uint8_t> buf)
{
    ++mcStats.loads;
    std::vector<std::uint8_t> tmp;
    DmaResult r = DmaEngine::gather(
        mmuUnit, mem, addr,
        net::StrideSpec::contiguous(
            static_cast<std::uint32_t>(buf.size())),
        tmp);
    if (!r.ok) {
        ++mcStats.accessFaults;
        return false;
    }
    std::copy(tmp.begin(), tmp.end(), buf.begin());
    return true;
}

bool
Mc::store(Addr addr, std::span<const std::uint8_t> buf)
{
    ++mcStats.stores;
    DmaResult r = DmaEngine::scatter(
        mmuUnit, mem, addr,
        net::StrideSpec::contiguous(
            static_cast<std::uint32_t>(buf.size())),
        buf);
    if (!r.ok) {
        ++mcStats.accessFaults;
        return false;
    }
    return true;
}

} // namespace ap::hw
