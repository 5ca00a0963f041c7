#include "hw/commreg.hh"

#include "base/logging.hh"

namespace ap::hw
{

CommRegisterFile::CommRegisterFile()
    : regs(num_registers), conds(num_registers)
{
}

void
CommRegisterFile::check(int index) const
{
    if (index < 0 || index >= num_registers)
        panic("communication register %d out of range", index);
}

void
CommRegisterFile::store(int index, std::uint32_t value)
{
    check(index);
    Reg &r = regs[static_cast<std::size_t>(index)];
    if (r.pbit)
        ++numOverwrites;
    r.value = value;
    r.pbit = true;
    ++regStats.stores;
    conds[static_cast<std::size_t>(index)].notify_all();
}

bool
CommRegisterFile::try_load(int index, std::uint32_t &value, bool stalled)
{
    check(index);
    Reg &r = regs[static_cast<std::size_t>(index)];
    if (!r.pbit)
        return false;
    if (stalled)
        ++regStats.stalledLoads;
    r.pbit = false;
    value = r.value;
    ++regStats.loads;
    return true;
}

bool
CommRegisterFile::present(int index) const
{
    check(index);
    return regs[static_cast<std::size_t>(index)].pbit;
}

} // namespace ap::hw
