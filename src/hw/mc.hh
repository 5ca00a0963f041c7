/**
 * @file
 * The MC: memory controller of one cell (Section 4, Figure 5).
 *
 * The MC sits on the V-Bus between the SuperSPARC and DRAM and gives
 * the MSC+ three services the PUT/GET architecture needs:
 *  - MMU translation of the logical addresses PUT/GET commands carry;
 *  - the fetch-and-increment flag updater that combines flag updates
 *    with DMA completion;
 *  - the 128 communication registers with present bits.
 */

#ifndef AP_HW_MC_HH
#define AP_HW_MC_HH

#include <cstdint>
#include <span>

#include "base/types.hh"
#include "hw/commreg.hh"
#include "hw/memory.hh"
#include "hw/mmu.hh"
#include "sim/process.hh"

namespace ap::hw
{

/** MC statistics. */
struct McStats
{
    std::uint64_t flagIncrements = 0;
    std::uint64_t flagFaults = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t accessFaults = 0;
};

/** The memory controller of one cell. */
class Mc
{
  public:
    /**
     * Logical base of the communication registers. They live in
     * shared memory space (Section 4.4), so a remote store to
     * [commreg_base, commreg_base + 128*4) lands in the register
     * file, not DRAM.
     */
    static constexpr Addr commreg_base = 0xC0000000ull;

    /** @return true when @p addr addresses a communication register. */
    static bool
    is_commreg(Addr addr)
    {
        return addr >= commreg_base &&
               addr < commreg_base +
                          CommRegisterFile::num_registers * 4;
    }

    /** Register index of a communication-register address. */
    static int
    commreg_index(Addr addr)
    {
        return static_cast<int>((addr - commreg_base) / 4);
    }

    /** @param mem this cell's DRAM. */
    explicit Mc(CellMemory &mem);

    /** Address translation hardware. */
    Mmu &mmu() { return mmuUnit; }
    const Mmu &mmu() const { return mmuUnit; }

    /** Communication register file. */
    CommRegisterFile &regs() { return regFile; }
    const CommRegisterFile &regs() const { return regFile; }

    /**
     * Fetch-and-increment the 32-bit flag at logical @p addr and wake
     * any process waiting on flags. Address 0 (no_flag) is a no-op by
     * the paper's convention. @return false on a page fault.
     */
    bool increment_flag(Addr addr);

    /** Read a flag value (processor-side check). 0 on fault. */
    std::uint32_t read_flag(Addr addr);

    /** Condition notified on every flag increment. */
    sim::Condition &flag_cond() { return flagCond; }

    /**
     * Processor/DMA load through the MMU. @return false on fault.
     */
    bool load(Addr addr, std::span<std::uint8_t> buf);

    /**
     * Processor/DMA store through the MMU. @return false on fault.
     */
    bool store(Addr addr, std::span<const std::uint8_t> buf);

    /** The DRAM behind this controller. */
    CellMemory &memory() { return mem; }
    const CellMemory &memory() const { return mem; }

    const McStats &stats() const { return mcStats; }

  private:
    CellMemory &mem;
    Mmu mmuUnit;
    CommRegisterFile regFile;
    sim::Condition flagCond;
    McStats mcStats;
};

} // namespace ap::hw

#endif // AP_HW_MC_HH
