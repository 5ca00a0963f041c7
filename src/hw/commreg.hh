/**
 * @file
 * Communication registers with present bits (Section 4.4).
 *
 * Each MC carries 128 4-byte registers living in shared memory space.
 * A store sets the present bit; a load clears it; a load finding the
 * p-bit clear stalls the processor in hardware (no software polling)
 * until data arrives. Scalar barriers and reductions are built from
 * exactly this primitive.
 *
 * The model never blocks: a load probes with try_load() and parks on
 * store_cond() itself (core::Context does, through its one blocking
 * wait), which is the hardware retry loop.
 */

#ifndef AP_HW_COMMREG_HH
#define AP_HW_COMMREG_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "sim/process.hh"

namespace ap::hw
{

/** Statistics of one register file. */
struct CommRegStats
{
    std::uint64_t stores = 0;
    std::uint64_t loads = 0;
    std::uint64_t stalledLoads = 0; ///< loads that found p-bit clear
};

/** The 128-register file with p-bits of one cell's MC. */
class CommRegisterFile
{
  public:
    static constexpr int num_registers = 128;

    CommRegisterFile();

    /**
     * Store @p value into register @p index and set its p-bit.
     * Overwriting a full register is legal (last write wins) but
     * counted, since well-formed protocols never do it.
     */
    void store(int index, std::uint32_t value);

    /**
     * Non-blocking probe: returns true and fills @p value when the
     * p-bit is set (clearing it), false otherwise. Pass @p stalled
     * when an earlier probe of the same load found the p-bit clear,
     * so the load counts in CommRegStats::stalledLoads.
     */
    bool try_load(int index, std::uint32_t &value, bool stalled = false);

    /** Notified on every store to register @p index. */
    sim::Condition &store_cond(int index)
    {
        check(index);
        return conds[static_cast<std::size_t>(index)];
    }

    /** @return the p-bit of register @p index. */
    bool present(int index) const;

    /** Number of overwrites of full registers (protocol smell). */
    std::uint64_t overwrites() const { return numOverwrites; }

    const CommRegStats &stats() const { return regStats; }

  private:
    void check(int index) const;

    struct Reg
    {
        std::uint32_t value = 0;
        bool pbit = false;
    };

    std::vector<Reg> regs;
    std::vector<sim::Condition> conds;
    CommRegStats regStats;
    std::uint64_t numOverwrites = 0;
};

} // namespace ap::hw

#endif // AP_HW_COMMREG_HH
