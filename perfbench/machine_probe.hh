/**
 * @file
 * Timing and counter reads around one emulated machine: host
 * timestamps at the run_spmd boundaries, and the layer counters the
 * machine's stats registry already publishes.
 */

#ifndef PERFBENCH_MACHINE_PROBE_HH
#define PERFBENCH_MACHINE_PROBE_HH

#include <map>
#include <string>

#include "core/program.hh"
#include "hw/machine.hh"

namespace pb
{

/** Host timestamps of one run_spmd call. */
struct SpmdTimes
{
    double call = 0;      ///< run_spmd entered
    double firstBody = 0; ///< earliest body entry on any cell
    double lastBody = 0;  ///< latest body return on any cell
    double ret = 0;       ///< run_spmd returned

    double spawn() const { return firstBody - call; }
    double run() const { return lastBody - firstBody; }
    double reap() const { return ret - lastBody; }
};

/** run_spmd(), recording host time at the body boundaries. */
ap::core::SpmdResult timed_spmd(ap::hw::Machine &m,
                                const ap::core::SpmdBody &body,
                                SpmdTimes &t);

/**
 * Add the machine's layer counters to @p out (summing over the
 * machines of a pass): kernel events and allocations, MSC+/queue/MC/
 * ring/TLB counts, T-net/B-net/S-net traffic and the registry size.
 */
void add_machine_counters(const ap::hw::Machine &m,
                          std::map<std::string, double> &out);

/** Turn summed numerators/denominators into the ratio metrics. */
void finish_machine_ratios(std::map<std::string, double> &out);

} // namespace pb

#endif // PERFBENCH_MACHINE_PROBE_HH
