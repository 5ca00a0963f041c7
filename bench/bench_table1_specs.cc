/**
 * @file
 * Reproduces Table 1: AP1000+ specifications, printed from the
 * machine configuration and the Figure 6 cost table the functional
 * simulator runs.
 */

#include <cstdio>

#include "base/logging.hh"
#include "base/table.hh"
#include "hw/config.hh"
#include "hw/mmu.hh"
#include "hw/queues.hh"
#include "mlsim/params.hh"
#include "obs/cli.hh"

using namespace ap;
using namespace ap::hw;

int
main(int argc, char **argv)
{
    obs::BenchReport report("table1_specs");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    MachineConfig lo = MachineConfig::ap1000_plus(4);
    MachineConfig hi = MachineConfig::ap1000_plus(1024);
    const mlsim::Params costs = mlsim::Params::ap1000_plus();

    std::printf("Table 1: AP1000+ specifications (ours / paper)\n\n");

    Table t({"Item", "Ours", "Paper"});
    t.add_row({"Processor",
               strprintf("SuperSPARC (%.0f MHz)", lo.clockMhz),
               "SuperSPARC (50 MHz)"});
    t.add_row({"Processor performance",
               strprintf("%.0f MFLOPS", lo.mflopsPerCell),
               "50 MFLOPS"});
    t.add_row({"Memory per cell", "16, 64 megabytes (model default "
                                  "smaller)",
               "16, 64 megabytes"});
    t.add_row({"Cache per cell",
               strprintf("%zu kilobytes, write-through",
                         lo.cacheBytes / 1024),
               "36 kilobytes, write-through"});
    t.add_row({"System configuration",
               strprintf("%d - %d cells", lo.cells, hi.cells),
               "4 - 1024 cells"});
    t.add_row({"System performance",
               strprintf("%.1f - %.1f GFLOPS", lo.system_gflops(),
                         hi.system_gflops()),
               "0.2 - 51.2 GFLOPS"});
    t.print();

    std::printf("\nArchitecture constants exercised by the model:\n");
    std::printf("  MSC+ command queue        %d words "
                "(%d 8-word commands)\n",
                lo.queueCapacityWords,
                lo.queueCapacityWords / Command::queue_words);
    std::printf("  TLB                       %zu x 4 KB + %zu x "
                "256 KB entries, direct-mapped\n",
                Mmu::small_tlb_entries, Mmu::large_tlb_entries);
    std::printf("  T-net links               %.0f MB/s "
                "(%.2f us/byte), B-net %.0f MB/s\n",
                1.0 / costs.network_msg_time, costs.network_msg_time,
                1.0 / costs.bnet_msg_time);
    std::printf("  PUT issue                 8 stores = %.2f us\n",
                costs.put_enqueue_time);

    report.set("clock_mhz", lo.clockMhz);
    report.set("mflops_per_cell", lo.mflopsPerCell);
    report.set("cache_kbytes",
               static_cast<std::uint64_t>(lo.cacheBytes / 1024));
    report.set("cells_min", static_cast<std::uint64_t>(lo.cells));
    report.set("cells_max", static_cast<std::uint64_t>(hi.cells));
    report.set("system_gflops_min", lo.system_gflops());
    report.set("system_gflops_max", hi.system_gflops());
    report.set("queue_capacity_words",
               static_cast<std::uint64_t>(lo.queueCapacityWords));
    report.set("tnet_mbytes_per_s", 1.0 / costs.network_msg_time);
    report.set("bnet_mbytes_per_s", 1.0 / costs.bnet_msg_time);
    report.set("put_issue_us", costs.put_enqueue_time);
    return report.write() ? 0 : 1;
}
