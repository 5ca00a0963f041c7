/**
 * @file
 * The whole machine: cells plus the three networks (Figure 4).
 */

#ifndef AP_HW_MACHINE_HH
#define AP_HW_MACHINE_HH

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/types.hh"
#include "hw/cell.hh"
#include "hw/config.hh"
#include "hw/dsm.hh"
#include "mlsim/params.hh"
#include "net/bnet.hh"
#include "net/kills.hh"
#include "net/reliable.hh"
#include "net/snet.hh"
#include "net/tnet.hh"
#include "net/topology.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "obs/stats_registry.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"

namespace ap::hw
{

/** A complete AP1000+ system. */
class Machine
{
  public:
    /** Build the machine described by @p cfg. */
    explicit Machine(MachineConfig cfg);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** The event kernel driving this machine: min(cfg.threads,
     *  cells) shards of contiguous cell blocks. */
    sim::Simulator &sim() { return simulator; }

    /**
     * Drain the event queue. Equivalent to sim().run(), except that
     * an enabled timeline sampler drives the run in period slices
     * (same event order — the sampler only observes). Drivers that
     * run the machine to completion should call this instead of
     * sim().run() so --timeline-out works everywhere.
     */
    void run_to_completion();

    /** Number of cells. */
    int size() const { return static_cast<int>(cells.size()); }

    /** Access one cell. */
    Cell &cell(CellId id);
    const Cell &cell(CellId id) const;

    net::Tnet &tnet() { return tnetNet; }
    net::Bnet &bnet() { return bnetNet; }
    net::Snet &snet() { return snetNet; }

    /** The reliable layer, or nullptr when cfg.reliableNet is off. */
    net::ReliableNet *reliable() { return rnetNet.get(); }
    const net::ReliableNet *reliable() const { return rnetNet.get(); }
    const net::Torus &topology() const { return tnetNet.topology(); }
    const DsmMap &dsm() const { return dsmMap; }

    const MachineConfig &config() const { return cfg; }

    /** The Figure 6 cost table every component charges: MLSim's
     *  Params::ap1000_plus(), built once per machine. */
    const mlsim::Params &costs() const { return costTable; }

    /** The fault injector built from cfg.faults (inert when the plan
     *  injects nothing). */
    sim::FaultInjector &faults() { return faultInj; }
    const sim::FaultInjector &faults() const { return faultInj; }

    // -- fail-stop cells -----------------------------------------------

    /** @return true when @p id is fail-stop at the current model
     *  time (its recorded kill tick has been reached): every shard
     *  gives the same answer. */
    bool cell_failed(CellId id) const
    {
        return failed_by(id, simulator.now());
    }

    /** @return true when @p id is fail-stop at model tick @p t. */
    bool failed_by(CellId id, Tick t) const
    {
        return killTable.failed_by(id, t);
    }

    /** @return true when any cell is fail-stop at the current time. */
    bool any_failed() const
    {
        return killTable.any_failed_by(simulator.now());
    }

    /**
     * Fail-stop @p id at tick @p at (the earliest kill wins): its
     * traffic is discarded, its queued reliable-layer messages abort,
     * and barriers release without it. The tick is recorded now, so
     * inside an event @p at must be at least lookahead() ahead, and
     * no shard can reach it before seeing it. FaultPlan::kills are
     * scheduled this way at construction; a kill issued during the
     * run behaves the same.
     */
    void kill_cell(CellId id, Tick at);

    /**
     * Install a fail-stop observer, called on the dying cell's
     * timeline at its kill tick. One hook; set it while the machine
     * is quiescent, nullptr detaches. The serving layer uses it to
     * finish gangs waiting only on the dead cell.
     */
    void set_kill_hook(std::function<void(CellId)> hook);

    /** The least model time any cross-cell effect takes: the
     *  kernel's window, and the least delay from a decision on one
     *  timeline to its effect on another. */
    Tick lookahead() const { return simulator.lookahead(); }

    /**
     * Count one exhausted communication retry budget. Called by the
     * hardened runtime paths just before they throw their give-up
     * CommError; surfaces as `comm.retry.giveup` in the registry.
     */
    void note_retry_giveup() { ++retryGiveups; }

    // -- watchdog wait registry ----------------------------------------

    /** One blocking wait of one cell (for wait_graph()). */
    struct WaitInfo
    {
        const char *what = nullptr; ///< "wait_flag", "ack", ...
        Addr addr = 0;
        std::uint64_t target = 0;
        Tick since = 0;
        Tick until = max_tick; ///< max_tick while still blocked
    };

    /** Record that @p id is blocked on @p what (watchdog support). */
    void set_wait(CellId id, const char *what, Addr addr,
                  std::uint64_t target);

    /** End @p id 's current wait (it completed or timed out). */
    void clear_wait(CellId id);

    /**
     * Render a machine-wide wait-graph dump: every cell's blocked
     * operation, plus failed cells. Attached to watchdog CommErrors
     * so a stuck run explains itself instead of hanging. Other cells
     * are shown as of one lookahead before now — the latest state
     * every kernel shard is sure to have reached — so the dump reads
     * the same at any thread count.
     */
    std::string wait_graph();

    /**
     * Render a machine-wide statistics report: network traffic,
     * aggregated MSC+/MC/TLB/ring-buffer counters, and the busiest
     * cells — the post-run dashboard. Built entirely from registry
     * walks.
     */
    std::string report() const;

    // -- telemetry -----------------------------------------------------

    /**
     * Every component counter/gauge/histogram under hierarchical
     * dotted paths ("cell3.msc.user_queue.spills", "tnet.messages").
     * Populated at construction.
     */
    obs::StatsRegistry &stats_registry() { return statsReg; }
    const obs::StatsRegistry &stats_registry() const { return statsReg; }

    /** Registry rendered as nested JSON. */
    std::string stats_json(bool pretty = true) const;

    /** Registry rendered as a flat text table. */
    std::string stats_text() const;

    /**
     * Write stats_json() to @p path. @return false on I/O error.
     */
    bool dump_stats(const std::string &path) const;

    /**
     * Write the span layer's full log — stage events and annotations
     * — as Chrome trace_event JSON to @p path, with the events the
     * log's bound dropped in otherData.dropped. @return false unless
     * the span mode is full, or on I/O error.
     */
    bool write_trace(const std::string &path) const;

    // -- continuous perf timeline --------------------------------------

    /**
     * Turn on the timeline sampler: run_to_completion() then samples
     * the stats registry every @p periodUs of model time into a
     * bounded ring (obs/sampler.hh). Idempotent; the first call
     * fixes period and capacity.
     */
    obs::TimelineSampler &enable_timeline(
        double periodUs,
        std::size_t capacity = obs::TimelineSampler::default_capacity);

    /** The sampler, or nullptr while the timeline is off. */
    obs::TimelineSampler *timeline() { return samplerPtr.get(); }
    const obs::TimelineSampler *timeline() const
    {
        return samplerPtr.get();
    }

    /**
     * Write the sampler's timeline JSON to @p path. @return false
     * when the timeline is off or on I/O error.
     */
    bool write_timeline(const std::string &path) const;

    /**
     * Write the sampler's timeline as CSV (one row per sample, one
     * column per series) to @p path. @return false when the timeline
     * is off or on I/O error.
     */
    bool write_timeline_csv(const std::string &path) const;

    // -- causal spans / flight recorder --------------------------------

    /** The causal span layer every component records into (mode
     *  from MachineConfig::spanMode). */
    obs::SpanLayer &spans() { return spanLayer; }
    const obs::SpanLayer &spans() const { return spanLayer; }

    /**
     * The black box: render the merged flight rings (last
     * @p maxPerCell events per cell that ended by one lookahead
     * before now, so the block reads the same at any kernel thread
     * count) as a postmortem text block.
     * When cfg.postmortemOut is set, the full merged rings are also
     * written there as Chrome trace JSON and the path is named in
     * the text. Appended to every CommError the runtime raises.
     */
    std::string postmortem(std::size_t maxPerCell = 8);

    /**
     * Write the merged flight rings as Chrome trace_event JSON to
     * @p path. @return false on I/O error.
     */
    bool dump_flight_recorder(const std::string &path) const;

    /** One-line flight-recorder status (events retained/dropped). */
    std::string flight_report() const;

  private:
    void register_stats();
    void register_kernel_stats();
    /** The kill event: runs on @p id 's timeline at its kill tick. */
    void fail_cell(CellId id);
    /** The receiver of both networks: hands @p msg to its
     *  destination's MSC+, unless that cell is fail-stop. */
    void deliver(net::Message msg);

    MachineConfig cfg;
    /** Declared before everything that charges it. */
    const mlsim::Params costTable;
    /** The machine services every component gets a reference to at
     *  construction, so declared before all of them. */
    net::KillTable killTable;
    sim::FaultInjector faultInj;
    obs::SpanLayer spanLayer;
    sim::Simulator simulator;
    net::Tnet tnetNet;
    net::Bnet bnetNet;
    net::Snet snetNet;
    std::unique_ptr<net::ReliableNet> rnetNet;
    DsmMap dsmMap;
    /** Payload buffer pools, one per kernel shard. Declared before
     *  `cells` so the MSC+ pool references outlive their users. */
    std::vector<std::unique_ptr<BufferPool>> payloadPools;
    std::vector<std::unique_ptr<Cell>> cells;
    /** Per cell: its waits of the last two lookaheads, newest last,
     *  written by the cell's own timeline, read by wait_graph() on
     *  any, under the cell's lock. */
    std::vector<std::deque<WaitInfo>> waitLogs;
    std::unique_ptr<std::mutex[]> waitLocks;
    std::atomic<std::uint64_t> cellKills{0};
    std::atomic<std::uint64_t> retryGiveups{0};
    std::function<void(CellId)> killHook;
    obs::StatsRegistry statsReg;
    std::unique_ptr<obs::TimelineSampler> samplerPtr;
};

} // namespace ap::hw

#endif // AP_HW_MACHINE_HH
