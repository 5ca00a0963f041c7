#include "hw/machine.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>

#include "base/logging.hh"
#include "mlsim/costmodel.hh"
#include "obs/json.hh"
#include "sim/fiber.hh"

namespace ap::hw
{

namespace
{

/**
 * The conservative lookahead under the Figure 6 table @p c: the
 * minimum model-time distance of any cross-cell effect. A T-net
 * message pays at least a one-hop, zero-byte flight before touching
 * another cell; a B-net broadcast pays the bus prolog to reach the
 * bus event on the machine timeline and then at least its 32 header
 * bytes' transfer time to reach the receivers; an S-net release pays
 * the barrier time.
 */
Tick
derive_lookahead(const mlsim::Params &c)
{
    double us = mlsim::CostModel(c).network(1, 0);
    us = std::min(us, c.bnet_prolog_time);
    us = std::min(us, c.bnet_msg_time *
                          static_cast<double>(net::Message::header_bytes));
    us = std::min(us, c.barrier_time);
    Tick l = us_to_ticks(us);
    return l < 1 ? 1 : l;
}

using obs::counter_field;
using obs::gauge_field;
using obs::histogram_field;

// Per-cell stats schemas (register_stats()): a cell's path is
// "cell<N>." + schema prefix + field name.

constexpr obs::StatField msc_fields[] = {
    counter_field<&MscStats::putsSent>("puts_sent"),
    counter_field<&MscStats::getsSent>("gets_sent"),
    counter_field<&MscStats::sendsSent>("sends_sent"),
    counter_field<&MscStats::getRepliesSent>("get_replies_sent"),
    counter_field<&MscStats::putsReceived>("puts_received"),
    counter_field<&MscStats::sendsReceived>("sends_received"),
    counter_field<&MscStats::getRequestsReceived>(
        "get_requests_received"),
    counter_field<&MscStats::getRepliesReceived>("get_replies_received"),
    counter_field<&MscStats::remoteStores>("remote_stores"),
    counter_field<&MscStats::remoteLoads>("remote_loads"),
    counter_field<&MscStats::acksReceived>("acks_received"),
    counter_field<&MscStats::payloadBytesSent>("payload_bytes_sent"),
    counter_field<&MscStats::payloadBytesReceived>(
        "payload_bytes_received"),
    counter_field<&MscStats::localFaults>("local_faults"),
    counter_field<&MscStats::remoteFaults>("remote_faults"),
    counter_field<&MscStats::flushedMessages>("flushed_messages"),
    histogram_field<&MscStats::cmdLatencyUs>("cmd_latency_us"),
    {"messages_sent", obs::StatKind::gauge,
     [](const void *row) {
         const auto &m = *static_cast<const MscStats *>(row);
         return m.putsSent + m.getsSent + m.sendsSent;
     },
     nullptr},
};

constexpr obs::StatField queue_fields[] = {
    counter_field<&QueueStats::pushes>("pushes"),
    counter_field<&QueueStats::pops>("pops"),
    counter_field<&QueueStats::spills>("spills"),
    counter_field<&QueueStats::refillInterrupts>("refill_interrupts"),
    gauge_field<&QueueStats::maxHwDepth>("max_hw_depth"),
    gauge_field<&QueueStats::maxSpillDepth>("max_spill_depth"),
};

constexpr obs::StatField mc_fields[] = {
    counter_field<&McStats::flagIncrements>("flag_increments"),
    counter_field<&McStats::flagFaults>("flag_faults"),
    counter_field<&McStats::loads>("loads"),
    counter_field<&McStats::stores>("stores"),
    counter_field<&McStats::accessFaults>("access_faults"),
};

constexpr obs::StatField commreg_fields[] = {
    counter_field<&CommRegStats::stores>("stores"),
    counter_field<&CommRegStats::loads>("loads"),
    counter_field<&CommRegStats::stalledLoads>("stalled_loads"),
};

constexpr obs::StatField mmu_fields[] = {
    counter_field<&TlbStats::hits>("tlb_hits"),
    counter_field<&TlbStats::misses>("tlb_misses"),
    counter_field<&TlbStats::faults>("page_faults"),
};

constexpr obs::StatField ring_fields[] = {
    counter_field<&RingBufferStats::deposits>("deposits"),
    counter_field<&RingBufferStats::receives>("receives"),
    counter_field<&RingBufferStats::copies>("copies"),
    counter_field<&RingBufferStats::inPlaceReads>("in_place_reads"),
    counter_field<&RingBufferStats::growInterrupts>("grow_interrupts"),
    gauge_field<&RingBufferStats::maxDepth>("max_depth"),
    gauge_field<&RingBufferStats::maxBytes>("max_bytes"),
};

/** Bound only when the fault plan injects something. */
constexpr obs::StatField fault_fields[] = {
    gauge_field<&sim::FaultInjector::HoldStats::heldHighWater>(
        "held_high_water"),
    counter_field<&sim::FaultInjector::HoldStats::dupEvictions>(
        "dup_evictions"),
    counter_field<&sim::FaultInjector::HoldStats::reorderEvictions>(
        "reorder_evictions"),
};

/** Bound only with the reliable layer on. */
constexpr obs::StatField rnet_fields[] = {
    counter_field<&net::RnetStats::dataSent>("data_sent"),
    counter_field<&net::RnetStats::retransmits>("retransmits"),
    counter_field<&net::RnetStats::acksPiggybacked>("acks_piggybacked"),
    counter_field<&net::RnetStats::queuedFull>("queued_full"),
    gauge_field<&net::RnetStats::windowHighWater>("window_high_water"),
    counter_field<&net::RnetStats::abortedMsgs>("aborted"),
    counter_field<&net::RnetStats::dupDrops>("dup_drops"),
    counter_field<&net::RnetStats::oooBuffered>("ooo_buffered"),
    counter_field<&net::RnetStats::oooEvictions>("ooo_evictions"),
    counter_field<&net::RnetStats::checksumDrops>("checksum_drops"),
    counter_field<&net::RnetStats::acksSent>("acks_sent"),
    histogram_field<&net::RnetStats::ackLatencyUs>("ack_latency_us"),
};

} // namespace

Machine::Machine(MachineConfig config)
    : cfg(config), costTable(mlsim::Params::ap1000_plus()),
      killTable(cfg.cells), faultInj(cfg.faults, cfg.cells),
      spanLayer(cfg.cells, obs::FlightRecorder::default_capacity),
      simulator(cfg.threads, cfg.cells, derive_lookahead(costTable)),
      tnetNet(simulator, net::Torus::squarest(cfg.cells), costTable,
              killTable, faultInj, spanLayer),
      bnetNet(simulator, cfg.cells, costTable, spanLayer),
      snetNet(simulator, cfg.cells, costTable, killTable, spanLayer),
      rnetNet(cfg.reliableNet
                  ? std::make_unique<net::ReliableNet>(
                        simulator, tnetNet, killTable, spanLayer)
                  : nullptr),
      dsmMap(cfg.cells, cfg.memBytesPerCell / 2),
      waitLogs(static_cast<std::size_t>(cfg.cells)),
      waitLocks(std::make_unique<std::mutex[]>(
          static_cast<std::size_t>(cfg.cells)))
{
    spanLayer.set_mode(cfg.spanMode);
    // Kernel jitter is keyed by the timeline that schedules.
    if (cfg.faults.jitterMaxUs > 0.0)
        simulator.set_delay_jitter([this](Tick) {
            return faultInj.jitter(simulator.current_affinity());
        });

    // The MSC+ injects into the reliable layer when it is on, the raw
    // T-net otherwise; arrivals on that link and on the B-net all
    // come back through deliver().
    net::Link &link =
        rnetNet ? static_cast<net::Link &>(*rnetNet)
                : static_cast<net::Link &>(tnetNet);
    link.set_receiver([this](net::Message m) { deliver(std::move(m)); });
    bnetNet.set_receiver([this](net::Message m) { deliver(std::move(m)); });
    // One payload pool per kernel shard (the T-net keeps one send row
    // per shard too), shared by that shard's cells, so each is only
    // touched from its shard. squarest() numbers cells row-major, so
    // the kernel's contiguous blocks are bands of torus rows and most
    // single-hop neighbours stay shard-local.
    int shards = simulator.shards();
    payloadPools.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s)
        payloadPools.push_back(std::make_unique<BufferPool>());
    cells.reserve(static_cast<std::size_t>(cfg.cells));
    for (int i = 0; i < cfg.cells; ++i) {
        auto shard = static_cast<std::size_t>(simulator.shard_of(i));
        cells.push_back(std::make_unique<Cell>(
            simulator, cfg, costTable, i, link, *payloadPools[shard],
            faultInj, spanLayer));
    }
    for (const sim::FaultPlan::CellKill &k : cfg.faults.kills)
        kill_cell(k.cell, us_to_ticks(k.atUs));
    // On more than one shard the kernel calls this hook after each
    // window's barrier, with every worker parked: the T-net's shard
    // rows fold into its machine-wide totals there.
    simulator.set_window_hook(
        [this](const sim::WindowRecord &) { tnetNet.fold_stats(); });
    register_stats();
    register_kernel_stats();
}

void
Machine::kill_cell(CellId id, Tick at)
{
    if (id < 0 || id >= cfg.cells)
        panic("kill names cell %d outside machine of %d", id,
              cfg.cells);
    // Outside any event nothing runs concurrently; inside one, the
    // kill tick must be one lookahead out so that every shard sees
    // it recorded before any of them reaches it.
    if (simulator.executing() && at < simulator.now() + lookahead())
        panic("kill of cell %d at %llu is closer than the lookahead "
              "(%llu ticks) to now (%llu)",
              id, static_cast<unsigned long long>(at),
              static_cast<unsigned long long>(lookahead()),
              static_cast<unsigned long long>(simulator.now()));
    // Only a kill that moves the cell's death earlier schedules the
    // kill event; an event whose tick a later call moved earlier does
    // nothing.
    if (killTable.record(id, at))
        simulator.schedule_for(id, at, [this, id, at]() {
            if (killTable.kill_tick(id) == at)
                fail_cell(id);
        });
}

void
Machine::fail_cell(CellId id)
{
    ++cellKills;
    warn("cell %d declared failed at t=%.1f us", id,
         ticks_to_us(simulator.now()));
    snetNet.fail_cell(id);
    if (rnetNet)
        rnetNet->flush_cell(id);
    spanLayer.instant(obs::machine_track, "fault", "kill",
                      simulator.now(),
                      {"cell", static_cast<std::uint64_t>(id)});
    if (killHook)
        killHook(id);
}

void
Machine::set_kill_hook(std::function<void(CellId)> hook)
{
    killHook = std::move(hook);
}

void
Machine::deliver(net::Message msg)
{
    if (cell_failed(msg.dst))
        return;
    cells[static_cast<std::size_t>(msg.dst)]->msc().deliver(
        std::move(msg));
}

void
Machine::set_wait(CellId id, const char *what, Addr addr,
                  std::uint64_t target)
{
    auto idx = static_cast<std::size_t>(id);
    Tick now = simulator.now();
    std::lock_guard<std::mutex> lock(waitLocks[idx]);
    std::deque<WaitInfo> &log = waitLogs[idx];
    // Keep what a view one lookahead back, taken by a cell up to one
    // lookahead behind this one, can still ask for.
    while (!log.empty() && log.front().until != max_tick &&
           log.front().until + 2 * lookahead() < now)
        log.pop_front();
    log.push_back({what, addr, target, now, max_tick});
}

void
Machine::clear_wait(CellId id)
{
    auto idx = static_cast<std::size_t>(id);
    std::lock_guard<std::mutex> lock(waitLocks[idx]);
    std::deque<WaitInfo> &log = waitLogs[idx];
    if (!log.empty() && log.back().until == max_tick)
        log.back().until = simulator.now();
}

std::string
Machine::wait_graph()
{
    Tick now = simulator.now();
    Tick asOf = now > lookahead() ? now - lookahead() : 0;
    std::string out = strprintf(
        "wait graph at t=%.1f us (%d cells, as of t=%.1f us):\n",
        ticks_to_us(now), cfg.cells, ticks_to_us(asOf));
    for (int i = 0; i < cfg.cells; ++i) {
        if (cell_failed(i)) {
            out += strprintf("  cell %d: FAILED\n", i);
            continue;
        }
        auto idx = static_cast<std::size_t>(i);
        std::optional<WaitInfo> w;
        {
            std::lock_guard<std::mutex> lock(waitLocks[idx]);
            for (const WaitInfo &r : waitLogs[idx])
                if (r.since <= asOf && asOf < r.until)
                    w = r;
        }
        if (!w) {
            out += strprintf("  cell %d: running\n", i);
            continue;
        }
        out += strprintf("  cell %d: blocked on %s addr=%#llx (want "
                         "%llu) since t=%.1f us\n",
                         i, w->what,
                         static_cast<unsigned long long>(w->addr),
                         static_cast<unsigned long long>(w->target),
                         ticks_to_us(w->since));
    }
    return out;
}

void
Machine::register_stats()
{
    // Machine-wide paths: networks, barriers, fault injector.
    const net::TnetStats &t = tnetNet.stats();
    statsReg.add_counter("tnet.messages", &t.messages);
    statsReg.add_counter("tnet.payload_bytes", &t.payloadBytes);
    statsReg.add_counter("tnet.wire_bytes", &t.wireBytes);
    statsReg.add_counter("tnet.dropped", &t.dropped);
    statsReg.add_counter("tnet.duplicated", &t.duplicated);
    statsReg.add_counter("tnet.reordered", &t.reordered);
    statsReg.add_counter("tnet.corrupted", &t.corrupted);
    statsReg.add_counter("tnet.dead_cell_drops", &t.deadCellDrops);
    statsReg.add_histogram("tnet.distance", &t.distance);
    statsReg.add_histogram("tnet.message_size", &t.messageSize);
    statsReg.add_histogram("tnet.latency_us", &t.latencyUs);

    const net::BnetStats &b = bnetNet.stats();
    statsReg.add_counter("bnet.broadcasts", &b.broadcasts);
    statsReg.add_counter("bnet.payload_bytes", &b.payloadBytes);
    statsReg.add_counter("bnet.wire_bytes", &b.wireBytes);
    statsReg.add_histogram("bnet.occupancy_us", &b.occupancyUs);

    statsReg.add_gauge("snet.episodes",
                       [this]() { return snetNet.total_episodes(); });

    statsReg.add_gauge("spans.recorded",
                       [this]() { return spanLayer.recorded(); });
    statsReg.add_gauge("spans.full_log_events",
                       [this]() { return spanLayer.events().size(); });
    statsReg.add_gauge("spans.full_dropped",
                       [this]() { return spanLayer.full_dropped(); });

    // Fault counts live in the injector's per-cell rows.
    using F = sim::FaultStats;
    auto total = [this](const char *path, std::uint64_t F::*field) {
        statsReg.add_gauge(path,
                           [this, field] { return faultInj.stats().*field; });
    };
    total("faults.drops", &F::drops);
    total("faults.duplicates", &F::duplicates);
    total("faults.reorders", &F::reorders);
    total("faults.forced_spills", &F::forcedSpills);
    total("faults.injected_page_faults", &F::injectedPageFaults);
    total("faults.jittered_events", &F::jitteredEvents);
    total("faults.jitter_ticks", &F::jitterTicks);
    total("faults.corruptions", &F::corruptions);
    statsReg.add_gauge("faults.cell_kills",
                       [this]() { return cellKills.load(); });
    // Monotonic, but registered as a gauge: counters bind to plain
    // uint64 fields and this one is an atomic (give-ups fire on the
    // failing cell's shard).
    statsReg.add_gauge("comm.retry.giveup",
                       [this]() { return retryGiveups.load(); });

    // Per-cell subtrees: one schema per component stats struct, one
    // row pointer per cell.
    using Id = obs::StatsRegistry::SchemaId;
    Id msc = statsReg.add_schema("msc.", msc_fields);
    Id queues[] = {
        statsReg.add_schema("msc.user_queue.", queue_fields),
        statsReg.add_schema("msc.system_queue.", queue_fields),
        statsReg.add_schema("msc.remote_queue.", queue_fields),
        statsReg.add_schema("msc.get_reply_queue.", queue_fields),
        statsReg.add_schema("msc.load_reply_queue.", queue_fields),
    };
    Id mc = statsReg.add_schema("mc.", mc_fields);
    Id commreg = statsReg.add_schema("commreg.", commreg_fields);
    Id mmu = statsReg.add_schema("mmu.", mmu_fields);
    Id ring = statsReg.add_schema("ring.", ring_fields);
    Id fault = statsReg.add_schema("fault.", fault_fields);
    Id rnet = statsReg.add_schema("rnet.", rnet_fields);
    for (const auto &cp : cells) {
        const Cell &c = *cp;
        int i = c.id();
        const Msc &m = c.msc();
        statsReg.set_row(msc, i, &m.stats());
        statsReg.set_row(queues[0], i, &m.user_queue().stats());
        statsReg.set_row(queues[1], i, &m.system_queue().stats());
        statsReg.set_row(queues[2], i, &m.remote_queue().stats());
        statsReg.set_row(queues[3], i, &m.get_reply_queue().stats());
        statsReg.set_row(queues[4], i, &m.load_reply_queue().stats());
        statsReg.set_row(mc, i, &c.mc().stats());
        statsReg.set_row(commreg, i, &c.mc().regs().stats());
        statsReg.set_row(mmu, i, &c.mc().mmu().stats());
        statsReg.set_row(ring, i, &c.ring().stats());
        if (faultInj.active())
            statsReg.set_row(fault, i, &faultInj.hold_stats(i));
        if (rnetNet)
            statsReg.set_row(rnet, i, &rnetNet->stats(i));
    }
}

void
Machine::register_kernel_stats()
{
    // Kernel self-telemetry under "sim.", the same paths at every
    // thread count: how the run executed (kernel shape, windows,
    // host wall-clock waits) as opposed to what the machine did.
    // Determinism byte-compares exclude this prefix — per-shard
    // counts and wall-clock can never match across shard counts (see
    // DESIGN.md, Kernel telemetry).
    statsReg.add_gauge("sim.executed_events",
                       [this]() { return simulator.executed(); });
    statsReg.add_gauge("sim.pending_events", [this]() {
        return static_cast<std::uint64_t>(simulator.pending());
    });

    // Kernel allocation telemetry: event-node pool traffic, EventFn
    // heap spills and payload-pool traffic. CTest gate_alloc asserts
    // that pool_miss and fn_heap stop growing once a workload reaches
    // steady state — the zero-allocation contract of the hot path.
    statsReg.add_gauge("sim.alloc.pool_hits", [this]() {
        return simulator.alloc_stats().poolHits;
    });
    statsReg.add_gauge("sim.alloc.pool_miss", [this]() {
        return simulator.alloc_stats().poolMisses;
    });
    statsReg.add_gauge("sim.alloc.pool_blocks", [this]() {
        return simulator.alloc_stats().poolBlocks;
    });
    statsReg.add_gauge("sim.alloc.fn_heap", [this]() {
        return simulator.alloc_stats().fnHeap;
    });
    statsReg.add_gauge("sim.alloc.payload_hits", [this]() {
        std::uint64_t v = 0;
        for (const auto &p : payloadPools)
            v += p->stats().hits;
        return v;
    });
    statsReg.add_gauge("sim.alloc.payload_miss", [this]() {
        std::uint64_t v = 0;
        for (const auto &p : payloadPools)
            v += p->stats().misses;
        return v;
    });
    statsReg.add_gauge("sim.alloc.payload_discards", [this]() {
        std::uint64_t v = 0;
        for (const auto &p : payloadPools)
            v += p->stats().discards;
        return v;
    });
    // DRAM image and fiber stack recycler traffic. Process-wide
    // rather than per-machine (the caches outlive machines by
    // design), so these are cumulative across every machine this
    // process built.
    statsReg.add_gauge("sim.alloc.image_hits",
                       []() { return CellMemory::image_cache_hits(); });
    statsReg.add_gauge("sim.alloc.image_miss", []() {
        return CellMemory::image_cache_misses();
    });
    statsReg.add_gauge("sim.alloc.stack_hits",
                       []() { return sim::Fiber::stack_cache_hits(); });
    statsReg.add_gauge("sim.alloc.stack_miss", []() {
        return sim::Fiber::stack_cache_misses();
    });

    statsReg.add_gauge("sim.kernel.shards", [this]() {
        return static_cast<std::uint64_t>(simulator.shards());
    });
    statsReg.add_gauge("sim.kernel.lookahead_ticks",
                       [this]() { return simulator.lookahead(); });

    const sim::WindowAgg &w = simulator.window_stats();
    statsReg.add_gauge("sim.window.count", &w.windows);
    statsReg.add_gauge("sim.window.events", &w.events);
    statsReg.add_gauge("sim.window.horizon_advance_ticks",
                       &w.horizonAdvance);
    statsReg.add_gauge("sim.window.barrier_wait_ns", [this]() {
        std::uint64_t ns = 0;
        for (int s = 0; s < simulator.shards(); ++s)
            ns += simulator.shard_stats(s).barrierWaitNs;
        return ns;
    });
    statsReg.add_gauge("sim.window.merge_ns", &w.mergeNs);
    statsReg.add_gauge("sim.window.imbalance_max_x1000",
                       &w.imbalanceMaxX1000);
    statsReg.add_gauge("sim.window.imbalance_avg_x1000", [&w]() {
        return w.windows ? w.imbalanceSumX1000 / w.windows : 0;
    });

    for (int s = 0; s < simulator.shards(); ++s) {
        const sim::ShardStats &st = simulator.shard_stats(s);
        std::string p = strprintf("sim.shard.%d.", s);
        statsReg.add_gauge(p + "executed", &st.executed);
        statsReg.add_gauge(p + "handoffs_in", &st.handoffsIn);
        statsReg.add_gauge(p + "handoffs_out", &st.handoffsOut);
        statsReg.add_gauge(p + "max_pending", &st.maxPending);
        statsReg.add_gauge(p + "barrier_wait_ns", &st.barrierWaitNs);
    }
}

void
Machine::run_to_completion()
{
    if (samplerPtr)
        samplerPtr->run(simulator);
    else
        simulator.run();
}

obs::TimelineSampler &
Machine::enable_timeline(double periodUs, std::size_t capacity)
{
    if (!samplerPtr)
        samplerPtr = std::make_unique<obs::TimelineSampler>(
            statsReg, std::max<Tick>(us_to_ticks(periodUs), 1),
            obs::TimelineSampler::default_series(), capacity);
    return *samplerPtr;
}

bool
Machine::write_timeline(const std::string &path) const
{
    if (!samplerPtr)
        return false;
    return samplerPtr->write(path);
}

bool
Machine::write_timeline_csv(const std::string &path) const
{
    if (!samplerPtr)
        return false;
    return samplerPtr->write_csv(path);
}

std::string
Machine::stats_json(bool pretty) const
{
    return statsReg.dump_json(pretty);
}

std::string
Machine::stats_text() const
{
    return statsReg.dump_text();
}

bool
Machine::dump_stats(const std::string &path) const
{
    return obs::write_file(path, stats_json(true));
}

bool
Machine::write_trace(const std::string &path) const
{
    if (!spanLayer.full())
        return false;
    return obs::write_file(
        path, obs::span_chrome_json(spanLayer.events(),
                                    spanLayer.full_dropped()));
}

std::string
Machine::postmortem(std::size_t maxPerCell)
{
    // Like the wait graph, other cells are shown as of one lookahead
    // back, which every kernel shard is sure to have reached.
    Tick now = simulator.now();
    Tick asOf = now > lookahead() ? now - lookahead() : 0;
    std::string out = strprintf(
        "flight recorder (span mode %s, last %zu per cell ended by "
        "t=%.2f us):\n",
        obs::to_string(spanLayer.mode()), maxPerCell,
        ticks_to_us(asOf));
    out += obs::flight_text(spanLayer.flight_events(maxPerCell, asOf));
    if (!cfg.postmortemOut.empty()) {
        if (dump_flight_recorder(cfg.postmortemOut))
            out += strprintf("full flight rings dumped to %s\n",
                             cfg.postmortemOut.c_str());
        else
            out += strprintf("(failed to write flight dump %s)\n",
                             cfg.postmortemOut.c_str());
    }
    return out;
}

bool
Machine::dump_flight_recorder(const std::string &path) const
{
    return obs::write_file(
        path, obs::span_chrome_json(spanLayer.flight_events(),
                                    spanLayer.flight_dropped()));
}

std::string
Machine::flight_report() const
{
    std::uint64_t retained = 0;
    for (int i = -1; i < cfg.cells; ++i)
        retained += spanLayer.flight(i).size();
    return strprintf(
        "flight recorder: %llu span events retained, %llu aged out "
        "(%zu per-cell capacity, mode %s)\n",
        static_cast<unsigned long long>(retained),
        static_cast<unsigned long long>(spanLayer.flight_dropped()),
        obs::FlightRecorder::default_capacity,
        obs::to_string(spanLayer.mode()));
}

Cell &
Machine::cell(CellId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= cells.size())
        panic("cell id %d outside machine of %zu cells", id,
              cells.size());
    return *cells[static_cast<std::size_t>(id)];
}

const Cell &
Machine::cell(CellId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= cells.size())
        panic("cell id %d outside machine of %zu cells", id,
              cells.size());
    return *cells[static_cast<std::size_t>(id)];
}

std::string
Machine::report() const
{
    // Everything below comes from registry walks: sum("*...") folds a
    // counter over every cell, max_over finds the busiest cell, and
    // histogram means read the registered histogram entries.
    const obs::StatsRegistry &r = statsReg;
    auto llu = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    auto hist_mean = [&r](const char *path) {
        const obs::StatEntry *e = r.find(path);
        return e && e->hist ? e->hist->scalar().mean() : 0.0;
    };

    std::string out;
    out += strprintf("=== machine report: %d cells (%dx%d torus), "
                     "t = %.1f us ===\n",
                     cfg.cells, tnetNet.topology().width(),
                     tnetNet.topology().height(),
                     ticks_to_us(simulator.now()));
    out += strprintf("T-net: %llu messages, %llu payload bytes, "
                     "mean size %.1f B, mean distance %.2f hops\n",
                     llu(r.value("tnet.messages")),
                     llu(r.value("tnet.payload_bytes")),
                     hist_mean("tnet.message_size"),
                     hist_mean("tnet.distance"));
    out += strprintf("B-net: %llu broadcasts\n",
                     llu(r.value("bnet.broadcasts")));
    if (rnetNet)
        out += strprintf("rnet: %llu sent, %llu retransmits, "
                         "%llu dup drops, %llu ooo buffered, "
                         "%llu standalone acks\n",
                         llu(r.sum("*.rnet.data_sent")),
                         llu(r.sum("*.rnet.retransmits")),
                         llu(r.sum("*.rnet.dup_drops")),
                         llu(r.sum("*.rnet.ooo_buffered")),
                         llu(r.sum("*.rnet.acks_sent")));
    out += strprintf("MSC+: %llu PUTs, %llu GETs, %llu SENDs, "
                     "%llu acks, %llu rstores, %llu rloads, "
                     "faults %llu/%llu (local/remote)\n",
                     llu(r.sum("*.msc.puts_sent")),
                     llu(r.sum("*.msc.gets_sent")),
                     llu(r.sum("*.msc.sends_sent")),
                     llu(r.sum("*.msc.acks_received")),
                     llu(r.sum("*.msc.remote_stores")),
                     llu(r.sum("*.msc.remote_loads")),
                     llu(r.sum("*.msc.local_faults")),
                     llu(r.sum("*.msc.remote_faults")));
    out += strprintf("user queues: %llu commands, %llu spills, "
                     "%llu refill interrupts\n",
                     llu(r.sum("*.msc.user_queue.pushes")),
                     llu(r.sum("*.msc.user_queue.spills")),
                     llu(r.sum(
                         "*.msc.user_queue.refill_interrupts")));
    out += strprintf("MC: %llu flag increments; TLB %llu hits / "
                     "%llu misses / %llu faults\n",
                     llu(r.sum("*.mc.flag_increments")),
                     llu(r.sum("*.mmu.tlb_hits")),
                     llu(r.sum("*.mmu.tlb_misses")),
                     llu(r.sum("*.mmu.page_faults")));
    out += strprintf("ring buffers: %llu deposits, %llu copies, "
                     "%llu in-place reads, %llu grow interrupts\n",
                     llu(r.sum("*.ring.deposits")),
                     llu(r.sum("*.ring.copies")),
                     llu(r.sum("*.ring.in_place_reads")),
                     llu(r.sum("*.ring.grow_interrupts")));

    std::string who;
    std::uint64_t busiest_sent =
        r.max_over("*.msc.messages_sent", &who);
    // Winning path is "cell<N>.msc.messages_sent".
    CellId busiest = who.size() > 4
                         ? static_cast<CellId>(
                               std::atoi(who.c_str() + 4))
                         : 0;
    out += strprintf("busiest sender: cell %d (%llu messages)\n",
                     busiest, llu(busiest_sent));
    return out;
}

} // namespace ap::hw
