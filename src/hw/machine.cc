#include "hw/machine.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "base/logging.hh"
#include "obs/json.hh"
#include "sim/shardq.hh"

namespace ap::hw
{

namespace
{

/**
 * The conservative lookahead of this configuration: the minimum
 * model-time distance of any cross-cell effect. A T-net message pays
 * at least prolog + one hop + epilog before touching another cell, a
 * B-net broadcast pays the bus prolog, an S-net release pays the
 * combine latency. cfg.lookaheadUs overrides the derivation.
 */
Tick
derive_lookahead(const MachineConfig &cfg)
{
    double us = cfg.lookaheadUs;
    if (us <= 0.0) {
        us = cfg.tnet.prologUs + cfg.tnet.delayPerHopUs +
             cfg.tnet.epilogUs;
        us = std::min(us, cfg.bnet.prologUs);
        us = std::min(us, cfg.snet.releaseUs);
    }
    Tick l = us_to_ticks(us);
    return l < 1 ? 1 : l;
}

std::unique_ptr<sim::Simulator>
make_kernel(const MachineConfig &cfg)
{
    if (cfg.threads <= 1)
        return std::make_unique<sim::Simulator>();
    sim::ShardConfig sc;
    sc.shards = std::min(cfg.threads, cfg.cells);
    sc.lookahead = derive_lookahead(cfg);
    sc.deterministic = cfg.deterministic;
    // Contiguous cell blocks per shard: squarest() numbers cells
    // row-major, so a block is a band of torus rows and most
    // single-hop neighbours stay shard-local.
    sc.affinityMap = [cells = cfg.cells, shards = sc.shards](int a) {
        if (a < 0)
            return 0; // machine-wide work runs on the coordinator
        if (a >= cells)
            return shards - 1;
        return static_cast<int>(static_cast<long long>(a) * shards /
                                cells);
    };
    return std::make_unique<sim::ShardedSimulator>(sc);
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

sim::ShardedSimulator *
Machine::sharded()
{
    return dynamic_cast<sim::ShardedSimulator *>(&simulator);
}

const sim::ShardedSimulator *
Machine::sharded() const
{
    return dynamic_cast<const sim::ShardedSimulator *>(&simulator);
}

Machine::Machine(MachineConfig config)
    : cfg(config), faultInj(cfg.faults), simOwner(make_kernel(cfg)),
      simulator(*simOwner),
      tnetNet(simulator, net::Torus::squarest(cfg.cells), cfg.tnet),
      bnetNet(simulator, cfg.cells, cfg.bnet),
      snetNet(simulator, cfg.cells, cfg.snet),
      dsmMap(cfg.cells, cfg.memBytesPerCell / 2),
      cellFailed(static_cast<std::size_t>(cfg.cells)),
      waitInfos(static_cast<std::size_t>(cfg.cells)),
      spanLayer(cfg.cells, cfg.flightEvents)
{
    spanLayer.set_mode(cfg.spanMode);
    // Wire fault injection only when the plan injects something: a
    // machine built with the default (empty) plan runs the exact same
    // code paths as before the fault layer existed.
    if (cfg.faults.any()) {
        tnetNet.set_fault_injector(&faultInj);
        faultInj.set_cells(cfg.cells);
        if (cfg.faults.jitterMaxUs > 0.0)
            simulator.set_delay_jitter(
                [this](Tick) { return faultInj.jitter(); });
    }
    if (cfg.reliableNet)
        rnetNet = std::make_unique<net::ReliableNet>(
            simulator, tnetNet, cfg.rnet);
    // The span layer is wired unconditionally: the default flight
    // mode is the always-on black box, and off-mode probes reduce to
    // one branch inside record()/new_trace().
    tnetNet.set_spans(&spanLayer);
    bnetNet.set_spans(&spanLayer);
    snetNet.set_spans(&spanLayer);
    if (rnetNet)
        rnetNet->set_spans(&spanLayer);
    if (!cfg.faults.kills.empty()) {
        auto aliveFn = [this](CellId id) { return !cell_failed(id); };
        tnetNet.set_liveness(aliveFn);
        if (rnetNet)
            rnetNet->set_liveness(aliveFn);
    }

    // The MSC+ injects into the reliable layer when it is on, the raw
    // T-net otherwise; delivery takes the same path in reverse, and a
    // failed cell's inbound traffic is discarded at the last hop.
    net::Link &link =
        rnetNet ? static_cast<net::Link &>(*rnetNet)
                : static_cast<net::Link &>(tnetNet);
    // Sealed fast path: with no reliable layer the link IS the final
    // T-net, so the MSC+ can bypass the Link vtable on every send.
    net::Tnet *direct = rnetNet ? nullptr : &tnetNet;
    // One payload pool per kernel shard, shared by that shard's
    // cells. The cell->pool mapping must match make_kernel's
    // affinity map so each pool is only touched from its own shard.
    int poolCount = sharded() ? sharded()->shards() : 1;
    payloadPools.reserve(static_cast<std::size_t>(poolCount));
    for (int s = 0; s < poolCount; ++s)
        payloadPools.push_back(std::make_unique<BufferPool>());
    cells.reserve(static_cast<std::size_t>(cfg.cells));
    for (int i = 0; i < cfg.cells; ++i) {
        int shard =
            poolCount > 1
                ? static_cast<int>(static_cast<long long>(i) *
                                   poolCount / cfg.cells)
                : 0;
        cells.push_back(std::make_unique<Cell>(
            simulator, cfg, i, link,
            *payloadPools[static_cast<std::size_t>(shard)], direct));
        Cell *c = cells.back().get();
        c->msc().set_spans(&spanLayer);
        c->ring().set_spans(&spanLayer, i, &simulator);
        if (cfg.faults.any())
            c->msc().set_fault_injector(&faultInj);
        auto deliver = [this, c](net::Message msg) {
            if (cell_failed(c->id()))
                return;
            c->msc().deliver(std::move(msg));
        };
        if (rnetNet)
            rnetNet->attach(i, deliver);
        else
            tnetNet.attach(i, deliver);
        bnetNet.attach(i, deliver);
    }
    for (const sim::FaultPlan::CellKill &k : cfg.faults.kills) {
        if (k.cell < 0 || k.cell >= cfg.cells)
            panic("kill plan names cell %d outside machine of %d",
                  k.cell, cfg.cells);
        simulator.schedule_for(
            k.cell, us_to_ticks(k.atUs),
            [this, id = k.cell]() { fail_cell(id); });
    }
    // Kernel telemetry taps: the sharded kernel reports each parallel
    // window through this hook (fired on the coordinator while every
    // worker is parked) and the machine forwards it to the span
    // layer: barrier_wait stage spans, and in full mode per-worker
    // window spans plus imbalance/barrier-wait counters.
    if (sim::ShardedSimulator *sh = sharded())
        sh->set_window_hook(
            [this](const sim::WindowRecord &w) { on_window(w); });
    register_stats();
    register_kernel_stats();
}

void
Machine::on_window(const sim::WindowRecord &w)
{
    int shards = static_cast<int>(w.shards.size());
    // Idle (barrier_wait) attribution in model time: the window ends
    // when its busiest shard executes its last event; every other
    // shard waited from its own last event (or the window start if it
    // had none) until then. The straggler gets no span.
    Tick windowDone = 0;
    for (const sim::WindowShard &ws : w.shards)
        windowDone = std::max(windowDone, ws.last);
    if (spanLayer.on() && shards > 1 && windowDone > 0) {
        std::uint64_t tid = spanLayer.new_trace();
        for (int s = 0; s < shards; ++s) {
            const sim::WindowShard &ws =
                w.shards[static_cast<std::size_t>(s)];
            Tick from = ws.events > 0 ? ws.last : w.start;
            if (from >= windowDone)
                continue;
            spanLayer.record(
                -1, tid, obs::SpanStage::barrier_wait, from,
                windowDone, obs::SpanOp::none,
                static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(ws.events, UINT32_MAX)));
        }
    }
    if (spanLayer.full()) {
        for (int s = 0; s < shards; ++s) {
            const sim::WindowShard &ws =
                w.shards[static_cast<std::size_t>(s)];
            if (ws.events > 0)
                spanLayer.span(obs::worker_track(s), "kernel", "window",
                               w.start, ws.last, {"window", w.index},
                               {"events", ws.events});
        }
        spanLayer.counter(obs::machine_track, "kernel",
                          "imbalance_x1000", w.start, w.imbalanceX1000);
        spanLayer.counter(obs::machine_track, "kernel",
                          "barrier_wait_ns", w.start, w.barrierWaitNs);
    }
}

void
Machine::fail_cell(CellId id)
{
    if (cell_failed(id))
        return;
    cellFailed[static_cast<std::size_t>(id)] = 1;
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

std::string
Machine::wait_graph()
{
    std::string out = strprintf(
        "wait graph at t=%.1f us (%d cells):\n",
        ticks_to_us(simulator.now()), cfg.cells);
    for (int i = 0; i < cfg.cells; ++i) {
        const WaitInfo &w = waitInfos[static_cast<std::size_t>(i)];
        if (cell_failed(i)) {
            out += strprintf("  cell %d: FAILED\n", i);
            continue;
        }
        if (!w.what) {
            out += strprintf("  cell %d: running\n", i);
            continue;
        }
        Cell &c = *cells[static_cast<std::size_t>(i)];
        std::uint64_t live =
            w.addr != no_flag
                ? c.mc().read_flag(w.addr)
                : static_cast<std::uint64_t>(c.msc().ack_count());
        out += strprintf("  cell %d: blocked on %s addr=%#llx "
                         "(have %llu, want %llu) since t=%.1f us\n",
                         i, w.what,
                         static_cast<unsigned long long>(w.addr),
                         static_cast<unsigned long long>(live),
                         static_cast<unsigned long long>(w.target),
                         ticks_to_us(w.since));
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
    statsReg.add_gauge("spans.full_log_events", [this]() {
        return static_cast<std::uint64_t>(spanLayer.events().size());
    });
    statsReg.add_gauge("spans.full_dropped",
                       [this]() { return spanLayer.full_dropped(); });

    const sim::FaultStats &f = faultInj.stats();
    statsReg.add_counter("faults.drops", &f.drops);
    statsReg.add_counter("faults.duplicates", &f.duplicates);
    statsReg.add_counter("faults.reorders", &f.reorders);
    statsReg.add_counter("faults.forced_spills", &f.forcedSpills);
    statsReg.add_counter("faults.injected_page_faults",
                         &f.injectedPageFaults);
    statsReg.add_counter("faults.jittered_events", &f.jitteredEvents);
    statsReg.add_gauge("faults.jitter_ticks", &f.jitterTicks);
    statsReg.add_counter("faults.corruptions", &f.corruptions);
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
        if (cfg.faults.any())
            statsReg.set_row(fault, i, &faultInj.hold_stats(i));
        if (rnetNet)
            statsReg.set_row(rnet, i, &rnetNet->stats(i));
    }
}

void
Machine::register_kernel_stats()
{
    // Kernel self-telemetry under "sim.": how the run executed
    // (kernel shape, windows, host wall-clock waits) as opposed to
    // what the machine did. Determinism byte-compares exclude this
    // prefix — per-shard counts and wall-clock can never match
    // across kernels (see DESIGN.md, Kernel telemetry).
    statsReg.add_gauge("sim.executed_events",
                       [this]() { return simulator.executed(); });
    statsReg.add_gauge("sim.pending_events", [this]() {
        return static_cast<std::uint64_t>(simulator.pending());
    });

    // Kernel allocation telemetry: event-node pool traffic, EventFn
    // heap spills and payload-pool traffic. The CI perf job asserts
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
    // DRAM image recycler traffic. Process-wide rather than
    // per-machine (the cache outlives machines by design), so these
    // are cumulative across every machine this process built.
    statsReg.add_gauge("sim.alloc.image_hits",
                       []() { return CellMemory::image_cache_hits(); });
    statsReg.add_gauge("sim.alloc.image_miss", []() {
        return CellMemory::image_cache_misses();
    });

    const sim::ShardedSimulator *sh = sharded();
    if (!sh)
        return;
    statsReg.add_gauge("sim.kernel.shards", [sh]() {
        return static_cast<std::uint64_t>(sh->shards());
    });
    statsReg.add_gauge("sim.kernel.lookahead_ticks",
                       [sh]() { return sh->lookahead(); });
    statsReg.add_gauge("sim.kernel.deterministic", [sh]() {
        return static_cast<std::uint64_t>(sh->deterministic());
    });
    statsReg.add_gauge("sim.kernel.lookahead_violations",
                       [sh]() { return sh->lookahead_violations(); });

    const sim::WindowAgg &w = sh->window_stats();
    statsReg.add_gauge("sim.window.count", &w.windows);
    statsReg.add_gauge("sim.window.events", &w.events);
    statsReg.add_gauge("sim.window.horizon_advance_ticks",
                       &w.horizonAdvance);
    statsReg.add_gauge("sim.window.barrier_wait_ns", [sh]() {
        std::uint64_t ns = 0;
        for (int s = 0; s < sh->shards(); ++s)
            ns += sh->shard_stats(s).barrierWaitNs;
        return ns;
    });
    statsReg.add_gauge("sim.window.merge_ns", &w.mergeNs);
    statsReg.add_gauge("sim.window.imbalance_max_x1000",
                       &w.imbalanceMaxX1000);
    statsReg.add_gauge("sim.window.imbalance_avg_x1000", [&w]() {
        return w.windows ? w.imbalanceSumX1000 / w.windows : 0;
    });

    for (int s = 0; s < sh->shards(); ++s) {
        const sim::ShardStats &st = sh->shard_stats(s);
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
    std::string out = strprintf(
        "flight recorder (span mode %s, %llu events recorded, last "
        "%zu per cell):\n",
        obs::to_string(spanLayer.mode()),
        static_cast<unsigned long long>(spanLayer.recorded()),
        maxPerCell);
    out += obs::flight_text(spanLayer.flight_events(maxPerCell));
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
        cfg.flightEvents, obs::to_string(spanLayer.mode()));
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

void
Machine::set_fault_hook(FaultHook hook)
{
    for (auto &c : cells)
        c->msc().set_fault_hook(hook);
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
    if (r.find("sim.kernel.shards"))
        out += strprintf(
            "kernel: %llu shards, %llu events, %llu windows, "
            "%llu handoffs, barrier wait %.2f ms, merge %.2f ms, "
            "imbalance max %.2fx\n",
            llu(r.value("sim.kernel.shards")),
            llu(r.value("sim.executed_events")),
            llu(r.value("sim.window.count")),
            llu(r.sum("sim.shard.*.handoffs_out")),
            static_cast<double>(
                r.value("sim.window.barrier_wait_ns")) /
                1e6,
            static_cast<double>(r.value("sim.window.merge_ns")) /
                1e6,
            static_cast<double>(
                r.value("sim.window.imbalance_max_x1000")) /
                1000.0);

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
