#include "mlsim/replay.hh"

#include <deque>
#include <memory>
#include <unordered_map>

#include "base/logging.hh"
#include "net/topology.hh"
#include "sim/eventq.hh"
#include "sim/process.hh"

namespace ap::mlsim
{

using core::Trace;
using core::TraceEvent;
using core::TraceOp;

namespace
{

constexpr std::uint64_t header_bytes = 32;

/** A collective episode matched across cells by occurrence index. */
struct Rendezvous
{
    int arrived = 0;
    Tick maxArrival = 0;
    std::uint64_t bytes = 0;
    bool complete = false;
    Tick release = 0;
    sim::Condition cond;
};

/** Per-cell replay state. */
struct CellState
{
    std::unordered_map<Addr, std::uint64_t> flags;
    sim::Condition flagCond;
    std::uint64_t acks = 0;
    sim::Condition ackCond;
    /** arrived SENDs per source: payload sizes, FIFO. */
    std::unordered_map<CellId, std::deque<std::uint64_t>> sends;
    sim::Condition sendCond;
    /** asynchronous handling time to charge at the next boundary. */
    double backlogUs = 0;
    Tick mscBusy = 0;  ///< MSC+ send pipeline (hardware model)
    Tick recvBusy = 0; ///< receive handling serialization
    /** collective occurrence counters, per group key (0 = all). */
    std::unordered_map<std::uint64_t, int> barrierSeq;
    std::unordered_map<std::uint64_t, int> gopSeq;
    std::unordered_map<std::uint64_t, int> vgopSeq;

    CellBreakdown acct;
    sim::Process *proc = nullptr;
};

} // namespace

CellBreakdown
ReplayReport::mean() const
{
    CellBreakdown m;
    if (cells.empty())
        return m;
    for (const CellBreakdown &c : cells) {
        m.execUs += c.execUs;
        m.rtsUs += c.rtsUs;
        m.overheadUs += c.overheadUs;
        m.idleUs += c.idleUs;
        m.totalUs += c.totalUs;
    }
    double n = static_cast<double>(cells.size());
    m.execUs /= n;
    m.rtsUs /= n;
    m.overheadUs /= n;
    m.idleUs /= n;
    m.totalUs /= n;
    return m;
}

Replay::Replay(const Trace &trace, const Params &params)
    : trace(trace), params(params)
{
}

ReplayReport
Replay::run()
{
    const int n = trace.cells();
    if (n == 0)
        return {};

    sim::Simulator sim;
    net::Torus topo = net::Torus::squarest(n);
    CostModel cost(params);
    ReplayReport report;
    report.cells.resize(static_cast<std::size_t>(n));

    std::vector<CellState> cells(static_cast<std::size_t>(n));
    // Collective episodes, keyed by group identity (hash recorded in
    // the trace; 0 = every cell) then by occurrence index.
    std::unordered_map<std::uint64_t, std::deque<Rendezvous>> barriers,
        gops, vgops;
    std::unordered_map<std::uint64_t, Tick> pairLast;
    Tick bnetBusy = 0;

    auto cs = [&](CellId c) -> CellState & {
        return cells[static_cast<std::size_t>(c)];
    };

    // FIFO-clamped arrival tick for a message injected at `inject`.
    auto arrival_tick = [&](CellId src, CellId dst,
                            std::uint64_t wire_bytes, Tick inject) {
        Tick arrive =
            inject + us_to_ticks(cost.network(topo.distance(src, dst),
                                              wire_bytes));
        std::uint64_t key =
            static_cast<std::uint64_t>(src) *
                static_cast<std::uint64_t>(n) +
            static_cast<std::uint64_t>(dst);
        Tick &last = pairLast[key];
        if (arrive < last)
            arrive = last;
        last = arrive;
        return arrive;
    };

    // Charge asynchronous handling to a cell: immediately as
    // overhead when the cell is parked (the processor was idle
    // anyway), deferred to its next event boundary when it is busy.
    auto steal = [&](CellId c, double us) {
        CellState &st = cs(c);
        if (st.proc && st.proc->blocked())
            st.acct.overheadUs += us;
        else
            st.backlogUs += us;
    };

    // Schedule receive-side handling for a message reaching `dst` at
    // `arrive`; `effect` runs when the data/flag become usable. The
    // effect moves into the arrival event and then into the ready
    // event, inline in each: no allocation per message.
    auto deliver = [&](CellId dst, Tick arrive, std::uint64_t bytes,
                       auto effect) {
        sim.schedule(arrive, [&, dst, bytes,
                              effect = std::move(effect)]() mutable {
            CellState &st = cs(dst);
            Tick start = std::max(sim.now(), st.recvBusy);
            Tick ready =
                start + us_to_ticks(cost.recv_ready_latency(bytes));
            st.recvBusy = ready;
            steal(dst, cost.recv_interrupt_overhead(bytes));
            sim.schedule(ready, std::move(effect));
        });
    };

    // Point-to-point bookkeeping for the report.
    auto count_message = [&](CellId src, CellId dst,
                             std::uint64_t bytes) {
        ++report.messages;
        report.payloadBytes += bytes;
        report.messageSize.sample(bytes);
        report.distance.sample(static_cast<std::uint64_t>(
            topo.distance(src, dst)));
    };

    // ---- the per-cell program ------------------------------------------

    auto body = [&](CellId me, sim::Process &proc) {
        CellState &st = cs(me);
        st.proc = &proc;

        auto charge_overhead = [&](double us) {
            st.acct.overheadUs += us;
            proc.delay(us_to_ticks(us));
        };
        auto charge_rts = [&](double us) {
            st.acct.rtsUs += us;
            proc.delay(us_to_ticks(us));
        };
        auto drain_backlog = [&]() {
            if (st.backlogUs > 0) {
                double b = st.backlogUs;
                st.backlogUs = 0;
                charge_overhead(b);
            }
        };

        // Injection tick for a command issued now (hardware: MSC+
        // pipeline serialization; software: inline, already paid).
        auto inject_tick = [&](std::uint64_t bytes) {
            Tick inj;
            if (params.hw()) {
                inj = std::max(sim.now(), st.mscBusy) +
                      us_to_ticks(cost.injection_latency(bytes));
                st.mscBusy =
                    inj + us_to_ticks(params.network_msg_time *
                                      static_cast<double>(bytes));
            } else {
                inj = sim.now() +
                      us_to_ticks(cost.injection_latency(bytes));
            }
            return inj;
        };

        auto send_complete_tick = [&](Tick inject,
                                      std::uint64_t bytes) {
            return inject + us_to_ticks(params.network_msg_time *
                                        static_cast<double>(bytes));
        };

        // One PUT (or ack probe when probe_only). Returns nothing;
        // schedules all downstream effects.
        auto do_put = [&](const TraceEvent &ev) {
            charge_overhead(cost.put_send_overhead(ev.bytes));
            Tick inj = inject_tick(ev.bytes);
            Tick complete = send_complete_tick(inj, ev.bytes);
            count_message(me, ev.peer, ev.bytes);

            if (ev.sendFlagAddr != no_flag) {
                sim.schedule(complete, [&, me, a = ev.sendFlagAddr]() {
                    ++cs(me).flags[a];
                    cs(me).flagCond.notify_all();
                });
            }
            if (!params.hw()) {
                sim.schedule(complete, [&, me]() {
                    steal(me, cost.send_complete_overhead());
                });
            }

            Tick arrive = arrival_tick(me, ev.peer,
                                       ev.bytes + header_bytes, inj);
            CellId dst = ev.peer;
            Addr rf = ev.recvFlagAddr;
            deliver(dst, arrive, ev.bytes, [&, dst, rf]() {
                if (rf != no_flag) {
                    ++cs(dst).flags[rf];
                    cs(dst).flagCond.notify_all();
                }
            });

            if (ev.ack) {
                // The GET-to-address-0 probe: header out, header
                // back; the reply bumps the implicit ack flag.
                charge_overhead(cost.get_request_overhead());
                Tick pinj = inject_tick(0);
                Tick parr = arrival_tick(me, dst, header_bytes, pinj);
                deliver(dst, parr, 0, [&, dst, me]() {
                    CellState &owner = cs(dst);
                    Tick rinj = params.hw()
                                    ? std::max(sim.now(),
                                               owner.mscBusy) +
                                          us_to_ticks(
                                              params.put_dma_set_time)
                                    : sim.now();
                    if (params.hw())
                        owner.mscBusy = rinj;
                    else
                        steal(dst, params.put_dma_set_time);
                    Tick back = arrival_tick(dst, me, header_bytes,
                                             rinj);
                    deliver(me, back, 0, [&, me]() {
                        ++cs(me).acks;
                        cs(me).ackCond.notify_all();
                    });
                });
            }
        };

        auto do_get = [&](const TraceEvent &ev) {
            charge_overhead(cost.get_request_overhead());
            Tick inj = inject_tick(0);
            Tick arrive = arrival_tick(me, ev.peer, header_bytes,
                                       inj);
            count_message(me, ev.peer, ev.bytes);

            CellId owner_id = ev.peer;
            std::uint64_t bytes = ev.bytes;
            Addr sf = ev.sendFlagAddr;
            Addr rf = ev.recvFlagAddr;
            CellId requester = me;

            deliver(owner_id, arrive, 0, [&, owner_id, bytes, sf, rf,
                                          requester]() {
                CellState &owner = cs(owner_id);
                Tick rinj;
                if (params.hw()) {
                    rinj = std::max(sim.now(), owner.mscBusy) +
                           us_to_ticks(cost.injection_latency(bytes));
                    owner.mscBusy =
                        rinj + us_to_ticks(params.network_msg_time *
                                           static_cast<double>(bytes));
                } else {
                    double build = params.put_dma_set_time +
                                   params.put_msg_post_time *
                                       static_cast<double>(bytes);
                    steal(owner_id, build);
                    rinj = sim.now() + us_to_ticks(build);
                }
                Tick complete =
                    rinj + us_to_ticks(params.network_msg_time *
                                       static_cast<double>(bytes));
                if (sf != no_flag) {
                    sim.schedule(complete, [&, owner_id, sf]() {
                        ++cs(owner_id).flags[sf];
                        cs(owner_id).flagCond.notify_all();
                    });
                }
                Tick back = arrival_tick(owner_id, requester,
                                         bytes + header_bytes, rinj);
                deliver(requester, back, bytes, [&, requester, rf]() {
                    if (rf != no_flag) {
                        ++cs(requester).flags[rf];
                        cs(requester).flagCond.notify_all();
                    }
                });
            });
        };

        auto do_send = [&](const TraceEvent &ev) {
            charge_overhead(cost.send_overhead(
                ev.bytes, topo.distance(me, ev.peer)));
            Tick inj = inject_tick(ev.bytes);
            Tick arrive = arrival_tick(me, ev.peer,
                                       ev.bytes + header_bytes, inj);
            count_message(me, ev.peer, ev.bytes);
            CellId dst = ev.peer;
            CellId src = me;
            std::uint64_t bytes = ev.bytes;
            deliver(dst, arrive, bytes, [&, dst, src, bytes]() {
                cs(dst).sends[src].push_back(bytes);
                cs(dst).sendCond.notify_all();
            });
        };

        auto do_recv = [&](const TraceEvent &ev) {
            auto &queue = st.sends[ev.peer];
            while (queue.empty())
                proc.wait(st.sendCond);
            std::uint64_t bytes = queue.front();
            queue.pop_front();
            charge_overhead(cost.receive_overhead(bytes));
        };

        auto rendezvous = [&](std::deque<Rendezvous> &list, int seq,
                              int members, std::uint64_t bytes,
                              double latency_us, double active_us,
                              double exec_us) {
            while (static_cast<int>(list.size()) <= seq)
                list.emplace_back();
            Rendezvous &r = list[static_cast<std::size_t>(seq)];
            Tick arrive = sim.now();
            r.maxArrival = std::max(r.maxArrival, arrive);
            r.bytes = std::max(r.bytes, bytes);
            if (++r.arrived == members) {
                r.release =
                    r.maxArrival + us_to_ticks(latency_us);
                r.complete = true;
                sim.schedule(r.release,
                             [&r]() { r.cond.notify_all(); });
            }
            while (!(r.complete && sim.now() >= r.release))
                proc.wait(r.cond);
            // The window [arrive, release] covers active
            // participation and scaled compute; the rest of the
            // window falls out as residual idle at the end.
            double window = ticks_to_us(sim.now() - arrive);
            double active = std::min(active_us, window);
            double exec = std::min(exec_us, window - active);
            st.acct.overheadUs += active;
            st.acct.execUs += exec;
        };

        // ---- main loop --------------------------------------------------

        for (const TraceEvent &ev : trace.timeline(me)) {
            drain_backlog();
            if (ev.viaRts && (ev.op == TraceOp::put ||
                              ev.op == TraceOp::put_stride ||
                              ev.op == TraceOp::get ||
                              ev.op == TraceOp::get_stride)) {
                bool strided = ev.op == TraceOp::put_stride ||
                               ev.op == TraceOp::get_stride;
                charge_rts(cost.rts_transfer(strided));
            }

            switch (ev.op) {
              case TraceOp::compute: {
                double us = cost.compute(ev.computeUs);
                st.acct.execUs += us;
                proc.delay(us_to_ticks(us));
                break;
              }
              case TraceOp::put:
              case TraceOp::put_stride:
                do_put(ev);
                break;
              case TraceOp::get:
              case TraceOp::get_stride:
                do_get(ev);
                break;
              case TraceOp::send:
                do_send(ev);
                break;
              case TraceOp::recv:
                do_recv(ev);
                break;
              case TraceOp::barrier: {
                std::uint64_t key = ev.sendFlagAddr; // group hash
                int members = ev.waitTarget
                                  ? static_cast<int>(ev.waitTarget)
                                  : n;
                charge_overhead(params.barrier_prolog_time);
                rendezvous(barriers[key], st.barrierSeq[key]++,
                           members, 0, cost.barrier_latency(), 0, 0);
                break;
              }
              case TraceOp::gop: {
                std::uint64_t key = ev.sendFlagAddr;
                int members = ev.waitTarget
                                  ? static_cast<int>(ev.waitTarget)
                                  : n;
                rendezvous(gops[key], st.gopSeq[key]++, members,
                           ev.bytes, cost.gop_latency(members),
                           cost.gop_overhead(members), 0);
                break;
              }
              case TraceOp::vgop: {
                std::uint64_t key = ev.sendFlagAddr;
                int members = ev.waitTarget
                                  ? static_cast<int>(ev.waitTarget)
                                  : n;
                rendezvous(vgops[key], st.vgopSeq[key]++, members,
                           ev.bytes,
                           cost.vgop_latency(members, ev.bytes),
                           (members - 1) * cost.vgop_step(ev.bytes),
                           (members - 1) *
                               cost.vgop_combine(ev.bytes));
                break;
              }
              case TraceOp::bcast: {
                // Only the root drives the B-net; receiver events
                // are markers (they synchronize via flag waits).
                if (ev.peer != me)
                    break;
                charge_overhead(params.put_enqueue_time);
                Tick start = std::max(sim.now(), bnetBusy);
                Tick arrive =
                    start +
                    us_to_ticks(params.bnet_prolog_time +
                                params.bnet_msg_time *
                                    static_cast<double>(
                                        ev.bytes + header_bytes));
                bnetBusy = arrive;
                for (CellId dst = 0; dst < n; ++dst) {
                    if (dst == me)
                        continue;
                    Addr rf = ev.recvFlagAddr;
                    deliver(dst, arrive, ev.bytes, [&, dst, rf]() {
                        if (rf != no_flag) {
                            ++cs(dst).flags[rf];
                            cs(dst).flagCond.notify_all();
                        }
                    });
                }
                break;
              }
              case TraceOp::flag_wait: {
                charge_overhead(cost.flag_check_overhead());
                while (st.flags[ev.recvFlagAddr] < ev.waitTarget)
                    proc.wait(st.flagCond);
                break;
              }
              case TraceOp::ack_wait: {
                charge_overhead(cost.flag_check_overhead());
                while (st.acks < ev.waitTarget)
                    proc.wait(st.ackCond);
                break;
              }
            }
        }
        drain_backlog();
        st.acct.totalUs = ticks_to_us(sim.now());
        // Overhead stolen by asynchronous handlers can overlap
        // collective windows that were already charged; cap it so
        // the components tile the timeline exactly.
        st.acct.overheadUs =
            std::min(st.acct.overheadUs,
                     std::max(0.0, st.acct.totalUs - st.acct.execUs -
                                       st.acct.rtsUs));
        // Idle is the residual: whatever part of the timeline was
        // not execution, run-time system, or library/handler time
        // ("time spent waiting for messages ... flag update ...
        // establishment of barrier synchronization").
        st.acct.idleUs = std::max(
            0.0, st.acct.totalUs - st.acct.execUs - st.acct.rtsUs -
                     st.acct.overheadUs);
    };

    // ---- launch ----------------------------------------------------------

    std::vector<std::unique_ptr<sim::Process>> procs;
    procs.reserve(static_cast<std::size_t>(n));
    for (CellId c = 0; c < n; ++c) {
        procs.push_back(std::make_unique<sim::Process>(
            sim, strprintf("mlsim-cell%d", c),
            [&, c](sim::Process &p) { body(c, p); }));
        procs.back()->start(0);
    }

    sim.run();

    for (CellId c = 0; c < n; ++c) {
        if (!procs[static_cast<std::size_t>(c)]->finished()) {
            report.deadlock = true;
            warn("MLSim replay: cell %d never finished", c);
        }
        report.cells[static_cast<std::size_t>(c)] = cs(c).acct;
        report.totalUs = std::max(
            report.totalUs,
            cs(c).acct.totalUs);
    }
    return report;
}

} // namespace ap::mlsim
