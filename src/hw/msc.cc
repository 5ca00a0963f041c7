#include "hw/msc.hh"

#include <cstring>
#include <utility>

#include "base/logging.hh"
#include "hw/cell.hh"
#include "hw/dma.hh"

namespace ap::hw
{

Msc::Msc(sim::Simulator &sim, const MachineConfig &cfg,
         const mlsim::Params &costs, Cell &cell, net::Link &tnet,
         BufferPool &pool, sim::FaultInjector &faults,
         obs::SpanLayer &spans)
    : sim(sim), costs(costs), cell(cell), tnet(tnet), pool(pool),
      faults(faults), spans(spans), userQ(cfg.queueCapacityWords),
      systemQ(cfg.queueCapacityWords),
      remoteQ(cfg.queueCapacityWords),
      getReplyQ(cfg.queueCapacityWords),
      loadReplyQ(cfg.queueCapacityWords)
{
}

bool
Msc::injected_fault()
{
    bool hit = faults.active() && faults.inject_page_fault(cell.id());
    if (hit)
        note("fault", "injected_page_fault");
    return hit;
}

void
Msc::note(const char *cat, const char *prefix, const char *suffix)
{
    if (spans.full())
        spans.instant(cell.id(), cat, std::string(prefix) + suffix,
                      sim.now());
}

const char *
Msc::queue_name(const CommandQueue &q) const
{
    if (&q == &userQ)
        return "user_queue";
    if (&q == &systemQ)
        return "system_queue";
    if (&q == &remoteQ)
        return "remote_queue";
    if (&q == &getReplyQ)
        return "get_reply_queue";
    if (&q == &loadReplyQ)
        return "load_reply_queue";
    return "?";
}

void
Msc::enqueue(CommandQueue &q, Command cmd)
{
    cmd.issuedAt = sim.now();
    bool force = faults.active() && faults.force_overflow(cell.id());
    if (force)
        note("fault", "forced_spill");
    bool spilled = q.push(std::move(cmd), force);
    if (spilled)
        note("queue", "spill:", queue_name(q));
    // A forced spill can land in an otherwise-empty queue; make sure
    // the refill interrupt is pending before kick() skips the queue
    // for having no hardware-resident commands.
    maybe_refill(q);
    kick();
}

void
Msc::issue_user(Command cmd)
{
    enqueue(userQ, std::move(cmd));
}

void
Msc::issue_system(Command cmd)
{
    enqueue(systemQ, std::move(cmd));
}

std::uint64_t
Msc::issue_remote_load(CellId dst, Addr raddr, std::uint32_t size)
{
    Command cmd;
    cmd.kind = CommandKind::remote_load;
    cmd.dst = dst;
    cmd.raddr = raddr;
    cmd.remoteStride = net::StrideSpec::contiguous(size);
    cmd.token = nextLoadToken++;
    std::uint64_t token = cmd.token;
    cmd.traceId = spans.new_trace(cell.id());
    spans.record(cell.id(), cmd.traceId, obs::SpanStage::issue,
                 sim.now(), sim.now(), obs::SpanOp::remote_load);
    enqueue(remoteQ, std::move(cmd));
    return token;
}

bool
Msc::take_load_reply(std::uint64_t token,
                     std::vector<std::uint8_t> &out)
{
    auto it = loadReplies.find(token);
    if (it == loadReplies.end())
        return false;
    out = std::move(it->second);
    loadReplies.erase(it);
    return true;
}

void
Msc::issue_remote_store(CellId dst, Addr raddr,
                        std::vector<std::uint8_t> data)
{
    Command cmd;
    cmd.kind = CommandKind::remote_store;
    cmd.dst = dst;
    cmd.raddr = raddr;
    cmd.inlineData = std::move(data);
    cmd.traceId = spans.new_trace(cell.id());
    spans.record(cell.id(), cmd.traceId, obs::SpanStage::issue,
                 sim.now(), sim.now(), obs::SpanOp::remote_store);
    enqueue(remoteQ, std::move(cmd));
}

CommandQueue *
Msc::pick_queue()
{
    // Priority (Section 4.1): remote access is privileged because the
    // processor blocks on remote loads; remote-load replies precede
    // GET replies; system PUT/GET precedes user PUT/GET.
    CommandQueue *order[] = {&remoteQ, &loadReplyQ, &getReplyQ,
                             &systemQ, &userQ};
    for (CommandQueue *q : order)
        if (q->hw_depth() > 0)
            return q;
    return nullptr;
}

void
Msc::maybe_refill(CommandQueue &q)
{
    // "When the queue empties, the MSC+ interrupts the operating
    // system, which then loads data from the buffer in DRAM back into
    // the queue." Refills run concurrently with other queues' sends.
    if (!q.needs_refill() || q.refill_scheduled())
        return;
    q.set_refill_scheduled(true);
    sim.schedule_after(us_to_ticks(interrupt_us),
                       [this, &q]() {
                           q.refill();
                           q.set_refill_scheduled(false);
                           note("queue", "refill:", queue_name(q));
                           kick();
                       });
}

void
Msc::kick()
{
    if (senderBusy)
        return;
    CommandQueue *q = pick_queue();
    if (!q)
        return;
    senderBusy = true;
    senderOnUser = q == &userQ;
    Command cmd = q->pop();
    maybe_refill(*q);
    Tick popT = sim.now();
    spans.record(cell.id(), cmd.traceId, obs::SpanStage::queue,
                 cmd.issuedAt, popT);
    // One fused event covers the DMA setup plus the payload stream:
    // the byte count is known from the command's stride descriptor
    // before any data moves, so the gather itself can run at DMA
    // completion time (the send flag keeps the sending area stable
    // until then per Section 3.1) and the network injection lands at
    // the exact tick the two-event pipeline used to produce — at half
    // the event cost per send. The DMA streams at the link rate.
    Tick stream = us_to_ticks(costs.network_msg_time *
                              static_cast<double>(cmd.bytes()));
    auto fire = [this, cmd = std::move(cmd), popT]() mutable {
        process(std::move(cmd), popT);
    };
    static_assert(sim::EventFn::fits<decltype(fire)>(),
                  "send-pipeline closure must stay in the EventFn "
                  "inline buffer");
    sim.schedule_after(us_to_ticks(costs.put_dma_set_time) + stream,
                       std::move(fire));
}

void
Msc::process(Command cmd, Tick start)
{
    // Gather the payload this command sends, if any. Data-bearing
    // gathers fill a pooled buffer that the destination releases
    // after consuming it (receive_body / the RECEIVE copy-out), so
    // steady-state traffic recirculates payload storage.
    std::vector<std::uint8_t> payload;
    switch (cmd.kind) {
      case CommandKind::put:
      case CommandKind::send: {
        if (injected_fault()) {
            local_fault();
            return;
        }
        payload = pool.acquire();
        DmaResult r = DmaEngine::gather(cell.mc().mmu(),
                                        cell.mc().memory(), cmd.laddr,
                                        cmd.localStride, payload);
        if (!r.ok) {
            pool.release(std::move(payload));
            local_fault();
            return;
        }
        break;
      }
      case CommandKind::get_reply: {
        if (!cmd.isAckProbe) {
            if (injected_fault()) {
                local_fault();
                return;
            }
            payload = pool.acquire();
            DmaResult r = DmaEngine::gather(
                cell.mc().mmu(), cell.mc().memory(), cmd.raddr,
                cmd.remoteStride, payload);
            if (!r.ok) {
                pool.release(std::move(payload));
                local_fault();
                return;
            }
        }
        break;
      }
      case CommandKind::remote_store:
      case CommandKind::remote_load_reply:
        payload = std::move(cmd.inlineData);
        break;
      case CommandKind::get:
      case CommandKind::remote_load:
        break; // header-only requests
    }

    finish_send(std::move(cmd), std::move(payload), start);
}

void
Msc::finish_send(Command cmd, std::vector<std::uint8_t> payload,
                 Tick start)
{
    net::Message msg;
    msg.src = cell.id();
    msg.dst = cmd.dst;
    msg.traceId = cmd.traceId;
    mscStats.payloadBytesSent += payload.size();
    spans.record(cell.id(), cmd.traceId, obs::SpanStage::dma_send,
                 start, sim.now());

    switch (cmd.kind) {
      case CommandKind::put:
        msg.kind = net::MsgKind::put_data;
        msg.raddr = cmd.raddr;
        msg.laddr = cmd.laddr;
        msg.destFlag = cmd.recvFlag;
        msg.remoteStride = cmd.remoteStride;
        msg.payload = std::move(payload);
        ++mscStats.putsSent;
        break;
      case CommandKind::send:
        msg.kind = net::MsgKind::put_data;
        msg.toRingBuffer = true;
        msg.tag = cmd.tag;
        msg.destFlag = cmd.recvFlag;
        msg.payload = std::move(payload);
        ++mscStats.sendsSent;
        break;
      case CommandKind::get:
        msg.kind = net::MsgKind::get_request;
        msg.raddr = cmd.raddr;
        msg.laddr = cmd.laddr;
        msg.destFlag = cmd.sendFlag;   // bumps at the data owner
        msg.originFlag = cmd.recvFlag; // rides back in the reply
        msg.remoteStride = cmd.remoteStride;
        msg.localStride = cmd.localStride;
        msg.isAckProbe = cmd.isAckProbe;
        ++mscStats.getsSent;
        break;
      case CommandKind::get_reply:
        msg.kind = net::MsgKind::get_reply;
        msg.laddr = cmd.laddr;
        msg.originFlag = cmd.recvFlag;
        msg.localStride = cmd.localStride;
        msg.isAckProbe = cmd.isAckProbe;
        msg.payload = std::move(payload);
        ++mscStats.getRepliesSent;
        break;
      case CommandKind::remote_store:
        msg.kind = net::MsgKind::remote_store;
        msg.raddr = cmd.raddr;
        msg.payload = std::move(payload);
        break;
      case CommandKind::remote_load:
        msg.kind = net::MsgKind::remote_load;
        msg.raddr = cmd.raddr;
        msg.remoteStride = cmd.remoteStride;
        msg.token = cmd.token;
        break;
      case CommandKind::remote_load_reply:
        msg.kind = net::MsgKind::remote_load_reply;
        msg.token = cmd.token;
        msg.payload = std::move(payload);
        break;
    }

    tnet.send(std::move(msg));

    mscStats.cmdLatencyUs.sample(
        static_cast<std::uint64_t>(ticks_to_us(
            sim.now() - cmd.issuedAt)));

    // Combined flag update: the send flag increments when the send
    // DMA completes (PUT/SEND at the origin; GET at the data owner,
    // via the get_reply command's sendFlag).
    if (cmd.kind == CommandKind::put ||
        cmd.kind == CommandKind::send ||
        cmd.kind == CommandKind::get_reply) {
        if (cmd.sendFlag != no_flag) {
            sim.schedule_after(
                us_to_ticks(costs.send_complete_flag_time),
                [this, flag = cmd.sendFlag, tid = cmd.traceId,
                 fbegin = sim.now()]() {
                    spans.record(cell.id(), tid, obs::SpanStage::flag,
                                 fbegin, sim.now());
                    cell.mc().increment_flag(flag);
                });
        }
    }

    sender_idle();
}

void
Msc::sender_idle()
{
    senderBusy = false;
    if (senderOnUser) {
        ++userDone;
        userDoneCond.notify_all();
    }
    kick();
}

void
Msc::local_fault()
{
    ++mscStats.localFaults;
    note("fault", "local_fault");
    // The OS services the fault; the command is dropped.
    sim.schedule_after(us_to_ticks(interrupt_us),
                       [this]() { sender_idle(); });
}

void
Msc::remote_fault()
{
    // "If a page fault happens in a remote cell during message
    // transfer, the MSC+ interrupts the operating system and pulls
    // the remaining message from the network."
    ++mscStats.remoteFaults;
    ++mscStats.flushedMessages;
    note("fault", "remote_fault_flush");
    recvBusyUntil =
        std::max(recvBusyUntil, sim.now()) +
        us_to_ticks(interrupt_us);
}

void
Msc::deliver(net::Message msg)
{
    // Serialize the receive DMA: one message at a time drains from
    // the network into memory.
    Tick start = std::max(sim.now(), recvBusyUntil);
    Tick dma = us_to_ticks(
        costs.recv_dma_set_time +
        costs.network_msg_time *
            static_cast<double>(msg.payload.size()));
    Tick finish = start + dma;
    recvBusyUntil = finish;
    spans.record(cell.id(), msg.traceId, obs::SpanStage::dma_recv,
                 sim.now(), finish);
    auto fire = [this, msg = std::move(msg)]() mutable {
        receive_body(std::move(msg));
    };
    static_assert(sim::EventFn::fits<decltype(fire)>(),
                  "receive closure must stay in the EventFn inline "
                  "buffer");
    sim.schedule(finish, std::move(fire));
}

void
Msc::receive_body(net::Message msg)
{
    mscStats.payloadBytesReceived += msg.payload.size();

    switch (msg.kind) {
      case net::MsgKind::put_data: {
        if (msg.toRingBuffer) {
            ++mscStats.sendsReceived;
            SendRecord rec{msg.src, msg.tag,
                           std::move(msg.payload)};
            rec.traceId = msg.traceId;
            cell.ring().deposit(std::move(rec));
        } else {
            ++mscStats.putsReceived;
            if (injected_fault()) {
                remote_fault();
                return;
            }
            DmaResult r = DmaEngine::scatter(
                cell.mc().mmu(), cell.mc().memory(), msg.raddr,
                msg.remoteStride, msg.payload);
            if (!r.ok) {
                remote_fault();
                return;
            }
            pool.release(std::move(msg.payload));
        }
        if (msg.destFlag != no_flag)
            spans.record(cell.id(), msg.traceId, obs::SpanStage::flag,
                         sim.now(), sim.now());
        cell.mc().increment_flag(msg.destFlag);
        break;
      }
      case net::MsgKind::get_request: {
        ++mscStats.getRequestsReceived;
        Command reply;
        reply.kind = CommandKind::get_reply;
        reply.traceId = msg.traceId;
        reply.dst = msg.src;
        reply.raddr = msg.raddr;
        reply.laddr = msg.laddr;
        reply.sendFlag = msg.destFlag;
        reply.recvFlag = msg.originFlag;
        reply.remoteStride = msg.remoteStride;
        reply.localStride = msg.localStride;
        reply.isAckProbe = msg.isAckProbe;
        enqueue(getReplyQ, std::move(reply));
        break;
      }
      case net::MsgKind::get_reply: {
        ++mscStats.getRepliesReceived;
        if (!msg.isAckProbe && !msg.payload.empty()) {
            if (injected_fault()) {
                remote_fault();
                return;
            }
            DmaResult r = DmaEngine::scatter(
                cell.mc().mmu(), cell.mc().memory(), msg.laddr,
                msg.localStride, msg.payload);
            if (!r.ok) {
                remote_fault();
                return;
            }
            pool.release(std::move(msg.payload));
        }
        if (msg.isAckProbe) {
            ++ackFlag;
            ++mscStats.acksReceived;
            ackCond.notify_all();
        }
        if (msg.originFlag != no_flag || msg.isAckProbe)
            spans.record(cell.id(), msg.traceId, obs::SpanStage::flag,
                         sim.now(), sim.now());
        cell.mc().increment_flag(msg.originFlag);
        break;
      }
      case net::MsgKind::remote_store: {
        ++mscStats.remoteStores;
        if (Mc::is_commreg(msg.raddr)) {
            // Communication registers live in shared space; remote
            // stores to them land in the register file (Section 4.4).
            if (msg.payload.size() != 4 && msg.payload.size() != 8)
                panic("commreg store of %zu bytes (need 4 or 8)",
                      msg.payload.size());
            int index = Mc::commreg_index(msg.raddr);
            for (std::size_t w = 0; w < msg.payload.size() / 4; ++w) {
                std::uint32_t v = 0;
                std::memcpy(&v, msg.payload.data() + 4 * w, 4);
                cell.mc().regs().store(index + static_cast<int>(w), v);
            }
        } else if (!cell.mc().store(msg.raddr, msg.payload)) {
            remote_fault();
            return;
        }
        pool.release(std::move(msg.payload));
        // Automatic acknowledgement (Section 4.2).
        net::Message ack;
        ack.kind = net::MsgKind::remote_store_ack;
        ack.traceId = msg.traceId;
        ack.src = cell.id();
        ack.dst = msg.src;
        tnet.send(std::move(ack));
        break;
      }
      case net::MsgKind::remote_store_ack:
        ++ackFlag;
        ++mscStats.acksReceived;
        spans.record(cell.id(), msg.traceId, obs::SpanStage::flag,
                     sim.now(), sim.now());
        ackCond.notify_all();
        break;
      case net::MsgKind::remote_load: {
        ++mscStats.remoteLoads;
        std::vector<std::uint8_t> data;
        DmaResult r = DmaEngine::gather(cell.mc().mmu(),
                                        cell.mc().memory(), msg.raddr,
                                        msg.remoteStride, data);
        if (!r.ok) {
            remote_fault();
            return;
        }
        Command reply;
        reply.kind = CommandKind::remote_load_reply;
        reply.traceId = msg.traceId;
        reply.dst = msg.src;
        reply.token = msg.token;
        reply.inlineData = std::move(data);
        enqueue(loadReplyQ, std::move(reply));
        break;
      }
      case net::MsgKind::remote_load_reply:
        loadReplies[msg.token] = std::move(msg.payload);
        spans.record(cell.id(), msg.traceId, obs::SpanStage::flag,
                     sim.now(), sim.now());
        loadCond.notify_all();
        break;
      case net::MsgKind::broadcast: {
        // B-net data distribution: land the payload like a PUT.
        if (injected_fault()) {
            remote_fault();
            return;
        }
        DmaResult r = DmaEngine::scatter(
            cell.mc().mmu(), cell.mc().memory(), msg.raddr,
            net::StrideSpec::contiguous(static_cast<std::uint32_t>(
                msg.payload.size())),
            msg.payload);
        if (!r.ok) {
            remote_fault();
            return;
        }
        pool.release(std::move(msg.payload));
        if (msg.destFlag != no_flag)
            spans.record(cell.id(), msg.traceId, obs::SpanStage::flag,
                         sim.now(), sim.now());
        cell.mc().increment_flag(msg.destFlag);
        break;
      }
      case net::MsgKind::rnet_ack:
        // Protocol-internal; the reliable layer consumes these before
        // they reach the MSC+. Nothing to do if one slips through.
        break;
    }
}

} // namespace ap::hw
