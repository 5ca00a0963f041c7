#include "core/context.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace ap::core
{

namespace
{

/** First heap address; 0 is reserved (no_flag / ack probe). */
constexpr Addr heap_base = 0x100;

} // namespace

// ---------------------------------------------------------------- Group

Group::Group(std::vector<CellId> members) : ids(std::move(members))
{
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (ids.empty())
        fatal("a group needs at least one member");
}

Group
Group::all(int cells)
{
    std::vector<CellId> m(static_cast<std::size_t>(cells));
    for (int i = 0; i < cells; ++i)
        m[static_cast<std::size_t>(i)] = i;
    return Group(std::move(m));
}

Group
Group::range(CellId first, int count)
{
    std::vector<CellId> m;
    m.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        m.push_back(first + i);
    return Group(std::move(m));
}

Group
Group::strided(CellId first, int count, int stride)
{
    std::vector<CellId> m;
    m.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        m.push_back(first + i * stride);
    return Group(std::move(m));
}

int
Group::rank_of(CellId cell) const
{
    auto it = std::lower_bound(ids.begin(), ids.end(), cell);
    if (it == ids.end() || *it != cell)
        return -1;
    return static_cast<int>(it - ids.begin());
}

CellId
Group::at(int rank) const
{
    if (rank < 0 || rank >= size())
        panic("group rank %d out of range (size %d)", rank, size());
    return ids[static_cast<std::size_t>(rank)];
}

// -------------------------------------------------------------- Context

Context::Context(hw::Machine &machine, CellId id, sim::Process &proc,
                 net::Snet::ContextId allBarrier, Trace *trace)
    : machine(machine), cellId(id), proc(proc),
      allBarrier(allBarrier), traceSink(trace), heapNext(heap_base),
      ackBase(machine.cell(id).msc().ack_count())
{
}

Addr
Context::scratch_flag()
{
    if (scratchFlagAddr == 0)
        scratchFlagAddr = alloc_flag();
    return scratchFlagAddr;
}

Addr
Context::scratch_buffer(std::size_t bytes)
{
    // Size-class cache so repeated collectives don't leak the bump
    // allocator dry.
    std::size_t cls = 64;
    while (cls < bytes)
        cls *= 2;
    auto it = scratchBufs.find(cls);
    if (it != scratchBufs.end())
        return it->second;
    Addr a = alloc(cls);
    scratchBufs.emplace(cls, a);
    return a;
}

Addr
Context::verify_buffer(std::size_t bytes)
{
    // Read-back verification needs its own buffer: scratch_buffer()
    // doubles as the internal-send staging area, which an in-flight
    // send DMA may still be gathering from.
    if (verifyBufSize < bytes) {
        std::size_t cls = 64;
        while (cls < bytes)
            cls *= 2;
        verifyBufAddr = alloc(cls);
        verifyBufSize = cls;
    }
    return verifyBufAddr;
}

Tick
Context::now() const
{
    return machine.sim().now();
}

void
Context::trace(TraceEvent ev)
{
    if (traceSink) {
        ev.at = machine.sim().now();
        ev.viaRts = rtsMode;
        traceSink->record(cellId, ev);
    }
}

void
Context::set_rts_mode(bool on)
{
    rtsMode = on;
}

// -- fail-stop / watchdog ----------------------------------------------

void
Context::check_alive()
{
    if (machine.cell_failed(cellId))
        throw CommError(
            CommError::Kind::cell_failed, cellId, cellId,
            strprintf("cell %d is fail-stop; communication aborted\n%s",
                      cellId, machine.postmortem().c_str()));
}

void
Context::watchdog_fire(const WaitOn &on)
{
    if (machine.cell_failed(cellId))
        throw CommError(
            CommError::Kind::cell_failed, cellId, cellId,
            strprintf("cell %d: %s interrupted: cell is fail-stop\n%s",
                      cellId, on.what, machine.postmortem().c_str()));
    throw CommError(
        CommError::Kind::watchdog, cellId, cellId,
        strprintf("cell %d: watchdog expired after %.0f us blocked in "
                  "%s (addr=%#llx want %llu)\n%s%s",
                  cellId, machine.config().retry.watchdogUs, on.what,
                  static_cast<unsigned long long>(on.addr),
                  static_cast<unsigned long long>(on.target),
                  machine.wait_graph().c_str(),
                  machine.postmortem().c_str()));
}

Group
Context::live_group() const
{
    std::vector<CellId> m;
    for (int i = 0; i < machine.size(); ++i)
        if (!machine.cell_failed(i))
            m.push_back(i);
    if (m.empty())
        fatal("every cell has failed");
    return Group(std::move(m));
}

// -- local memory ------------------------------------------------------

Addr
Context::alloc(std::size_t bytes)
{
    Addr addr = heapNext;
    heapNext += (bytes + 7) & ~std::size_t{7};
    if (heapNext > machine.config().memBytesPerCell)
        fatal("cell %d out of memory (heap %llu > %zu bytes); raise "
              "MachineConfig::memBytesPerCell",
              cellId, static_cast<unsigned long long>(heapNext),
              machine.config().memBytesPerCell);
    return addr;
}

Addr
Context::alloc_flag()
{
    Addr f = alloc(4);
    poke_u32(f, 0);
    return f;
}

void
Context::poke(Addr addr, std::span<const std::uint8_t> data)
{
    if (!cell().mc().store(addr, data))
        fatal("cell %d: poke fault at %#llx", cellId,
              static_cast<unsigned long long>(addr));
}

void
Context::peek(Addr addr, std::span<std::uint8_t> out) const
{
    if (!machine.cell(cellId).mc().load(addr, out))
        fatal("cell %d: peek fault at %#llx", cellId,
              static_cast<unsigned long long>(addr));
}

void
Context::poke_f64(Addr addr, double v)
{
    std::uint8_t buf[8];
    std::memcpy(buf, &v, 8);
    poke(addr, buf);
}

double
Context::peek_f64(Addr addr) const
{
    std::uint8_t buf[8];
    peek(addr, buf);
    double v;
    std::memcpy(&v, buf, 8);
    return v;
}

void
Context::poke_u32(Addr addr, std::uint32_t v)
{
    std::uint8_t buf[4];
    std::memcpy(buf, &v, 4);
    poke(addr, buf);
}

std::uint32_t
Context::peek_u32(Addr addr) const
{
    std::uint8_t buf[4];
    peek(addr, buf);
    std::uint32_t v;
    std::memcpy(&v, buf, 4);
    return v;
}

// -- internal (library-level) primitives ---------------------------------

void
Context::wait_flag_internal(Addr flag_addr, std::uint32_t target)
{
    park(cell().mc().flag_cond(),
         [&] { return flag(flag_addr) >= target; },
         {"wait_flag_internal", flag_addr, target});
}

void
Context::internal_send(CellId dst, std::int32_t tag,
                       std::span<const std::uint8_t> data)
{
    if (internalSendFlag == 0)
        internalSendFlag = alloc_flag();
    // The staging buffer is reused; the send flag protects it the way
    // Section 3.1 prescribes for any non-blocking send area.
    wait_flag_internal(internalSendFlag, internalSendCount);
    Addr buf = scratch_buffer(data.size());
    poke(buf, data);

    hw::Command cmd;
    cmd.kind = hw::CommandKind::send;
    cmd.dst = dst;
    cmd.laddr = buf;
    cmd.tag = tag;
    cmd.sendFlag = internalSendFlag;
    cmd.localStride = net::StrideSpec::contiguous(
        static_cast<std::uint32_t>(data.size()));
    issue(std::move(cmd));
    ++internalSendCount;
}

hw::SendRecord
Context::internal_recv(CellId src, std::int32_t tag)
{
    proc.delay(us_to_ticks(machine.costs().recv_search_time));
    return ring_take_guarded(src, tag, /*in_place=*/true,
                             "recv_reduce");
}

hw::SendRecord
Context::ring_take_guarded(CellId src, std::int32_t tag,
                           bool in_place, const char *what)
{
    hw::RingBuffer &ring = cell().ring();
    hw::SendRecord rec;
    park(ring.arrival_cond(),
         [&] { return ring.try_receive(src, tag, rec, in_place); },
         {what, /*addr=*/0,
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag))});
    return rec;
}

// -- command issue -----------------------------------------------------

void
Context::issue(hw::Command cmd)
{
    check_alive();
    // Writing the 8 parameter words to the MSC+ special address.
    Tick t0 = machine.sim().now();
    proc.delay(us_to_ticks(machine.costs().put_enqueue_time));
    if ((cmd.traceId = machine.spans().new_trace(cellId)) != 0) {
        obs::SpanOp op = obs::SpanOp::none;
        switch (cmd.kind) {
          case hw::CommandKind::put:
            op = obs::SpanOp::put;
            break;
          case hw::CommandKind::get:
            op = cmd.isAckProbe ? obs::SpanOp::ack : obs::SpanOp::get;
            break;
          case hw::CommandKind::send:
            op = obs::SpanOp::send;
            break;
          default:
            break;
        }
        machine.spans().record(cellId, cmd.traceId,
                               obs::SpanStage::issue, t0,
                               machine.sim().now(), op);
    }
    cell().msc().issue_user(std::move(cmd));
}

void
Context::ack_probe(CellId dst)
{
    TraceEvent ev;
    ev.op = TraceOp::put;
    ev.peer = dst;
    ev.bytes = 0;
    ev.ack = true;
    trace(ev);
    issue_ack_probe(dst);
}

void
Context::issue_ack_probe(CellId dst)
{
    hw::Command probe;
    probe.kind = hw::CommandKind::get;
    probe.dst = dst;
    probe.raddr = ack_probe_addr;
    probe.isAckProbe = true;
    probe.remoteStride = net::StrideSpec::contiguous(0);
    probe.localStride = net::StrideSpec::contiguous(0);
    ++acksOutstanding;
    ++tracedPutAcks;
    ++ctxStats.acksRequested;
    issue(probe);
}

// -- PUT/GET -----------------------------------------------------------

void
Context::put(CellId dst, Addr raddr, Addr laddr, std::uint32_t size,
             Addr send_flag, Addr recv_flag, bool ack)
{
    put_stride(dst, raddr, laddr, ack, send_flag, recv_flag,
               net::StrideSpec::contiguous(size),
               net::StrideSpec::contiguous(size));
}

void
Context::put_stride(CellId dst, Addr raddr, Addr laddr, bool ack,
                    Addr send_flag, Addr recv_flag,
                    net::StrideSpec send_spec,
                    net::StrideSpec recv_spec)
{
    if (send_spec.total_bytes() != recv_spec.total_bytes())
        fatal("put_stride: send pattern (%llu B) != recv pattern "
              "(%llu B)",
              static_cast<unsigned long long>(send_spec.total_bytes()),
              static_cast<unsigned long long>(recv_spec.total_bytes()));

    bool strided = !send_spec.is_contiguous() ||
                   !recv_spec.is_contiguous();
    TraceEvent ev;
    ev.op = strided ? TraceOp::put_stride : TraceOp::put;
    ev.peer = dst;
    ev.bytes = send_spec.total_bytes();
    ev.items = std::max(send_spec.count, recv_spec.count);
    ev.ack = ack;
    ev.sendFlagAddr = send_flag;
    ev.recvFlagAddr = recv_flag;
    trace(ev);

    if (strided)
        ++ctxStats.putStrides;
    else
        ++ctxStats.puts;
    ctxStats.putBytes += send_spec.total_bytes();

    hw::Command cmd;
    cmd.kind = hw::CommandKind::put;
    cmd.dst = dst;
    cmd.raddr = raddr;
    cmd.laddr = laddr;
    cmd.sendFlag = send_flag;
    cmd.recvFlag = recv_flag;
    cmd.localStride = send_spec;
    cmd.remoteStride = recv_spec;
    issue(std::move(cmd));

    // "The program issues a GET operation after the PUT operation,
    // and the program uses the GET reply packet for acknowledgment"
    // — in-order T-net delivery makes the reply imply PUT receipt.
    if (ack)
        issue_ack_probe(dst);
}

void
Context::get(CellId dst, Addr raddr, Addr laddr, std::uint32_t size,
             Addr send_flag, Addr recv_flag)
{
    get_stride(dst, raddr, laddr, send_flag, recv_flag,
               net::StrideSpec::contiguous(size),
               net::StrideSpec::contiguous(size));
}

void
Context::get_stride(CellId dst, Addr raddr, Addr laddr,
                    Addr send_flag, Addr recv_flag,
                    net::StrideSpec send_spec,
                    net::StrideSpec recv_spec)
{
    if (send_spec.total_bytes() != recv_spec.total_bytes())
        fatal("get_stride: send pattern (%llu B) != recv pattern "
              "(%llu B)",
              static_cast<unsigned long long>(send_spec.total_bytes()),
              static_cast<unsigned long long>(recv_spec.total_bytes()));

    bool strided = !send_spec.is_contiguous() ||
                   !recv_spec.is_contiguous();
    TraceEvent ev;
    ev.op = strided ? TraceOp::get_stride : TraceOp::get;
    ev.peer = dst;
    ev.bytes = send_spec.total_bytes();
    ev.items = std::max(send_spec.count, recv_spec.count);
    ev.sendFlagAddr = send_flag;
    ev.recvFlagAddr = recv_flag;
    trace(ev);

    if (strided)
        ++ctxStats.getStrides;
    else
        ++ctxStats.gets;
    ctxStats.getBytes += send_spec.total_bytes();

    hw::Command cmd;
    cmd.kind = hw::CommandKind::get;
    cmd.dst = dst;
    cmd.raddr = raddr;
    cmd.laddr = laddr;
    cmd.sendFlag = send_flag; // bumps at the data owner
    cmd.recvFlag = recv_flag; // bumps here when data lands
    cmd.remoteStride = send_spec; // gather pattern at the owner
    cmd.localStride = recv_spec;  // scatter pattern here
    issue(std::move(cmd));
}

void
Context::put_stride_2d(CellId dst, Addr raddr, Addr laddr, bool ack,
                       Addr send_flag, Addr recv_flag,
                       net::StrideSpec send_spec,
                       net::StrideSpec recv_spec,
                       std::uint32_t planes, Addr send_plane_pitch,
                       Addr recv_plane_pitch)
{
    for (std::uint32_t k = 0; k < planes; ++k) {
        // Only the last plane carries the acknowledgement: the
        // in-order T-net makes it cover the whole burst.
        bool last = k + 1 == planes;
        put_stride(dst, raddr + recv_plane_pitch * k,
                   laddr + send_plane_pitch * k, ack && last,
                   last ? send_flag : no_flag, recv_flag, send_spec,
                   recv_spec);
    }
}

// -- runtime direct remote access ---------------------------------------

bool
Context::timed_get(CellId dst, Addr raddr, Addr laddr,
                   std::uint32_t size, Tick timeout, int max_retries)
{
    // A dedicated completion flag would burn heap per call; reuse a
    // per-context scratch flag and wait for its next value. Every
    // reissue targets the same flag, so any one surviving reply
    // satisfies the wait; duplicates merely overshoot it.
    Addr f = scratch_flag();
    std::uint32_t before = flag(f);
    for (int attempt = 0; attempt <= max_retries; ++attempt) {
        get(dst, raddr, laddr, size, no_flag, f);
        if (wait_flag_for(f, before + 1,
                          machine.sim().now() + timeout))
            return true;
    }
    return false;
}

void
Context::wait_user_commands_done()
{
    hw::Msc &msc = cell().msc();
    park(msc.user_done_cond(),
         [&] { return msc.user_done() >= msc.user_issued(); },
         {"user_commands", no_flag, msc.user_issued()});
}

void
Context::write_remote(CellId dst, Addr raddr, Addr laddr,
                      std::uint32_t size)
{
    const hw::RetryPolicy &retry = machine.config().retry;
    if (!retry.enabled()) {
        put(dst, raddr, laddr, size, no_flag, no_flag, true);
        wait_all_acks();
        return;
    }

    std::vector<std::uint8_t> want(size);
    peek(laddr, want);
    Addr check = verify_buffer(size);
    std::vector<std::uint8_t> got(size);
    for (int attempt = 0; attempt <= retry.maxRetries; ++attempt) {
        // Exponential backoff: later attempts wait longer before
        // declaring the transfer lost, up to the policy cap.
        Tick timeout = us_to_ticks(retry.attempt_timeout_us(attempt));
        put(dst, raddr, laddr, size, no_flag, no_flag, true);
        if (!wait_all_acks_for(machine.sim().now() + timeout))
            resync_acks();
        // The acknowledge probe alone cannot prove delivery under
        // message loss — the probe's round trip may survive while the
        // PUT it follows was dropped. Read the bytes back and compare;
        // only the remote memory itself is authoritative.
        if (timed_get(dst, raddr, check, size, timeout, 0)) {
            peek(check, got);
            if (got == want) {
                // A duplicated reply of an earlier operation can meet
                // the ack and flag counts while this call's last PUT
                // still waits to gather @p laddr: hold the caller
                // until it has, so reusing the buffer cannot leak
                // into the slot.
                wait_user_commands_done();
                return;
            }
        }
    }
    wait_user_commands_done();
    machine.note_retry_giveup();
    throw CommError(
        CommError::Kind::timeout, cellId, dst,
        strprintf("cell %d: write_remote(%u B to cell %d at %#llx) "
                  "unacknowledged after %d attempts\n%s",
                  cellId, size, dst,
                  static_cast<unsigned long long>(raddr),
                  retry.maxRetries + 1,
                  machine.postmortem().c_str()));
}

void
Context::read_remote(CellId dst, Addr raddr, Addr laddr,
                     std::uint32_t size)
{
    const hw::RetryPolicy &retry = machine.config().retry;
    if (!retry.enabled()) {
        Addr f = scratch_flag();
        std::uint32_t before = flag(f);
        get(dst, raddr, laddr, size, no_flag, f);
        wait_flag(f, before + 1);
        return;
    }

    for (int attempt = 0; attempt <= retry.maxRetries; ++attempt)
        if (timed_get(dst, raddr, laddr, size,
                      us_to_ticks(retry.attempt_timeout_us(attempt)),
                      0))
            return;
    machine.note_retry_giveup();
    throw CommError(
            CommError::Kind::timeout, cellId, dst,
            strprintf("cell %d: read_remote(%u B from cell %d at "
                      "%#llx) got no reply after %d attempts\n%s",
                      cellId, size, dst,
                      static_cast<unsigned long long>(raddr),
                      retry.maxRetries + 1,
                      machine.postmortem().c_str()));
}

// -- completion ----------------------------------------------------------

std::uint32_t
Context::flag(Addr flag_addr) const
{
    return machine.cell(cellId).mc().read_flag(flag_addr);
}

void
Context::wait_flag(Addr flag_addr, std::uint32_t target)
{
    TraceEvent ev;
    ev.op = TraceOp::flag_wait;
    ev.waitTarget = target;
    ev.recvFlagAddr = flag_addr;
    trace(ev);

    check_alive();
    proc.delay(us_to_ticks(machine.costs().flag_check_prolog_time));
    park(cell().mc().flag_cond(),
         [&] { return flag(flag_addr) >= target; },
         {"wait_flag", flag_addr, target, /*span=*/true});
}

void
Context::wait_all_acks()
{
    TraceEvent ev;
    ev.op = TraceOp::ack_wait;
    // Replay models PUT-acknowledge round trips only; collective-
    // internal and DSM acknowledgements are folded into their own
    // cost models.
    ev.waitTarget = tracedPutAcks;
    trace(ev);

    check_alive();
    proc.delay(us_to_ticks(machine.costs().flag_check_prolog_time));
    std::uint64_t target = ackBase + acksOutstanding;
    park(cell().msc().ack_cond(),
         [&] { return cell().msc().ack_count() >= target; },
         {"wait_acks", no_flag, target, /*span=*/true});
}

bool
Context::wait_flag_for(Addr flag_addr, std::uint32_t target,
                       Tick deadline)
{
    proc.delay(us_to_ticks(machine.costs().flag_check_prolog_time));
    return park(cell().mc().flag_cond(),
                [&] { return flag(flag_addr) >= target; },
                {"wait_flag_for", flag_addr, target}, deadline);
}

bool
Context::wait_all_acks_for(Tick deadline)
{
    proc.delay(us_to_ticks(machine.costs().flag_check_prolog_time));
    std::uint64_t target = ackBase + acksOutstanding;
    return park(cell().msc().ack_cond(),
                [&] { return cell().msc().ack_count() >= target; },
                {"wait_acks_for", no_flag, target}, deadline);
}

void
Context::resync_acks()
{
    ackBase = cell().msc().ack_count();
    acksOutstanding = 0;
}

// -- distributed shared memory -------------------------------------------

std::uint32_t
Context::remote_load_u32(CellId dst, Addr raddr)
{
    check_alive();
    proc.delay(us_to_ticks(hw::remote_access_issue_us));
    std::uint64_t token = cell().msc().issue_remote_load(dst, raddr, 4);
    std::vector<std::uint8_t> data;
    wait_load_reply(token, raddr, data);
    std::uint32_t v = 0;
    std::memcpy(&v, data.data(), 4);
    return v;
}

std::uint64_t
Context::remote_load_u64(CellId dst, Addr raddr)
{
    check_alive();
    proc.delay(us_to_ticks(hw::remote_access_issue_us));
    std::uint64_t token = cell().msc().issue_remote_load(dst, raddr, 8);
    std::vector<std::uint8_t> data;
    wait_load_reply(token, raddr, data);
    std::uint64_t v = 0;
    std::memcpy(&v, data.data(), 8);
    return v;
}

void
Context::wait_load_reply(std::uint64_t token, Addr raddr,
                         std::vector<std::uint8_t> &data)
{
    hw::Msc &msc = cell().msc();
    park(msc.load_cond(),
         [&] { return msc.take_load_reply(token, data); },
         {"remote_load", raddr, token});
}

void
Context::remote_store_u32(CellId dst, Addr raddr, std::uint32_t v)
{
    check_alive();
    proc.delay(us_to_ticks(hw::remote_access_issue_us));
    std::vector<std::uint8_t> data(4);
    std::memcpy(data.data(), &v, 4);
    ++acksOutstanding;
    cell().msc().issue_remote_store(dst, raddr, std::move(data));
}

void
Context::remote_store_u64(CellId dst, Addr raddr, std::uint64_t v)
{
    check_alive();
    proc.delay(us_to_ticks(hw::remote_access_issue_us));
    std::vector<std::uint8_t> data(8);
    std::memcpy(data.data(), &v, 8);
    ++acksOutstanding;
    cell().msc().issue_remote_store(dst, raddr, std::move(data));
}

Addr
Context::shared_addr(CellId cell, Addr local) const
{
    return machine.dsm().encode(cell, local);
}

std::uint32_t
Context::shared_load_u32(Addr global)
{
    auto target = machine.dsm().decode(global);
    if (!target)
        fatal("cell %d: %#llx is not a shared-space address", cellId,
              static_cast<unsigned long long>(global));
    if (target->cell == cellId)
        return peek_u32(target->localAddr);
    return remote_load_u32(target->cell, target->localAddr);
}

void
Context::shared_store_u32(Addr global, std::uint32_t v)
{
    auto target = machine.dsm().decode(global);
    if (!target)
        fatal("cell %d: %#llx is not a shared-space address", cellId,
              static_cast<unsigned long long>(global));
    if (target->cell == cellId) {
        poke_u32(target->localAddr, v);
        return;
    }
    remote_store_u32(target->cell, target->localAddr, v);
}

// -- B-net broadcast --------------------------------------------------------

void
Context::broadcast(CellId root, Addr laddr, std::uint32_t size,
                   Addr recv_flag)
{
    TraceEvent ev;
    ev.op = TraceOp::bcast;
    ev.peer = root;
    ev.bytes = size;
    ev.recvFlagAddr = recv_flag;
    trace(ev);

    if (cellId != root)
        return; // receivers synchronize on the flag

    // The B-net is driven like a PUT: parameters plus payload gather.
    Tick t0 = machine.sim().now();
    proc.delay(us_to_ticks(machine.costs().put_enqueue_time));
    std::vector<std::uint8_t> payload(size);
    peek(laddr, payload);

    net::Message msg;
    msg.kind = net::MsgKind::broadcast;
    msg.src = cellId;
    msg.raddr = laddr;
    msg.destFlag = recv_flag;
    msg.payload = std::move(payload);
    if ((msg.traceId = machine.spans().new_trace(cellId)) != 0)
        machine.spans().record(cellId, msg.traceId,
                               obs::SpanStage::issue, t0,
                               machine.sim().now(),
                               obs::SpanOp::bcast);
    machine.bnet().broadcast(std::move(msg));
}

// -- SEND/RECEIVE ---------------------------------------------------------

void
Context::send(CellId dst, std::int32_t tag, Addr laddr,
              std::uint32_t size)
{
    TraceEvent ev;
    ev.op = TraceOp::send;
    ev.peer = dst;
    ev.bytes = size;
    trace(ev);
    ++ctxStats.sends;

    hw::Command cmd;
    cmd.kind = hw::CommandKind::send;
    cmd.dst = dst;
    cmd.laddr = laddr;
    cmd.tag = tag;
    cmd.localStride = net::StrideSpec::contiguous(size);
    issue(std::move(cmd));
}

std::uint32_t
Context::recv(CellId src, std::int32_t tag, Addr laddr,
              std::uint32_t max_size)
{
    check_alive();
    ++ctxStats.recvs;

    // RECEIVE searches the ring buffer, then copies to the user area
    // — the intrinsic SEND/RECEIVE overhead (Section 1.3).
    proc.delay(us_to_ticks(machine.costs().recv_search_time));
    hw::SendRecord rec =
        ring_take_guarded(src, tag, /*in_place=*/false, "recv");
    if (rec.payload.size() > max_size)
        fatal("cell %d: received %zu bytes into a %u-byte area",
              cellId, rec.payload.size(), max_size);
    proc.delay(us_to_ticks(
        machine.costs().recv_copy_time *
        static_cast<double>(rec.payload.size())));
    poke(laddr, rec.payload);
    std::uint32_t got =
        static_cast<std::uint32_t>(rec.payload.size());
    // The user copy is done; the SEND's buffer goes home to the pool.
    cell().msc().recycle_payload(std::move(rec.payload));

    // Recorded at exit so the resolved source and size are known;
    // replay matches receives against arrivals by source FIFO.
    TraceEvent ev;
    ev.op = TraceOp::recv;
    ev.peer = rec.src;
    ev.bytes = got;
    trace(ev);
    return got;
}

// -- computation -----------------------------------------------------------

void
Context::compute_us(double us)
{
    if (us < 0)
        fatal("negative compute time");
    TraceEvent ev;
    ev.op = TraceOp::compute;
    ev.computeUs = us;
    trace(ev);
    proc.delay(us_to_ticks(us));
}

void
Context::compute_flops(double flops)
{
    // MFLOPS = flops per microsecond.
    compute_us(flops / machine.config().mflopsPerCell);
}

} // namespace ap::core
