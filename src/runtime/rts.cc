#include "runtime/rts.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"

namespace ap::rt
{

namespace
{

constexpr obs::StatField rts_fields[] = {
    obs::counter_field<&RuntimeStats::putsIssued>("puts_issued"),
    obs::counter_field<&RuntimeStats::getsIssued>("gets_issued"),
    obs::counter_field<&RuntimeStats::acksIssued>("acks_issued"),
    obs::counter_field<&RuntimeStats::moves>("moves"),
    obs::counter_field<&RuntimeStats::retriedPuts>("retried_puts"),
    obs::counter_field<&RuntimeStats::verifyReads>("verify_reads"),
};

/** The runtime's per-cell schema in @p reg ("cell<N>.rts.*"). */
obs::StatsRegistry::SchemaId
rts_schema(obs::StatsRegistry &reg)
{
    return reg.add_schema("rts.", rts_fields);
}

} // namespace

Runtime::Runtime(core::Context &ctx, AckPolicy policy)
    : ctx(ctx), ackPolicy(policy)
{
    moveFlag = ctx.alloc_flag();

    // The runtime is shorter-lived than the machine, so its counters
    // join the machine's registry here and leave in the destructor.
    obs::StatsRegistry &reg = ctx.owner().stats_registry();
    reg.set_row(rts_schema(reg), ctx.id(), &rtStats);
}

Runtime::~Runtime()
{
    obs::StatsRegistry &reg = ctx.owner().stats_registry();
    reg.set_row(rts_schema(reg), ctx.id(), nullptr);
}

void
Runtime::rts_put(CellId dst, Addr raddr, Addr laddr,
                 net::StrideSpec send_spec, net::StrideSpec recv_spec,
                 Addr recv_flag)
{
    ++rtStats.putsIssued;
    if (dst == ctx.id()) {
        // Local part of a collective move: the translator generates a
        // plain copy, no communication ("except for PUT for local
        // cell", Section 5.4).
        std::vector<std::uint8_t> buf;
        Addr cur = laddr;
        buf.resize(send_spec.total_bytes());
        std::size_t off = 0;
        for (std::uint32_t i = 0; i < send_spec.count; ++i) {
            ctx.peek(cur, std::span<std::uint8_t>(buf.data() + off,
                                                  send_spec.itemSize));
            off += send_spec.itemSize;
            cur += send_spec.itemSize + send_spec.skip;
        }
        cur = raddr;
        off = 0;
        for (std::uint32_t i = 0; i < recv_spec.count; ++i) {
            ctx.poke(cur,
                     std::span<const std::uint8_t>(buf.data() + off,
                                                   recv_spec.itemSize));
            off += recv_spec.itemSize;
            cur += recv_spec.itemSize + recv_spec.skip;
        }
        // The local copy still satisfies the receiver-side count.
        if (recv_flag != no_flag)
            ++moveFlagTarget; // and bump it ourselves below
        ctx.compute_us(0.01 *
                       static_cast<double>(send_spec.total_bytes()) /
                       8.0);
        if (recv_flag != no_flag) {
            // Emulate the flag update a network PUT would perform.
            ctx.poke_u32(recv_flag, ctx.peek_u32(recv_flag) + 1);
        }
        return;
    }

    bool ack = ackPolicy == AckPolicy::every_put;
    if (ack)
        ++rtStats.acksIssued;
    else
        dirtyDests.insert(dst);

    if (ctx.owner().config().retry.enabled())
        pendingPuts.push_back(
            PendingPut{dst, raddr, laddr, send_spec, recv_spec});

    ctx.set_rts_mode(true);
    ctx.put_stride(dst, raddr, laddr, ack, no_flag, recv_flag,
                   send_spec, recv_spec);
    ctx.set_rts_mode(false);
}

std::vector<std::uint8_t>
Runtime::gather_local(const PendingPut &p)
{
    std::vector<std::uint8_t> buf(p.sendSpec.total_bytes());
    Addr cur = p.laddr;
    std::size_t off = 0;
    for (std::uint32_t i = 0; i < p.sendSpec.count; ++i) {
        ctx.peek(cur, std::span<std::uint8_t>(buf.data() + off,
                                              p.sendSpec.itemSize));
        off += p.sendSpec.itemSize;
        cur += p.sendSpec.itemSize + p.sendSpec.skip;
    }
    return buf;
}

bool
Runtime::verify_put(const PendingPut &p, Tick timeout)
{
    std::uint32_t bytes =
        static_cast<std::uint32_t>(p.sendSpec.total_bytes());
    if (verifyFlag == 0)
        verifyFlag = ctx.alloc_flag();
    if (verifyBufBytes < bytes) {
        std::size_t cls = 64;
        while (cls < bytes)
            cls *= 2;
        verifyBuf = ctx.alloc(cls);
        verifyBufBytes = cls;
    }

    ++rtStats.verifyReads;
    std::vector<std::uint8_t> want = gather_local(p);
    std::uint32_t before = ctx.flag(verifyFlag);
    ctx.set_rts_mode(true);
    ctx.get_stride(p.dst, p.raddr, verifyBuf, no_flag, verifyFlag,
                   p.recvSpec, net::StrideSpec::contiguous(bytes));
    ctx.set_rts_mode(false);
    bool landed = ctx.wait_flag_for(verifyFlag, before + 1,
                                    ctx.now() + timeout);
    if (!landed)
        return false;
    std::vector<std::uint8_t> got(bytes);
    ctx.peek(verifyBuf, got);
    return got == want;
}

void
Runtime::movewait_hardened()
{
    const hw::RetryPolicy &retry = ctx.owner().config().retry;

    // The acknowledge probes and the receive-count flag both lie
    // under message loss (a probe can survive its dropped PUT; a
    // duplicate bumps the flag twice), so they only gate the fast
    // path. The authority is read-back verification: my transfers are
    // complete when the destination memory holds my bytes. Everyone
    // verifies their own sends, so after the closing barrier all
    // receives have landed too.
    bool allVerified = false;
    for (int attempt = 0; attempt <= retry.maxRetries; ++attempt) {
        // Later attempts back off so a congested window can drain.
        Tick timeout = us_to_ticks(retry.attempt_timeout_us(attempt));
        if (!ctx.wait_all_acks_for(ctx.now() + timeout))
            ctx.resync_acks();
        allVerified = true;
        for (const PendingPut &p : pendingPuts) {
            if (verify_put(p, timeout))
                continue;
            allVerified = false;
            ++rtStats.retriedPuts;
            ctx.set_rts_mode(true);
            ctx.put_stride(p.dst, p.raddr, p.laddr, true, no_flag,
                           moveFlag, p.sendSpec, p.recvSpec);
            ctx.set_rts_mode(false);
        }
        if (allVerified)
            break;
    }
    if (!allVerified) {
        ctx.owner().note_retry_giveup();
        throw core::CommError(
            core::CommError::Kind::timeout, ctx.id(), -1,
            strprintf("cell %d: movewait could not complete %zu "
                      "collective transfers after %d attempts\n%s",
                      ctx.id(), pendingPuts.size(),
                      retry.maxRetries + 1,
                      ctx.owner().postmortem().c_str()));
    }
    pendingPuts.clear();
    ctx.barrier();
    // Retries and duplicates drift the receive-count flag past its
    // nominal target; the barrier above closed the round, so restart
    // the accounting at whatever the flag holds now.
    moveFlagTarget = ctx.flag(moveFlag);
}

void
Runtime::flush_acks()
{
    if (ackPolicy != AckPolicy::last_put_per_dest)
        return;
    // "no PUT operations except the last PUT for every destination
    // cell need acknowledgment" — one probe per touched destination.
    ctx.set_rts_mode(true);
    for (CellId d : dirtyDests) {
        ctx.ack_probe(d);
        ++rtStats.acksIssued;
    }
    ctx.set_rts_mode(false);
    dirtyDests.clear();
}

void
Runtime::movewait()
{
    Tick begin = ctx.owner().sim().now();
    flush_acks();
    try {
        if (ctx.owner().config().retry.enabled()) {
            movewait_hardened();
        } else {
            ctx.wait_all_acks();
            ctx.wait_flag(moveFlag, moveFlagTarget);
            ctx.barrier();
        }
    } catch (const core::CommError &e) {
        // Re-tag so a watchdog/timeout names the runtime phase that
        // was blocked, keeping kind and peer intact.
        throw core::CommError(e.kind(), ctx.id(), e.peer(),
                              strprintf("movewait: %s", e.what()));
    }
    ctx.owner().spans().span(ctx.id(), "rts", "movewait", begin,
                             ctx.owner().sim().now());
}

// -------------------------------------------------------- OVERLAP FIX

void
Runtime::overlap_fix(GArray2D &a)
{
    overlap_fix_many({&a});
}

void
Runtime::overlap_fix_many(std::vector<GArray2D *> arrays)
{
    for (GArray2D *a : arrays)
        fix_one(*a);
    movewait();
}

void
Runtime::fix_one(GArray2D &a)
{
    ++rtStats.moves;
    int ov = a.overlap();
    if (ov == 0)
        fatal("overlap_fix on an array without an overlap area");

    int p = ctx.nprocs();
    CellId me = ctx.id();
    int my_lo = a.lo(me);
    int my_count = a.count(me);

    // Everyone can compute how many boundary messages they will
    // receive this round (one per existing neighbour).
    int expected = (me > 0 ? 1 : 0) + (me < p - 1 ? 1 : 0);
    moveFlagTarget += static_cast<std::uint32_t>(expected);

    auto send_boundary = [&](CellId nbr, int first_idx) {
        // The ov split-dimension slices starting at first_idx,
        // written into nbr's overlap fringe at the same global
        // coordinates.
        if (a.split() == SplitDim::rows) {
            Addr src = a.addr_on(me, first_idx, 0);
            Addr dst = a.addr_on(nbr, first_idx, 0);
            std::uint32_t bytes = static_cast<std::uint32_t>(
                ov * a.cols() * 8);
            rts_put(nbr, dst, src, net::StrideSpec::contiguous(bytes),
                    net::StrideSpec::contiguous(bytes), moveFlag);
        } else {
            // Column slices: nRows items of ov*8 bytes with the row
            // pitch between them — the stride pattern of Figure 3.
            Addr src = a.addr_on(me, 0, first_idx);
            Addr dst = a.addr_on(nbr, 0, first_idx);
            std::uint32_t item = static_cast<std::uint32_t>(ov * 8);
            std::uint32_t my_skip = static_cast<std::uint32_t>(
                a.row_pitch() - item);
            net::StrideSpec spec{item,
                                 static_cast<std::uint32_t>(a.rows()),
                                 my_skip};
            rts_put(nbr, dst, src, spec, spec, moveFlag);
        }
    };

    if (me > 0)
        send_boundary(me - 1, my_lo);
    if (me < p - 1)
        send_boundary(me + 1, my_lo + my_count - ov);
}

// -------------------------------------------------------- SPREAD MOVE

void
Runtime::spread_move_col(GArray1D &dst, GArray2D &src, int fixed_col)
{
    ++rtStats.moves;
    if (src.split() != SplitDim::rows)
        fatal("spread_move_col needs a row-split source");
    if (dst.size() != src.rows())
        fatal("spread_move_col: extent mismatch (%d vs %d rows)",
              dst.size(), src.rows());

    CellId me = ctx.id();
    int p = ctx.nprocs();
    int my_lo = src.lo(me);
    int my_hi = my_lo + src.count(me);

    // Receive expectation: one message per source band overlapping my
    // destination block (excluding myself — handled locally).
    const Decomp1D &dd = dst.decomp();
    int d_lo = dd.block_lo(me);
    int d_hi = d_lo + dd.local_count(me);
    for (CellId s = 0; s < p; ++s) {
        if (s == me)
            continue;
        int s_lo = src.lo(s);
        int s_hi = s_lo + src.count(s);
        if (std::max(s_lo, d_lo) < std::min(s_hi, d_hi))
            ++moveFlagTarget;
    }

    // Send: my rows j in [my_lo, my_hi) carry src(j, fixed_col),
    // grouped into one stride PUT per destination owner.
    for (CellId d = 0; d < p; ++d) {
        int t_lo = dd.block_lo(d);
        int t_hi = t_lo + dd.local_count(d);
        int lo = std::max(my_lo, t_lo);
        int hi = std::min(my_hi, t_hi);
        if (lo >= hi)
            continue;
        std::uint32_t count = static_cast<std::uint32_t>(hi - lo);
        Addr laddr = src.addr_on(me, lo, fixed_col);
        Addr raddr = dst.base() +
                     static_cast<Addr>(dd.local_index(lo)) * 8;
        net::StrideSpec send_spec{
            8, count,
            static_cast<std::uint32_t>(src.row_pitch() - 8)};
        net::StrideSpec recv_spec = net::StrideSpec::contiguous(
            count * 8);
        rts_put(d, raddr, laddr, send_spec, recv_spec,
                d == me ? no_flag : moveFlag);
    }

    movewait();
}

void
Runtime::spread_move_row(GArray1D &dst, GArray2D &src, int fixed_row)
{
    ++rtStats.moves;
    if (src.split() != SplitDim::rows)
        fatal("spread_move_row needs a row-split source");
    if (dst.size() != src.cols())
        fatal("spread_move_row: extent mismatch (%d vs %d cols)",
              dst.size(), src.cols());

    CellId me = ctx.id();
    int p = ctx.nprocs();
    CellId row_owner = src.owner(fixed_row, 0);

    // Only the fixed row's owner sends; every destination owner with
    // elements expects exactly one message (unless it is the sender).
    const Decomp1D &dd = dst.decomp();
    if (dd.local_count(me) > 0 && me != row_owner)
        ++moveFlagTarget;

    if (me == row_owner) {
        for (CellId d = 0; d < p; ++d) {
            int t_lo = dd.block_lo(d);
            int cnt = dd.local_count(d);
            if (cnt == 0)
                continue;
            std::uint32_t bytes = static_cast<std::uint32_t>(cnt) * 8;
            Addr laddr = src.addr_on(me, fixed_row, t_lo);
            Addr raddr = dst.base();
            rts_put(d, raddr, laddr,
                    net::StrideSpec::contiguous(bytes),
                    net::StrideSpec::contiguous(bytes),
                    d == me ? no_flag : moveFlag);
        }
    }

    movewait();
}

// --------------------------------------------------------- transpose

void
Runtime::transpose(GArray2D &dst, GArray2D &src)
{
    ++rtStats.moves;
    if (src.rows() != src.cols() || dst.rows() != src.rows() ||
        dst.cols() != src.cols())
        fatal("transpose needs square, equally sized arrays");
    if (src.split() != SplitDim::rows ||
        dst.split() != SplitDim::rows)
        fatal("transpose needs row-split arrays");

    CellId me = ctx.id();
    int p = ctx.nprocs();
    int n = src.rows();
    int bs = src.decomp().block_size();

    // Staging area: one (src band x my band) tile per source cell.
    Addr staging = ctx.alloc(static_cast<std::size_t>(n) * bs * 8);

    int my_lo = src.lo(me);
    int my_count = src.count(me);

    moveFlagTarget += static_cast<std::uint32_t>(
        src.count(me) > 0 ? p - 1 : 0);

    // Send src(my rows, d's columns) to d's staging tile.
    for (CellId d = 0; d < p; ++d) {
        int d_lo = dst.lo(d);
        int d_count = dst.count(d);
        if (d_count == 0)
            continue;
        std::uint32_t item = static_cast<std::uint32_t>(d_count * 8);
        net::StrideSpec send_spec{
            item, static_cast<std::uint32_t>(my_count),
            static_cast<std::uint32_t>(src.row_pitch()) - item};
        std::uint32_t bytes = item *
                              static_cast<std::uint32_t>(my_count);
        Addr laddr = src.addr_on(me, my_lo, d_lo);
        // Tile offset: rows of the tile are my global rows.
        Addr raddr = staging +
                     static_cast<Addr>(my_lo) * static_cast<Addr>(
                                                    d_count) *
                         8;
        if (d == me) {
            rts_put(d, raddr, laddr, send_spec,
                    net::StrideSpec::contiguous(bytes), no_flag);
        } else {
            rts_put(d, raddr, laddr, send_spec,
                    net::StrideSpec::contiguous(bytes), moveFlag);
        }
    }

    movewait();

    // Local rearrangement: staging tile (j, i) -> dst(i, j).
    int d_lo = dst.lo(me);
    int d_count = dst.count(me);
    for (int j = 0; j < n; ++j) {
        Addr tile_row = staging +
                        (static_cast<Addr>(j) *
                         static_cast<Addr>(d_count)) *
                            8;
        for (int i = 0; i < d_count; ++i) {
            std::uint8_t buf[8];
            ctx.peek(tile_row + static_cast<Addr>(i) * 8, buf);
            ctx.poke(dst.addr_on(me, d_lo + i, j), buf);
        }
    }
    ctx.compute_us(0.02 * static_cast<double>(n) * d_count);
    ctx.barrier();
}

} // namespace ap::rt
