/**
 * @file
 * Barriers and global reductions (Sections 2.3, 4.5).
 *
 * - All-cell barriers ride the hardware S-net.
 * - Scalar all-cell reductions use the communication registers with
 *   a fold + recursive-doubling + unfold tree: "sending data from
 *   communication registers to other communication registers can be
 *   performed with a simple store instruction", and the p-bits
 *   provide the store/execute/load synchronization.
 * - Group barriers and group reductions run in software over
 *   SEND/RECEIVE, as the paper prescribes for specific groups.
 * - Vector reductions use the ring-buffer pipeline: each cell sends
 *   its circulating contribution to the next cell's ring buffer and
 *   combines what arrives *in place*, avoiding the receive copy.
 */

#include <array>
#include <bit>
#include <cstring>
#include <memory>

#include "base/logging.hh"
#include "core/context.hh"

namespace ap::core
{

namespace
{

/** FNV-1a over group members: stable tag base per group identity. */
std::uint64_t
group_hash(const Group &g)
{
    std::uint64_t h = 1469598103934665603ull;
    for (CellId c : g.members()) {
        h ^= static_cast<std::uint64_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Tag spaces: group collectives / vector reductions. */
constexpr std::int32_t group_tag_bit = 0x40000000;
constexpr std::int32_t vgop_tag_bit = 0x50000000;

/**
 * Scope guard emitting one collective-phase span on the cell's track,
 * covering the guarded scope even across early returns.
 */
class SpanGuard
{
  public:
    SpanGuard(hw::Machine &m, int track, const char *name)
        : machine(m), track(track), name(name),
          begin(m.sim().now())
    {
    }

    ~SpanGuard()
    {
        machine.spans().span(track, "collective", name, begin,
                             machine.sim().now());
    }

  private:
    hw::Machine &machine;
    int track;
    const char *name;
    Tick begin;
};

/** Serialize a double into 8 bytes. */
std::array<std::uint8_t, 8>
pack_f64(double v)
{
    std::array<std::uint8_t, 8> a;
    std::memcpy(a.data(), &v, 8);
    return a;
}

/** Deserialize a double from a payload. */
double
unpack_f64(const std::vector<std::uint8_t> &p)
{
    double v;
    std::memcpy(&v, p.data(), 8);
    return v;
}

} // namespace

double
Context::combine(double a, double b, ReduceOp op) const
{
    switch (op) {
      case ReduceOp::sum:
        return a + b;
      case ReduceOp::min:
        return a < b ? a : b;
      case ReduceOp::max:
        return a > b ? a : b;
      case ReduceOp::prod:
        return a * b;
    }
    return a;
}

// -- communication-register exchange primitive ----------------------------

std::uint32_t
Context::commreg_load(int index)
{
    // A load finding the p-bit clear stalls in hardware until a store
    // sets it; the parked fiber is that retry loop.
    hw::CommRegisterFile &regs = cell().mc().regs();
    std::uint32_t v = 0;
    bool stalled = false;
    park(regs.store_cond(index),
         [&] {
             if (regs.try_load(index, v, stalled))
                 return true;
             stalled = true;
             return false;
         },
         {"commreg_load",
          hw::Mc::commreg_base + static_cast<Addr>(index) * 4,
          /*p-bit*/ 1});
    return v;
}

double
Context::commreg_load_f64(int index)
{
    std::uint32_t lo = commreg_load(index);
    std::uint32_t hi = commreg_load(index + 1);
    return std::bit_cast<double>(
        (static_cast<std::uint64_t>(hi) << 32) | lo);
}

double
Context::commreg_exchange(CellId partner, int reg_index, double value)
{
    // Store my value to the partner's register pair: the registers
    // sit in shared space, so this is one hardware remote store.
    std::vector<std::uint8_t> data(8);
    std::memcpy(data.data(), &value, 8);
    proc.delay(us_to_ticks(hw::remote_access_issue_us));
    ++acksOutstanding;
    cell().msc().issue_remote_store(
        partner,
        hw::Mc::commreg_base + static_cast<Addr>(reg_index) * 4,
        std::move(data));

    // Load my own pair; the p-bit retry stalls until data arrives.
    proc.delay(us_to_ticks(2 * hw::commreg_access_us));
    return commreg_load_f64(reg_index);
}

// -- S-net barrier ---------------------------------------------------------

void
Context::barrier()
{
    check_alive();
    TraceEvent ev;
    ev.op = TraceOp::barrier;
    trace(ev);
    ++ctxStats.barriers;
    SpanGuard span(machine, cellId, "barrier");

    // The S-net releases as soon as every *live* member has arrived;
    // a barrier crossed while cells are dead is marked degraded.
    lastCollectiveDegraded = machine.any_failed();
    if (lastCollectiveDegraded)
        ++ctxStats.degradedCollectives;

    proc.delay(us_to_ticks(machine.costs().barrier_prolog_time));

    // The release state is heap-owned by the S-net callback: if the
    // watchdog throws us out of the wait, a later release must not
    // touch a dead stack frame.
    struct Release
    {
        sim::Condition released;
        bool done = false;
    };
    auto rel = std::make_shared<Release>();
    machine.snet().arrive(allBarrier, cellId, [rel]() {
        rel->done = true;
        rel->released.notify_all();
    });
    park(rel->released, [&] { return rel->done; }, {"barrier"});
}

// -- scalar all-cell reduction ----------------------------------------------

double
Context::allreduce(double value, ReduceOp op)
{
    TraceEvent ev;
    ev.op = TraceOp::gop;
    ev.bytes = 8;
    trace(ev);
    ++ctxStats.gops;
    SpanGuard span(machine, cellId, "allreduce");

    check_alive();
    if (machine.any_failed()) {
        // The commreg tree assumes a dense 0..p-1 cell space; with
        // fail-stop cells fall back to a software reduction over the
        // survivors and mark the result degraded.
        double v = group_reduce_impl(live_group(), value, op);
        lastCollectiveDegraded = true;
        ++ctxStats.degradedCollectives;
        return v;
    }
    lastCollectiveDegraded = false;

    int p = nprocs();
    if (p == 1)
        return value;

    // Two register banks alternate between consecutive reductions so
    // a fast cell's next reduction can never overwrite a value its
    // partner has not consumed yet. All-cell collectives are globally
    // ordered, so every cell agrees on the bank.
    int bank = (collectiveSeq++ % 2) ? 64 : 0;
    int me = cellId;

    int r = 1;
    while (r * 2 <= p)
        r *= 2;

    double v = value;
    if (me >= r) {
        // Fold my value into my low partner, then pick up the result.
        std::vector<std::uint8_t> data(8);
        std::memcpy(data.data(), &v, 8);
        proc.delay(us_to_ticks(hw::remote_access_issue_us));
        ++acksOutstanding;
        cell().msc().issue_remote_store(
            me - r, hw::Mc::commreg_base + (bank + 0) * 4,
            std::move(data));

        proc.delay(us_to_ticks(2 * hw::commreg_access_us));
        return commreg_load_f64(bank + 2);
    }

    if (me + r < p) {
        proc.delay(us_to_ticks(2 * hw::commreg_access_us));
        v = combine(v, commreg_load_f64(bank + 0), op);
    }

    int step = 0;
    for (int mask = 1; mask < r; mask <<= 1, ++step) {
        int partner = me ^ mask;
        int reg = bank + 4 + 2 * step;
        double o = commreg_exchange(partner, reg, v);
        v = combine(v, o, op);
    }

    if (me + r < p) {
        std::vector<std::uint8_t> data(8);
        std::memcpy(data.data(), &v, 8);
        proc.delay(us_to_ticks(hw::remote_access_issue_us));
        ++acksOutstanding;
        cell().msc().issue_remote_store(
            me + r, hw::Mc::commreg_base + (bank + 2) * 4,
            std::move(data));
    }
    return v;
}

std::uint64_t
Context::allreduce_u64(std::uint64_t value, ReduceOp op)
{
    // Counts and indices fit a double exactly up to 2^53; the apps
    // stay far below that.
    double v = allreduce(static_cast<double>(value), op);
    return static_cast<std::uint64_t>(v + 0.5);
}

// -- group collectives over SEND/RECEIVE -------------------------------------

std::int32_t
Context::group_tag(const Group &group)
{
    std::uint64_t h = group_hash(group);
    std::uint32_t seq = groupSeq[h]++;
    return group_tag_bit |
           static_cast<std::int32_t>(((h * 131) + seq * 1031) &
                                     0x00FFFFFF);
}

double
Context::group_reduce(const Group &group, double value, ReduceOp op)
{
    check_alive();
    if (machine.any_failed()) {
        std::vector<CellId> live;
        for (CellId c : group.members())
            if (!machine.cell_failed(c))
                live.push_back(c);
        if (live.size() != group.members().size()) {
            double v = group_reduce_impl(Group(std::move(live)),
                                         value, op);
            lastCollectiveDegraded = true;
            ++ctxStats.degradedCollectives;
            return v;
        }
    }
    lastCollectiveDegraded = false;
    return group_reduce_impl(group, value, op);
}

double
Context::group_reduce_impl(const Group &group, double value,
                           ReduceOp op)
{
    int rank = group.rank_of(cellId);
    if (rank < 0)
        fatal("cell %d is not a member of this group", cellId);

    int p = group.size();
    if (p == 1)
        return value;

    // One tag base per (group, collective#); phases offset the tag so
    // fold/steps/unfold never collide. Early arrivals simply queue in
    // the ring buffer, so skewed cells are safe.
    std::int32_t tag0 = group_tag(group);
    auto phase_tag = [tag0](int phase) {
        return tag0 + (phase << 24);
    };

    int r = 1;
    while (r * 2 <= p)
        r *= 2;

    double v = value;

    if (rank >= r) {
        internal_send(group.at(rank - r), phase_tag(0), pack_f64(v));
        return unpack_f64(
            internal_recv(group.at(rank - r), phase_tag(1)).payload);
    }

    if (rank + r < p) {
        double o = unpack_f64(
            internal_recv(group.at(rank + r), phase_tag(0)).payload);
        v = combine(v, o, op);
    }

    int step = 0;
    for (int mask = 1; mask < r; mask <<= 1, ++step) {
        int partner = rank ^ mask;
        internal_send(group.at(partner), phase_tag(2 + step),
                      pack_f64(v));
        double o = unpack_f64(
            internal_recv(group.at(partner), phase_tag(2 + step))
                .payload);
        v = combine(v, o, op);
    }

    if (rank + r < p)
        internal_send(group.at(rank + r), phase_tag(1), pack_f64(v));

    return v;
}

void
Context::barrier_group(const Group &group)
{
    TraceEvent ev;
    ev.op = TraceOp::barrier;
    // Group identity rides in the trace so MLSim can rendezvous the
    // right subset: member count + a stable group hash.
    ev.waitTarget = static_cast<std::uint64_t>(group.size());
    ev.sendFlagAddr = group_hash(group);
    trace(ev);
    ++ctxStats.barriers;
    SpanGuard span(machine, cellId, "barrier_group");

    group_reduce(group, 0.0, ReduceOp::sum);
}

double
Context::allreduce_group(const Group &group, double value, ReduceOp op)
{
    TraceEvent ev;
    ev.op = TraceOp::gop;
    ev.bytes = 8;
    ev.waitTarget = static_cast<std::uint64_t>(group.size());
    ev.sendFlagAddr = group_hash(group);
    trace(ev);
    ++ctxStats.gops;
    SpanGuard span(machine, cellId, "allreduce_group");

    return group_reduce(group, value, op);
}

// -- vector reduction over the ring buffer ------------------------------------

void
Context::allreduce_vector(Addr vec, std::uint32_t count, ReduceOp op)
{
    TraceEvent ev;
    ev.op = TraceOp::vgop;
    ev.bytes = static_cast<std::uint64_t>(count) * 8;
    trace(ev);
    ++ctxStats.vgops;
    SpanGuard span(machine, cellId, "allreduce_vector");

    check_alive();
    int p = nprocs();
    CellId right = (cellId + 1) % p;
    CellId left = (cellId - 1 + p) % p;
    lastCollectiveDegraded = false;
    if (machine.any_failed()) {
        // Reform the ring over the survivors only.
        Group live = live_group();
        lastCollectiveDegraded = true;
        ++ctxStats.degradedCollectives;
        p = live.size();
        int rank = live.rank_of(cellId);
        right = live.at((rank + 1) % p);
        left = live.at((rank - 1 + p) % p);
    }
    if (p <= 1 || count == 0)
        return;

    std::uint32_t bytes = count * 8;

    // Host-side view of my accumulator.
    std::vector<std::uint8_t> circulating(bytes);
    peek(vec, circulating);
    std::vector<double> acc(count);
    std::memcpy(acc.data(), circulating.data(), bytes);

    std::int32_t tag0 =
        vgop_tag_bit | static_cast<std::int32_t>(
                           (collectiveSeq++ * 2081) & 0x00FFFFFF);

    // Ring pipeline: my contribution travels the whole ring; I
    // combine every contribution that passes through me. One tag
    // serves every step: the T-net is FIFO per source-destination
    // pair, so ring-buffer matching preserves step order.
    for (int s = 0; s < p - 1; ++s) {
        internal_send(right, tag0, circulating);

        hw::SendRecord rec = internal_recv(left, tag0);
        if (rec.payload.size() != bytes)
            panic("vgop step %d: expected %u bytes, got %zu", s,
                  bytes, rec.payload.size());

        std::vector<double> other(count);
        std::memcpy(other.data(), rec.payload.data(), bytes);
        for (std::uint32_t i = 0; i < count; ++i)
            acc[i] = combine(acc[i], other[i], op);
        // The elementwise combine is processor work.
        proc.delay(us_to_ticks(static_cast<double>(count) /
                               machine.config().mflopsPerCell));

        // Rotate buffers: the arriving record becomes the next
        // contribution and the spent one goes home to the pool.
        std::vector<std::uint8_t> spent = std::move(circulating);
        circulating = std::move(rec.payload);
        cell().msc().recycle_payload(std::move(spent));
    }
    cell().msc().recycle_payload(std::move(circulating));

    std::vector<std::uint8_t> raw(bytes);
    std::memcpy(raw.data(), acc.data(), bytes);
    poke(vec, raw);
}

} // namespace ap::core
