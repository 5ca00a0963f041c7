#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>

#include "base/logging.hh"
#include "base/random.hh"
#include "core/program.hh"
#include "sim/eventq.hh"

namespace ap::harness
{

const char *
to_string(OpKind kind)
{
    switch (kind) {
      case OpKind::write:
        return "write";
      case OpKind::read:
        return "read";
      case OpKind::barrier:
        return "barrier";
      case OpKind::put_burst:
        return "put_burst";
      case OpKind::sendrecv:
        return "sendrecv";
      case OpKind::allreduce:
        return "allreduce";
      case OpKind::bcast:
        return "bcast";
    }
    return "?";
}

std::string
Op::describe() const
{
    return strprintf("%-9s cell=%-2d peer=%-2d slot=%d size=%-3u "
                     "stamp=%#llx",
                     to_string(kind), cell, peer, slot, size,
                     static_cast<unsigned long long>(stamp));
}

std::string
describe(const OpProgram &prog)
{
    std::string out =
        strprintf("program: %d cells, %zu ops\n", prog.cells,
                  prog.ops.size());
    for (const Op &op : prog.ops)
        out += "  " + op.describe() + "\n";
    return out;
}

OpProgram
make_program(std::uint64_t seed, int cells, int op_count,
             bool lossless_ops)
{
    if (cells < 2)
        fatal("harness programs need at least 2 cells");
    Random rng(seed);
    OpProgram prog;
    prog.cells = cells;
    prog.ops.reserve(static_cast<std::size_t>(op_count));
    std::vector<int> writes(static_cast<std::size_t>(cells), 0);

    auto random_peer = [&](CellId me) {
        return static_cast<CellId>(
            (me + 1 +
             static_cast<CellId>(rng.below(
                 static_cast<std::uint64_t>(cells - 1)))) %
            cells);
    };

    for (int i = 0; i < op_count; ++i) {
        Op op;
        op.stamp = rng.next() | 1; // never zero: zero is "unwritten"
        op.size = static_cast<std::uint32_t>(8 << rng.below(6));
        std::uint64_t pick = rng.below(100);

        if (lossless_ops) {
            if (pick < 35) {
                op.kind = OpKind::put_burst;
                op.cell = static_cast<CellId>(
                    rng.below(static_cast<std::uint64_t>(cells)));
                op.peer = random_peer(op.cell);
                op.slot = static_cast<int>(
                    rng.below(slots_per_writer));
            } else if (pick < 55) {
                op.kind = OpKind::sendrecv;
                op.peer = static_cast<CellId>(
                    1 + rng.below(
                            static_cast<std::uint64_t>(cells - 1)));
            } else if (pick < 65) {
                op.kind = OpKind::allreduce;
            } else if (pick < 80) {
                op.kind = OpKind::bcast;
            } else if (pick < 90) {
                op.kind = OpKind::barrier;
            } else {
                op.kind = OpKind::write;
                op.cell = static_cast<CellId>(
                    rng.below(static_cast<std::uint64_t>(cells)));
                op.peer = random_peer(op.cell);
                op.slot = static_cast<int>(
                    rng.below(slots_per_writer));
            }
        } else {
            // Verified vocabulary. Writes get a fresh slot per writer
            // (see slots_per_writer); once a writer runs out it reads
            // instead.
            if (pick < 50) {
                CellId c = static_cast<CellId>(
                    rng.below(static_cast<std::uint64_t>(cells)));
                if (writes[static_cast<std::size_t>(c)] <
                    slots_per_writer) {
                    op.kind = OpKind::write;
                    op.cell = c;
                    op.peer = random_peer(c);
                    op.slot = writes[static_cast<std::size_t>(c)]++;
                } else {
                    op.kind = OpKind::read;
                    op.cell = c;
                    op.peer = random_peer(c);
                    op.slot = static_cast<int>(
                        rng.below(slots_per_writer));
                }
            } else if (pick < 80) {
                op.kind = OpKind::read;
                op.cell = static_cast<CellId>(
                    rng.below(static_cast<std::uint64_t>(cells)));
                op.peer = random_peer(op.cell);
                op.slot = static_cast<int>(
                    rng.below(slots_per_writer));
            } else {
                op.kind = OpKind::barrier;
            }
        }
        prog.ops.push_back(op);
    }
    return prog;
}

namespace
{

/** Expand a stamp into its payload pattern. */
std::vector<std::uint8_t>
pattern(std::uint64_t stamp, std::uint32_t size)
{
    Random rng(stamp);
    std::vector<std::uint8_t> bytes(size);
    for (std::uint32_t i = 0; i < size; i += 8) {
        std::uint64_t w = rng.next();
        std::memcpy(bytes.data() + i,
                    &w, std::min<std::uint32_t>(8, size - i));
    }
    return bytes;
}

constexpr Addr
slot_offset(CellId writer, int slot)
{
    return static_cast<Addr>(writer) * slots_per_writer * slot_bytes +
           static_cast<Addr>(slot) * slot_bytes;
}

} // namespace

hw::RetryPolicy
harness_retry()
{
    hw::RetryPolicy retry;
    retry.timeoutUs = 2000.0;
    retry.maxRetries = 12;
    return retry;
}

RunOutcome
run_program(const OpProgram &prog, const sim::FaultPlan &plan,
            const hw::RetryPolicy &retry, const obs::ObsOptions &obs,
            bool reliable, int threads, bool collectStats)
{
    hw::MachineConfig cfg =
        hw::MachineConfig::ap1000_plus(prog.cells);
    cfg.memBytesPerCell = 1 << 20;
    cfg.faults = plan;
    cfg.retry = retry;
    cfg.reliableNet = reliable;
    cfg.threads = threads;
    if (!obs.traceOut.empty())
        cfg.spanMode = obs::SpanMode::full;
    hw::Machine m(cfg);
    sim::TickHistory hist;
    m.sim().set_history(&hist);
    if (obs.timeline_enabled())
        m.enable_timeline(obs.timelinePeriodUs);

    const std::size_t region_bytes =
        static_cast<std::size_t>(prog.cells) * slots_per_writer *
        slot_bytes;
    std::vector<Addr> regionBase(
        static_cast<std::size_t>(prog.cells), 0);

    RunOutcome out;
    // Cell bodies on different shards may flag errors concurrently.
    std::atomic<int> dataErrs{0};
    obs::StatsRegistry::Snapshot statsBefore;
    if (collectStats)
        statsBefore = m.stats_registry().snapshot();
    core::SpmdResult result = core::run_spmd(m, [&](core::Context
                                                        &ctx) {
        CellId me = ctx.id();
        int p = ctx.nprocs();
        // Every cell makes the same allocations, so `region` is also
        // the peers' region address. Reading a peer's regionBase entry
        // instead would read another cell's state mid-run.
        Addr region = ctx.alloc(region_bytes);
        regionBase[static_cast<std::size_t>(me)] = region;
        // Staging areas: put_burst gathers its payload after issue
        // returns, so each burst element needs its own buffer.
        Addr staging = ctx.alloc(8 * slot_bytes);
        Addr readBuf = ctx.alloc(slot_bytes);
        // send() has no completion flag, so its staging buffer must
        // stay untouched until the send DMA gathers it — which a
        // forced queue spill can delay past the next op. Every
        // sendrecv therefore gets a private send slot; the recv side
        // may share one buffer (recv blocks and copies out).
        std::size_t sendrecvOps = 0;
        for (const Op &o : prog.ops)
            if (o.kind == OpKind::sendrecv)
                ++sendrecvOps;
        Addr sendBuf =
            ctx.alloc(std::max<std::size_t>(sendrecvOps, 1) *
                      slot_bytes);
        std::size_t sendrecvIdx = 0;
        Addr exchBuf = ctx.alloc(2 * slot_bytes);
        // Same staleness hazard as send(): a cell delayed inside a
        // preceding op can have two broadcasts land before it checks
        // the first, so each broadcast writes a private buffer.
        // Delivery order is safe (the B-net bus serializes issues and
        // the receive DMA drains FIFO per cell), so flag >= n means
        // buffer n is final.
        std::size_t bcastOps = 0;
        for (const Op &o : prog.ops)
            if (o.kind == OpKind::bcast)
                ++bcastOps;
        Addr bcastBuf =
            ctx.alloc(std::max<std::size_t>(bcastOps, 1) * 64);
        std::size_t bcastIdx = 0;
        Addr bcastFlag = ctx.alloc_flag();
        std::uint32_t bcastExpect = 0;

        for (const Op &op : prog.ops) {
            switch (op.kind) {
              case OpKind::write: {
                if (op.cell != me)
                    break;
                std::vector<std::uint8_t> data =
                    pattern(op.stamp, op.size);
                ctx.poke(staging, data);
                ctx.write_remote(op.peer,
                                 region + slot_offset(me, op.slot),
                                 staging, op.size);
                break;
              }
              case OpKind::read: {
                if (op.cell != me)
                    break;
                CellId writer = static_cast<CellId>(
                    op.stamp % static_cast<std::uint64_t>(p));
                ctx.read_remote(op.peer,
                                region + slot_offset(writer, op.slot),
                                readBuf, op.size);
                break;
              }
              case OpKind::barrier:
                ctx.barrier();
                break;
              case OpKind::put_burst: {
                if (op.cell != me)
                    break;
                int burst =
                    2 + static_cast<int>(op.stamp % 3); // 2..4
                for (int j = 0; j < burst; ++j) {
                    int slot = (op.slot + j) % slots_per_writer;
                    std::vector<std::uint8_t> data = pattern(
                        op.stamp + static_cast<std::uint64_t>(j),
                        op.size);
                    Addr src = staging +
                               static_cast<Addr>(j) * slot_bytes;
                    ctx.poke(src, data);
                    ctx.put(op.peer, region + slot_offset(me, slot),
                            src, op.size, no_flag, no_flag, true);
                }
                ctx.wait_all_acks();
                break;
              }
              case OpKind::sendrecv: {
                CellId to = (me + op.peer) % p;
                CellId from = (me - op.peer + p) % p;
                std::int32_t tag = static_cast<std::int32_t>(
                    op.stamp & 0x7fff);
                Addr sbuf = sendBuf + sendrecvIdx * slot_bytes;
                ++sendrecvIdx;
                ctx.poke_u32(sbuf,
                             static_cast<std::uint32_t>(op.stamp) +
                                 static_cast<std::uint32_t>(me));
                ctx.send(to, tag, sbuf, op.size);
                ctx.recv(from, tag, exchBuf + slot_bytes,
                         slot_bytes);
                if (ctx.peek_u32(exchBuf + slot_bytes) !=
                    static_cast<std::uint32_t>(op.stamp) +
                        static_cast<std::uint32_t>(from))
                    ++dataErrs;
                break;
              }
              case OpKind::allreduce: {
                double s = ctx.allreduce(
                    static_cast<double>(me + 1), core::ReduceOp::sum);
                if (s != static_cast<double>(p) *
                             static_cast<double>(p + 1) / 2.0)
                    ++dataErrs;
                break;
              }
              case OpKind::bcast: {
                CellId root = static_cast<CellId>(
                    op.stamp % static_cast<std::uint64_t>(p));
                Addr bbuf = bcastBuf + bcastIdx * 64;
                ++bcastIdx;
                if (me == root)
                    ctx.poke_u32(bbuf,
                                 static_cast<std::uint32_t>(
                                     op.stamp * 3));
                ctx.broadcast(root, bbuf, 64, bcastFlag);
                if (me != root) {
                    ++bcastExpect;
                    ctx.wait_flag(bcastFlag, bcastExpect);
                }
                if (ctx.peek_u32(bbuf) !=
                    static_cast<std::uint32_t>(op.stamp * 3))
                    ++dataErrs;
                break;
              }
            }
        }
        ctx.barrier();
    });

    out.errors = result.errors;
    out.deadlock = result.deadlock;
    out.dataErrors = dataErrs.load();
    out.finish = result.finishTick;
    out.faults = m.faults().stats();
    out.executedEvents = m.sim().executed();
    out.tickDigest = hist.digest();
    // "sim." is the kernel's self-telemetry (shard shape, host
    // wall-clock barrier waits): it describes how this run executed,
    // not what the machine did, so the cross-kernel byte-identity
    // compares must not see it.
    if (collectStats) {
        out.statsJson = m.stats_registry().dump_json(false, "sim.");
        out.statsDelta = m.stats_registry().delta_since(statsBefore);
    }
    if (m.reliable())
        out.rnetRetransmits =
            m.stats_registry().sum("*.rnet.retransmits");
    out.regions.resize(static_cast<std::size_t>(prog.cells));
    for (int i = 0; i < prog.cells; ++i) {
        auto idx = static_cast<std::size_t>(i);
        out.regions[idx].resize(region_bytes);
        if (regionBase[idx] != 0 &&
            !m.cell(i).mc().load(
                regionBase[idx],
                std::span<std::uint8_t>(out.regions[idx])))
            fatal("harness: cannot snapshot cell %d region", i);
    }
    if (!obs.statsOut.empty() && !m.dump_stats(obs.statsOut))
        fatal("harness: cannot write stats to %s",
              obs.statsOut.c_str());
    if (!obs.traceOut.empty() && !m.write_trace(obs.traceOut))
        fatal("harness: cannot write trace to %s",
              obs.traceOut.c_str());
    if (!obs.timelineOut.empty() && !m.write_timeline(obs.timelineOut))
        fatal("harness: cannot write timeline to %s",
              obs.timelineOut.c_str());
    if (!obs.timelineCsv.empty() &&
        !m.write_timeline_csv(obs.timelineCsv))
        fatal("harness: cannot write timeline CSV to %s",
              obs.timelineCsv.c_str());
    return out;
}

std::string
check_against_golden(const OpProgram &prog,
                     const sim::FaultPlan &plan,
                     const hw::RetryPolicy &retry, bool reliable)
{
    RunOutcome golden =
        run_program(prog, sim::FaultPlan{}, retry, {}, reliable, 1,
                    /*collectStats=*/false);
    if (!golden.clean())
        return strprintf("golden (zero-fault) run failed: "
                         "deadlock=%d errors=%zu dataErrors=%d",
                         golden.deadlock, golden.errors.size(),
                         golden.dataErrors);

    RunOutcome faulty = run_program(prog, plan, retry, {}, reliable,
                                    1, /*collectStats=*/false);
    if (faulty.deadlock)
        return strprintf("deadlock under plan [%s]",
                         plan.describe().c_str());
    if (!faulty.errors.empty())
        return strprintf("comm error under plan [%s]: %s",
                         plan.describe().c_str(),
                         faulty.errors.front().c_str());
    if (faulty.dataErrors != 0)
        return strprintf("%d self-check data errors under plan [%s]",
                         faulty.dataErrors, plan.describe().c_str());
    for (std::size_t c = 0; c < faulty.regions.size(); ++c) {
        if (faulty.regions[c] == golden.regions[c])
            continue;
        std::size_t at = 0;
        while (faulty.regions[c][at] == golden.regions[c][at])
            ++at;
        return strprintf(
            "end-state divergence under plan [%s]: cell %zu, "
            "writer %zu slot %zu (byte offset %zu)",
            plan.describe().c_str(), c,
            at / (slots_per_writer * slot_bytes),
            (at / slot_bytes) % slots_per_writer, at);
    }
    return "";
}

std::string
check_threads_differential(const OpProgram &prog,
                           const sim::FaultPlan &plan,
                           const hw::RetryPolicy &retry, bool reliable,
                           const std::vector<int> &threadCounts)
{
    RunOutcome seq = run_program(prog, plan, retry, {}, reliable, 1);
    for (int threads : threadCounts) {
        RunOutcome par =
            run_program(prog, plan, retry, {}, reliable, threads);
        if (seq.deadlock != par.deadlock)
            return strprintf("deadlock divergence: threads=1 %d vs "
                             "threads=%d %d",
                             seq.deadlock, threads, par.deadlock);
        if (seq.errors.size() != par.errors.size())
            return strprintf("error-count divergence: threads=1 %zu "
                             "vs threads=%d %zu",
                             seq.errors.size(), threads,
                             par.errors.size());
        if (seq.tickDigest != par.tickDigest)
            return strprintf("tick-history divergence: threads=1 [%s] "
                             "vs threads=%d [%s]",
                             seq.tickDigest.c_str(), threads,
                             par.tickDigest.c_str());
        for (std::size_t c = 0; c < seq.regions.size(); ++c) {
            if (seq.regions[c] == par.regions[c])
                continue;
            std::size_t at = 0;
            while (seq.regions[c][at] == par.regions[c][at])
                ++at;
            return strprintf("memory-image divergence at cell %zu "
                             "byte %zu (threads=1 vs threads=%d)",
                             c, at, threads);
        }
        if (seq.statsJson != par.statsJson) {
            std::size_t at = 0;
            std::size_t n =
                std::min(seq.statsJson.size(), par.statsJson.size());
            while (at < n && seq.statsJson[at] == par.statsJson[at])
                ++at;
            return strprintf("stats-registry divergence at JSON byte "
                             "%zu (threads=1 vs threads=%d): ...%.40s "
                             "vs ...%.40s",
                             at, threads, seq.statsJson.c_str() + at,
                             par.statsJson.c_str() + at);
        }
    }
    return "";
}

OpProgram
shrink(OpProgram prog,
       const std::function<std::string(const OpProgram &)> &fails,
       int max_evals)
{
    int evals = 0;
    auto still_failing = [&](const OpProgram &cand) {
        if (evals >= max_evals)
            return false;
        ++evals;
        return !fails(cand).empty();
    };

    bool progress = true;
    while (progress && prog.ops.size() > 1) {
        progress = false;
        for (std::size_t chunk = prog.ops.size() / 2; chunk >= 1;
             chunk /= 2) {
            for (std::size_t at = 0;
                 at + chunk <= prog.ops.size();) {
                OpProgram cand = prog;
                cand.ops.erase(
                    cand.ops.begin() + static_cast<std::ptrdiff_t>(at),
                    cand.ops.begin() +
                        static_cast<std::ptrdiff_t>(at + chunk));
                if (still_failing(cand)) {
                    prog = std::move(cand);
                    progress = true;
                } else {
                    at += chunk;
                }
            }
            if (chunk == 1)
                break;
        }
    }
    return prog;
}

} // namespace ap::harness
