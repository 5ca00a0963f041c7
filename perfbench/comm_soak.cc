/**
 * @file
 * comm_soak: one long program per pass on a 1024-cell (32x32) machine
 * with 4 MB per cell, on the sequential kernel. (With 2 sharded-kernel
 * workers a pass took about 0.9 s instead of 0.7 s on a 4-core host,
 * and varied about twice as much from pass to pass.)
 *
 * A pass first runs an isolated-PUT probe (one PUT in flight
 * machine-wide, 16 B to 64 KB, over 1 and 32 hops) and compares its
 * one-way model times with the Fig 7 cost model. Then each iteration
 * runs a seeded mix of the paper's mechanisms, every result checked
 * against host-computed values. Burst lengths and payload sizes form
 * the same multiset in every iteration of every seed; the seed deals
 * them to cells, so each seed's pass does the same total work:
 *   - PUT bursts of 1-12 transfers of 8 B - 16 KB to a seeded torus
 *     shift (bursts past 8 commands overflow the 64-word MSC+ queue);
 *   - GET from another seeded shift;
 *   - SEND/RECEIVE ring exchange through the ring buffers;
 *   - scalar allreduce over the communication registers;
 *   - B-net broadcast from a seeded root;
 *   - DSM remote store and load;
 *   - OVERLAP FIX through rt::Runtime (stride PUT + Ack & Barrier).
 *
 * The kernel, fibers, MSC+/DMA, T-net, ring buffers, run-time system
 * and the always-on flight recorder dominate host time here.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "harness.hh"
#include "machine_probe.hh"
#include "mlsim/costmodel.hh"
#include "obs/critpath.hh"
#include "runtime/garray.hh"
#include "runtime/rts.hh"

using namespace ap;
using namespace ap::core;

namespace pb
{
namespace
{

constexpr int soak_cells = 1024;
constexpr int soak_iters = 3;
constexpr int max_burst = 12;
constexpr std::uint32_t max_chunk = 16384;
constexpr std::uint32_t bcast_bytes = 256;
constexpr int fix_rows = 8;

/** Isolated-PUT probe points: payload bytes x destination. */
constexpr std::array<std::uint32_t, 3> probe_bytes = {16, 1024, 65536};
constexpr int probe_count = 2 * static_cast<int>(probe_bytes.size());

/** Word @p w of cell @p c's source pattern. */
std::uint64_t
pattern_word(std::uint64_t key, CellId c, std::uint32_t w)
{
    return mix64(key ^ static_cast<std::uint64_t>(c)) +
           static_cast<std::uint64_t>(w) * 0x9e3779b97f4a7c15ULL;
}

std::vector<std::uint8_t>
pattern(std::uint64_t key, CellId c, std::uint32_t bytes)
{
    std::vector<std::uint8_t> out(bytes);
    for (std::uint32_t i = 0; i + 8 <= bytes; i += 8) {
        std::uint64_t v = pattern_word(key, c, i / 8);
        std::memcpy(out.data() + i, &v, 8);
    }
    return out;
}

/** Host-side results the cells report, shared across shards. */
struct Shared
{
    std::atomic<std::uint64_t> checks{0};
    std::atomic<std::uint64_t> bad{0};
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> checksum{0};
    std::atomic<std::uint64_t> rtPuts{0};
    std::atomic<std::uint64_t> rtAcks{0};
    std::atomic<std::uint64_t> rtMoves{0};
    std::atomic<Tick> probeSent{0};
    std::array<Tick, probe_count> probeOneWay{};
    Tick overlapTicks = 0; ///< cell 0 only
    /** Host time cell 0 leaves the barrier closing the probe and each
     *  iteration: the run's step boundaries. */
    std::array<double, soak_iters + 1> hostMarks{};
    std::atomic<int> firstBadPhase{-1};

    void
    expect(bool ok, int phase)
    {
        checks.fetch_add(1, std::memory_order_relaxed);
        if (!ok) {
            bad.fetch_add(1, std::memory_order_relaxed);
            int none = -1;
            firstBadPhase.compare_exchange_strong(none, phase);
        }
    }
};

const char *const phase_names[] = {"put",       "get", "send_recv",
                                   "allreduce", "broadcast", "dsm",
                                   "overlap_fix"};

class CommSoak : public Workload
{
  public:
    explicit CommSoak(std::uint64_t seed) : seed(seed)
    {
        Rng rng(seed);
        for (int it = 0; it < soak_iters; ++it) {
            Iter p;
            p.putShift = 1 + rng.below(soak_cells - 1);
            p.getShift = 1 + rng.below(soak_cells - 1);
            p.sendBytes = 8u << rng.below(8);
            p.root = rng.below(soak_cells);
            p.key = rng.next();
            p.slot.resize(soak_cells);
            for (int c = 0; c < soak_cells; ++c)
                p.slot[static_cast<std::size_t>(c)] = c;
            for (std::size_t i = p.slot.size(); i > 1; --i)
                std::swap(p.slot[i - 1],
                          p.slot[static_cast<std::size_t>(
                              rng.below(static_cast<int>(i)))]);
            std::uint64_t sum = 0;
            for (CellId c = 0; c < soak_cells; ++c)
                sum += reduce_value(it, c);
            p.reduceSum = static_cast<double>(sum);
            iters.push_back(p);
        }
        mlsim::CostModel model(mlsim::Params::ap1000_plus());
        net::Torus torus(32, 32);
        for (int k = 0; k < probe_count; ++k) {
            std::uint32_t b = probe_bytes[static_cast<std::size_t>(k) % 3];
            int hops = torus.distance(0, probe_dst(k));
            probeModelUs[static_cast<std::size_t>(k)] =
                model.put_send_overhead(b) + model.network(hops, b) +
                model.recv_ready_latency(b);
        }
    }

    const char *op_name() const override { return "program"; }

    PassResult
    pass(SpanLog &log, std::uint64_t passNo, bool traced) override
    {
        PassResult res;
        int root = log.open("bench", "pass", passNo);

        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(soak_cells);
        cfg.memBytesPerCell = 4u << 20;
        // Traced passes record full spans for the model-time PUT
        // stage shares; model behaviour is the same in every mode.
        if (traced)
            cfg.spanMode = obs::SpanMode::full;
        std::unique_ptr<hw::Machine> m;
        {
            Phase ph(log, &res.setup, "hw", "construct", passNo);
            m = std::make_unique<hw::Machine>(cfg);
        }

        Shared sh;
        SpmdTimes st;
        SpmdResult r = timed_spmd(
            *m, [&](Context &ctx) { body(ctx, sh); }, st);
        log.add("core", "spawn", st.call, st.firstBody, passNo);
        log.add("sim", "run", st.firstBody, st.lastBody, passNo);
        log.add("core", "reap", st.lastBody, st.ret, passNo);
        res.setup.push_back(st.spawn());
        // One run step for the probe and one per iteration; the last
        // also holds the bodies' return after its closing barrier.
        double from = st.firstBody;
        for (double mark : sh.hostMarks) {
            res.run.push_back(mark - from);
            from = mark;
        }
        res.run.back() += st.lastBody - from;
        res.teardown.push_back(st.reap());

        res.check(!r.failed(),
                  strprintf("deadlock=%d (first stuck: %s) errors=%zu%s%s",
                            r.deadlock ? 1 : 0,
                            r.stuck.empty() ? "-" : r.stuck[0].c_str(),
                            r.errors.size(),
                            r.errors.empty() ? "" : ": ",
                            r.errors.empty() ? "" : r.errors[0].c_str()));
        res.attempted += sh.checks.load();
        res.failed += sh.bad.load();
        if (sh.bad.load() > 0)
            res.errors.push_back(strprintf(
                "%llu data checks failed, first in phase %s",
                static_cast<unsigned long long>(sh.bad.load()),
                phase_names[std::max(0, sh.firstBadPhase.load())]));

        const obs::StatsRegistry &reg = m->stats_registry();
        res.ops = m->sim().executed();
        res.fingerprint = {
            {"makespan_ticks", r.finishTick},
            {"events", m->sim().executed()},
            {"tnet_messages", reg.value("tnet.messages")},
            {"tnet_wire_bytes", reg.value("tnet.wire_bytes")},
            {"data_checksum", sh.checksum.load()}};

        if (traced) {
            int c = log.open("trace", "counters", passNo);
            layer_metrics(*m, r, sh, res.layer);
            log.close(c, host_now());
        }

        {
            Phase ph(log, &res.teardown, "obs", "report", passNo);
            std::string text = m->report();
            std::string json = m->stats_json(false);
            res.check(!text.empty() && !json.empty(), "empty report");
        }
        {
            Phase ph(log, &res.teardown, "hw", "destroy", passNo);
            m.reset();
        }
        log.close(root, host_now());
        return res;
    }

  private:
    struct Iter
    {
        int putShift = 1;
        int getShift = 1;
        std::uint32_t sendBytes = 8;
        CellId root = 0;
        std::uint64_t key = 0;  ///< this iteration's pattern key
        double reduceSum = 0;   ///< host-computed allreduce result
        /** A permutation of the cells: cell c's burst and sizes. */
        std::vector<int> slot;
    };

    static CellId
    probe_dst(int k)
    {
        return k < 3 ? 1 : 16 * 32 + 16;
    }

    int
    slot(int it, CellId c) const
    {
        return iters[static_cast<std::size_t>(it)]
            .slot[static_cast<std::size_t>(c)];
    }

    /** PUTs in cell @p c's burst: 1-12. */
    int
    burst(int it, CellId c) const
    {
        return 1 + slot(it, c) % max_burst;
    }

    /** Payload of each PUT of the burst: 8 B-16 KB. */
    std::uint32_t
    put_bytes(int it, CellId c) const
    {
        return 8u << (slot(it, c) / max_burst % 12);
    }

    /** Payload of the GET: 8 B-16 KB. */
    std::uint32_t
    get_bytes(int it, CellId c) const
    {
        return 8u << ((slot(it, c) * 5 + 7) % 12);
    }

    std::uint64_t
    reduce_value(int it, CellId c) const
    {
        return draw(seed, static_cast<std::uint64_t>(it),
                    static_cast<std::uint64_t>(c), 5) %
               1000;
    }

    std::uint32_t
    dsm_value(int it, CellId c) const
    {
        return static_cast<std::uint32_t>(
            draw(seed, static_cast<std::uint64_t>(it),
                 static_cast<std::uint64_t>(c), 6));
    }

    static double
    fix_value(int it, int r, int c)
    {
        return it * 1e6 + r * 1e4 + c;
    }

    /** Bytes at @p addr equal @p want; folds a word into the checksum. */
    static bool
    landed(Context &ctx, Addr addr, const std::vector<std::uint8_t> &want,
           Shared &sh)
    {
        std::vector<std::uint8_t> seen(want.size());
        ctx.peek(addr, seen);
        if (seen.size() >= 8) {
            std::uint64_t w = 0;
            std::memcpy(&w, seen.data() + seen.size() - 8, 8);
            sh.checksum.fetch_add(w, std::memory_order_relaxed);
        }
        return seen == want;
    }

    void
    body(Context &ctx, Shared &sh) const
    {
        const int n = ctx.nprocs();
        const CellId me = ctx.id();
        const CellId right = (me + 1) % n;
        const CellId left = (me - 1 + n) % n;

        Addr src = ctx.alloc(max_chunk);
        Addr land = ctx.alloc(static_cast<std::size_t>(max_burst) *
                              max_chunk);
        Addr got = ctx.alloc(max_chunk);
        Addr recvBuf = ctx.alloc(1024);
        Addr bbuf = ctx.alloc(bcast_bytes);
        Addr dsmStore = ctx.alloc(8);
        Addr dsmLoad = ctx.alloc(8);
        Addr probeBuf = ctx.alloc(probe_bytes.back());
        Addr putFlag = ctx.alloc_flag();
        Addr getFlag = ctx.alloc_flag();
        Addr bcastFlag = ctx.alloc_flag();
        Addr probeFlag = ctx.alloc_flag();
        rt::GArray2D fix(ctx, fix_rows, 2 * n, rt::SplitDim::cols, 1);
        rt::Runtime rts(ctx);

        // -- isolated-PUT probe: one PUT in flight machine-wide --------
        std::uint32_t probesHere = 0;
        for (int k = 0; k < probe_count; ++k) {
            std::uint32_t b = probe_bytes[static_cast<std::size_t>(k) % 3];
            ctx.barrier();
            if (me == 0) {
                sh.probeSent.store(ctx.now());
                ctx.put(probe_dst(k), probeBuf, probeBuf, b, no_flag,
                        probeFlag);
            }
            if (me == probe_dst(k)) {
                ctx.wait_flag(probeFlag, ++probesHere);
                sh.probeOneWay[static_cast<std::size_t>(k)] =
                    ctx.now() - sh.probeSent.load();
            }
        }
        ctx.barrier();
        if (me == 0)
            sh.hostMarks[0] = host_now();

        std::uint32_t putTarget = 0, getTarget = 0, bcastTarget = 0;
        for (int it = 0; it < soak_iters; ++it) {
            const Iter &p = iters[static_cast<std::size_t>(it)];
            std::vector<std::uint8_t> mine =
                pattern(p.key, me, max_chunk);
            ctx.poke(src, mine);
            ctx.barrier();

            // PUT burst to the seeded shift.
            CellId to = (me + p.putShift) % n;
            CellId from = (me - p.putShift + n) % n;
            int k = burst(it, me);
            std::uint32_t z = put_bytes(it, me);
            for (int j = 0; j < k; ++j)
                ctx.put(to, land + static_cast<Addr>(j) * max_chunk, src,
                        z, no_flag, putFlag);
            int kin = burst(it, from);
            std::uint32_t zin = put_bytes(it, from);
            putTarget += static_cast<std::uint32_t>(kin);
            ctx.wait_flag(putFlag, putTarget);
            std::vector<std::uint8_t> want = pattern(p.key, from, zin);
            bool ok = true;
            for (int j = 0; j < kin; ++j)
                ok = landed(ctx, land + static_cast<Addr>(j) * max_chunk,
                            want, sh) && ok;
            sh.expect(ok, 0);

            // GET from another seeded shift.
            CellId peer = (me + p.getShift) % n;
            std::uint32_t zg = get_bytes(it, me);
            ctx.get(peer, src, got, zg, no_flag, getFlag);
            ctx.wait_flag(getFlag, ++getTarget);
            sh.expect(landed(ctx, got, pattern(p.key, peer, zg), sh), 1);
            ctx.barrier();

            // SEND/RECEIVE ring exchange.
            ctx.send(right, it, src, p.sendBytes);
            std::uint32_t len = ctx.recv(left, it, recvBuf, 1024);
            sh.expect(len == p.sendBytes &&
                          landed(ctx, recvBuf,
                                 pattern(p.key, left, p.sendBytes), sh),
                      2);

            // Scalar allreduce over the communication registers.
            double sum = ctx.allreduce(
                static_cast<double>(reduce_value(it, me)), ReduceOp::sum);
            sh.expect(sum == p.reduceSum, 3);

            // B-net broadcast from the seeded root.
            std::vector<std::uint8_t> bwant =
                pattern(p.key ^ 0xb, p.root, bcast_bytes);
            if (me == p.root)
                ctx.poke(bbuf, bwant);
            ctx.broadcast(p.root, bbuf, bcast_bytes, bcastFlag);
            if (me != p.root)
                ctx.wait_flag(bcastFlag, ++bcastTarget);
            sh.expect(landed(ctx, bbuf, bwant, sh), 4);

            // DSM: store into the right neighbour, load from the left.
            ctx.poke_u32(dsmLoad, dsm_value(it, me));
            ctx.remote_store_u32(right, dsmStore, dsm_value(it, me));
            ctx.wait_all_acks();
            ctx.barrier();
            std::uint32_t stored = ctx.peek_u32(dsmStore);
            std::uint32_t loaded = ctx.remote_load_u32(left, dsmLoad);
            sh.expect(stored == dsm_value(it, left) &&
                          loaded == dsm_value(it, left),
                      5);

            // OVERLAP FIX: refresh the ghost columns of a
            // column-split array through the run-time system.
            int lo = fix.lo(me), cnt = fix.count(me);
            for (int rr = 0; rr < fix_rows; ++rr)
                for (int c = lo; c < lo + cnt; ++c)
                    fix.set_local(rr, c, fix_value(it, rr, c));
            Tick f0 = ctx.now();
            rts.overlap_fix(fix);
            if (me == 0)
                sh.overlapTicks += ctx.now() - f0;
            bool ghosts = true;
            for (int rr = 0; rr < fix_rows; ++rr) {
                if (me > 0)
                    ghosts = ghosts && fix.get_local(rr, lo - 1) ==
                                           fix_value(it, rr, lo - 1);
                if (me < n - 1)
                    ghosts = ghosts && fix.get_local(rr, lo + cnt) ==
                                           fix_value(it, rr, lo + cnt);
            }
            sh.expect(ghosts, 6);
            ctx.barrier();
            if (me == 0)
                sh.hostMarks[static_cast<std::size_t>(it) + 1] = host_now();
        }

        const ContextStats &cs = ctx.stats();
        sh.ops.fetch_add(cs.puts + cs.putStrides + cs.gets + cs.getStrides +
                         cs.sends + cs.recvs + cs.barriers + cs.gops +
                         cs.vgops);
        sh.rtPuts.fetch_add(rts.stats().putsIssued);
        sh.rtAcks.fetch_add(rts.stats().acksIssued);
        sh.rtMoves.fetch_add(rts.stats().moves);
    }

    void
    layer_metrics(const hw::Machine &m, const SpmdResult &r,
                  const Shared &sh, std::map<std::string, double> &out) const
    {
        add_machine_counters(m, out);
        out["core.ops"] = static_cast<double>(sh.ops.load());
        out["core.makespan_us"] = ticks_to_us(r.finishTick);
        double blocked = 0.0;
        for (Tick t : r.cellBlocked)
            blocked += static_cast<double>(t);
        out["core.idle_pct"] =
            r.finishTick > 0
                ? 100.0 * blocked /
                      (static_cast<double>(r.finishTick) * soak_cells)
                : 0.0;
        double err = 0.0;
        for (int k = 0; k < probe_count; ++k) {
            double emu =
                ticks_to_us(sh.probeOneWay[static_cast<std::size_t>(k)]);
            err += std::fabs(emu / probeModelUs[static_cast<std::size_t>(k)] -
                             1.0);
        }
        out["core.put_model_err_pct"] = 100.0 * err / probe_count;
        out["core.put_oneway_us.b16"] = ticks_to_us(sh.probeOneWay[0]);
        out["core.put_oneway_us.b1024"] = ticks_to_us(sh.probeOneWay[1]);
        out["core.put_oneway_us.b65536"] = ticks_to_us(sh.probeOneWay[2]);
        out["runtime.puts_issued"] = static_cast<double>(sh.rtPuts.load());
        out["runtime.acks_issued"] = static_cast<double>(sh.rtAcks.load());
        out["runtime.moves"] = static_cast<double>(sh.rtMoves.load());
        out["runtime.overlap_fix_us"] = ticks_to_us(sh.overlapTicks);

        // Model-time PUT stage shares from the full span log; partial
        // whenever the log dropped events (obs.spans_dropped > 0).
        obs::CritPathReport cp = obs::analyze_spans(m.spans().events());
        const obs::OpAttribution &put =
            cp.ops[static_cast<std::size_t>(obs::SpanOp::put)];
        auto share = [&put](obs::SpanStage s) {
            return put.endToEndTicks > 0
                       ? 100.0 *
                             static_cast<double>(
                                 put.stageTicks[static_cast<std::size_t>(s)]) /
                             static_cast<double>(put.endToEndTicks)
                       : 0.0;
        };
        out["hw.put.queue_pct"] = share(obs::SpanStage::queue);
        out["hw.put.dma_send_pct"] = share(obs::SpanStage::dma_send);
        out["hw.put.dma_recv_pct"] = share(obs::SpanStage::dma_recv);
        out["net.put.wire_pct"] = share(obs::SpanStage::net);
        out["obs.critpath_coverage"] = cp.coverage();
    }

    std::uint64_t seed;
    std::vector<Iter> iters;
    std::array<double, probe_count> probeModelUs{};
};

} // namespace

std::unique_ptr<Workload>
make_comm_soak(std::uint64_t seed)
{
    return std::make_unique<CommSoak>(seed);
}

} // namespace pb
