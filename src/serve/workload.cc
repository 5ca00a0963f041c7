#include "serve/workload.hh"

#include <cstdint>

#include "base/logging.hh"

namespace ap::serve
{

namespace
{

/** splitmix-style hash for deterministic per-(job,iter,rank) draws. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Gang-wide stop vote (group max-reduction): true when any member
 * wants out. All members call this at the same iteration boundary.
 */
bool
stop_vote(core::Context &ctx, const JobRun &r)
{
    bool over = r.deadlineTick != 0 && ctx.now() >= r.deadlineTick;
    for (CellId c : r.group->members())
        over = over || ctx.owner().cell_failed(c);
    double agreed = ctx.allreduce_group(*r.group, over ? 1.0 : 0.0,
                                        core::ReduceOp::max);
    return agreed > 0.0;
}

void
iter_compute(core::Context &ctx, const JobRun &r)
{
    ctx.compute_us(r.spec->computeUs);
}

/** Row/column ring shifts: the Cannon-style MatMul skeleton. */
bool
body_matmul(core::Context &ctx, const JobRun &r)
{
    const JobSpec &s = *r.spec;
    int me = r.group->rank_of(ctx.id());
    int rx = me % r.pw;
    int ry = me / r.pw;
    std::uint32_t b = s.bytes;

    Addr src = ctx.alloc(b);
    Addr rowBuf = ctx.alloc(b);
    Addr colBuf = ctx.alloc(b);
    Addr rowFlag = ctx.alloc_flag();
    Addr colFlag = ctx.alloc_flag();

    CellId right = r.group->at(ry * r.pw + (rx + 1) % r.pw);
    CellId down = r.group->at(((ry + 1) % r.ph) * r.pw + rx);

    for (int it = 0; it < s.iters; ++it) {
        auto t = static_cast<std::uint32_t>(it + 1);
        if (r.pw > 1)
            ctx.put(right, rowBuf, src, b, no_flag, rowFlag);
        if (r.ph > 1)
            ctx.put(down, colBuf, src, b, no_flag, colFlag);
        if (r.pw > 1)
            ctx.wait_flag(rowFlag, t);
        if (r.ph > 1)
            ctx.wait_flag(colFlag, t);
        iter_compute(ctx, r);
        if (stop_vote(ctx, r))
            return false;
    }
    ctx.barrier();
    return true;
}

/** 4-neighbor halo exchange + two scalar reductions. */
bool
body_cg(core::Context &ctx, const JobRun &r)
{
    const JobSpec &s = *r.spec;
    int me = r.group->rank_of(ctx.id());
    int rx = me % r.pw;
    int ry = me / r.pw;
    std::uint32_t b = s.bytes;

    Addr src = ctx.alloc(b);
    Addr halo = ctx.alloc(b);
    Addr haloFlag = ctx.alloc_flag();

    CellId left = r.group->at(ry * r.pw + (rx + r.pw - 1) % r.pw);
    CellId right = r.group->at(ry * r.pw + (rx + 1) % r.pw);
    CellId up = r.group->at(((ry + r.ph - 1) % r.ph) * r.pw + rx);
    CellId down = r.group->at(((ry + 1) % r.ph) * r.pw + rx);
    std::uint32_t perIter = (r.pw > 1 ? 2u : 0u) +
                            (r.ph > 1 ? 2u : 0u);

    double rho = 1.0;
    for (int it = 0; it < s.iters; ++it) {
        if (r.pw > 1) {
            ctx.put(left, halo, src, b, no_flag, haloFlag);
            ctx.put(right, halo, src, b, no_flag, haloFlag);
        }
        if (r.ph > 1) {
            ctx.put(up, halo, src, b, no_flag, haloFlag);
            ctx.put(down, halo, src, b, no_flag, haloFlag);
        }
        if (perIter > 0)
            ctx.wait_flag(haloFlag,
                          static_cast<std::uint32_t>(it + 1) *
                              perIter);
        rho = ctx.allreduce_group(
            *r.group, rho + static_cast<double>(me + it),
            core::ReduceOp::sum);
        iter_compute(ctx, r);
        ctx.allreduce_group(*r.group, rho, core::ReduceOp::max);
        if (stop_vote(ctx, r))
            return false;
    }
    ctx.barrier();
    return true;
}

/** All-to-all transpose within the partition (FT skeleton). */
bool
body_ft(core::Context &ctx, const JobRun &r)
{
    const JobSpec &s = *r.spec;
    int p = r.group->size();
    int me = r.group->rank_of(ctx.id());
    std::uint32_t b = s.bytes;

    Addr src = ctx.alloc(b);
    Addr slots = ctx.alloc(static_cast<std::size_t>(p) * b);
    Addr aaFlag = ctx.alloc_flag();

    for (int it = 0; it < s.iters; ++it) {
        for (int k = 1; k < p; ++k) {
            CellId dst = r.group->at((me + k) % p);
            ctx.put(dst,
                    slots + static_cast<Addr>(me) *
                                static_cast<Addr>(b),
                    src, b, no_flag, aaFlag);
        }
        if (p > 1)
            ctx.wait_flag(aaFlag,
                          static_cast<std::uint32_t>(it + 1) *
                              static_cast<std::uint32_t>(p - 1));
        iter_compute(ctx, r);
        if (stop_vote(ctx, r))
            return false;
    }
    ctx.barrier();
    return true;
}

/** Ring exchange + three scalar reductions (SCG skeleton). */
bool
body_scg(core::Context &ctx, const JobRun &r)
{
    const JobSpec &s = *r.spec;
    int p = r.group->size();
    int me = r.group->rank_of(ctx.id());
    std::uint32_t b = s.bytes;

    Addr src = ctx.alloc(b);
    Addr ring = ctx.alloc(b);
    Addr ringFlag = ctx.alloc_flag();
    CellId next = r.group->at((me + 1) % p);

    for (int it = 0; it < s.iters; ++it) {
        if (p > 1) {
            ctx.put(next, ring, src, b, no_flag, ringFlag);
            ctx.wait_flag(ringFlag,
                          static_cast<std::uint32_t>(it + 1));
        }
        double v = static_cast<double>(mix(s.seed + static_cast<
                                           std::uint64_t>(it)) %
                                       1024);
        ctx.allreduce_group(*r.group, v, core::ReduceOp::sum);
        ctx.allreduce_group(*r.group, v, core::ReduceOp::min);
        ctx.allreduce_group(*r.group, v, core::ReduceOp::max);
        iter_compute(ctx, r);
        if (stop_vote(ctx, r))
            return false;
    }
    ctx.barrier();
    return true;
}

/** Vertical halos + max residual reduction (tomcatv skeleton). */
bool
body_tomcatv(core::Context &ctx, const JobRun &r)
{
    const JobSpec &s = *r.spec;
    int me = r.group->rank_of(ctx.id());
    int rx = me % r.pw;
    int ry = me / r.pw;
    std::uint32_t b = s.bytes;

    Addr src = ctx.alloc(b);
    Addr halo = ctx.alloc(b);
    Addr haloFlag = ctx.alloc_flag();
    CellId up = r.group->at(((ry + r.ph - 1) % r.ph) * r.pw + rx);
    CellId down = r.group->at(((ry + 1) % r.ph) * r.pw + rx);

    for (int it = 0; it < s.iters; ++it) {
        if (r.ph > 1) {
            ctx.put(up, halo, src, b, no_flag, haloFlag);
            ctx.put(down, halo, src, b, no_flag, haloFlag);
            ctx.wait_flag(haloFlag,
                          static_cast<std::uint32_t>(it + 1) * 2u);
        }
        iter_compute(ctx, r);
        ctx.allreduce_group(*r.group,
                            1.0 / static_cast<double>(it + 1),
                            core::ReduceOp::max);
        if (stop_vote(ctx, r))
            return false;
    }
    ctx.barrier();
    return true;
}

/**
 * Synthetic PUT/GET permutation traffic: every iteration each member
 * PUTs to (and GETs from) the member `shift` ranks away, with the
 * shift drawn from the job seed — every member receives exactly one
 * PUT per iteration, so the completion flags stay cumulative.
 */
bool
body_gen(core::Context &ctx, const JobRun &r)
{
    const JobSpec &s = *r.spec;
    int p = r.group->size();
    int me = r.group->rank_of(ctx.id());
    std::uint32_t b = s.bytes;

    Addr src = ctx.alloc(b);
    Addr land = ctx.alloc(b);
    Addr pull = ctx.alloc(b);
    Addr putFlag = ctx.alloc_flag();
    Addr getFlag = ctx.alloc_flag();

    for (int it = 0; it < s.iters; ++it) {
        auto t = static_cast<std::uint32_t>(it + 1);
        if (p > 1) {
            int shift = 1 + static_cast<int>(
                                mix(s.seed +
                                    static_cast<std::uint64_t>(it)) %
                                static_cast<std::uint64_t>(p - 1));
            CellId peer = r.group->at((me + shift) % p);
            ctx.put(peer, land, src, b, no_flag, putFlag);
            ctx.get(peer, src, pull, b, no_flag, getFlag);
            ctx.wait_flag(putFlag, t);
            ctx.wait_flag(getFlag, t);
        }
        iter_compute(ctx, r);
        if (stop_vote(ctx, r))
            return false;
    }
    ctx.barrier();
    return true;
}

} // namespace

bool
run_job(core::Context &ctx, const JobRun &run)
{
    switch (run.spec->kind) {
    case JobKind::matmul:
        return body_matmul(ctx, run);
    case JobKind::cg:
        return body_cg(ctx, run);
    case JobKind::ft:
        return body_ft(ctx, run);
    case JobKind::scg:
        return body_scg(ctx, run);
    case JobKind::tomcatv:
        return body_tomcatv(ctx, run);
    case JobKind::gen:
        return body_gen(ctx, run);
    }
    panic("unknown job kind %d", static_cast<int>(run.spec->kind));
}

} // namespace ap::serve
