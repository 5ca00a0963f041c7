/**
 * @file
 * Partition-scoped SPMD job bodies.
 *
 * Each body is a scaled-down relative of the paper's trace programs,
 * rewritten to stay strictly inside its partition: all PUT/GET
 * traffic targets partition members, barriers go to the attempt's
 * partition-scoped S-net context, and reductions use the software
 * group collectives (allreduce_group) — never the machine-wide
 * commreg/ring paths, which would couple independent tenants.
 *
 * Cooperative cancellation: between iterations every member votes
 * `stop?` through a group max-reduction. The vote is itself a
 * collective, so either the whole gang exits at the same iteration
 * boundary (leaving no in-flight one-sided traffic behind) or nobody
 * does — a split-brain exit cannot strand a member inside an
 * exchange. A member votes to stop once the attempt's deadline has
 * passed or a partition cell is fail-stop — both read from model time,
 * so every member sees the same answer at the same tick whichever
 * host thread runs it.
 */

#ifndef AP_SERVE_WORKLOAD_HH
#define AP_SERVE_WORKLOAD_HH

#include "core/context.hh"
#include "serve/job.hh"

namespace ap::serve
{

/** Everything one attempt's fibers need to run a job body. */
struct JobRun
{
    const JobSpec *spec = nullptr;
    /** Partition members, sorted — ranks are row-major partition
     *  coordinates. */
    const core::Group *group = nullptr;
    /** Effective partition shape (after placement rotation). */
    int pw = 1;
    int ph = 1;
    /** Absolute deadline tick; 0 = no deadline. */
    Tick deadlineTick = 0;
};

/**
 * Run @p run.spec's body on the calling cell's context.
 * @return true when every iteration completed, false on a
 * cooperative early exit (deadline/cancel vote).
 * Throws core::CommError like any SPMD body when communication
 * fails underneath it.
 */
bool run_job(core::Context &ctx, const JobRun &run);

} // namespace ap::serve

#endif // AP_SERVE_WORKLOAD_HH
