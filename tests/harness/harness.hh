/**
 * @file
 * Seeded property-test harness for the PUT/GET fabric under fault
 * injection.
 *
 * A harness run is (op program, fault plan): the op program is a
 * deterministic random sequence of communication operations derived
 * from a seed, and the plan perturbs the machine underneath it. The
 * correctness oracle is linearizable end state: after the simulator
 * drains, the owned memory region of every cell must hold exactly the
 * bytes a zero-fault golden run of the same program produces.
 *
 * Determinism of the expected end state is by construction: every
 * remotely written slot belongs to exactly one writer cell (the slot
 * index encodes the writer), so no write-write race exists and the
 * final value of each slot is the writer's last write in its own
 * program order — independent of message timing, retries, or
 * duplicate deliveries.
 *
 * Two op vocabularies:
 *  - verified ops (write/read through the hardened runtime paths,
 *    S-net barriers): safe under lossy plans (drops, duplicates,
 *    reorders, injected page faults) because the runtime retries and
 *    verifies by read-back;
 *  - lossless-only ops (PUT bursts, SEND/RECEIVE, reductions,
 *    broadcast): exercised under plans that perturb but never lose
 *    messages (forced overflows, latency jitter).
 *
 * When a seed fails, shrink() reduces the op program to a minimal
 * still-failing sequence by greedy chunk removal, so the bug report
 * is a handful of ops instead of a hundred.
 */

#ifndef AP_TESTS_HARNESS_HH
#define AP_TESTS_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "hw/config.hh"
#include "obs/cli.hh"
#include "sim/fault.hh"

namespace ap::harness
{

/** One operation of a property program. */
enum class OpKind : std::uint8_t
{
    write,     ///< verified write_remote into an owned slot
    read,      ///< verified read_remote of a random slot
    barrier,   ///< all-cell S-net barrier (global)
    put_burst, ///< back-to-back acked PUTs + wait (lossless only)
    sendrecv,  ///< ring SEND/RECEIVE exchange (global, lossless only)
    allreduce, ///< scalar reduction check (global, lossless only)
    bcast,     ///< B-net broadcast check (global, lossless only)
};

const char *to_string(OpKind kind);

struct Op
{
    OpKind kind = OpKind::barrier;
    /** Issuing cell; -1 for global ops every cell executes. */
    CellId cell = -1;
    /** Peer (write/read target) or ring distance (global ops). */
    CellId peer = 0;
    /** Slot index within the issuer's partition, [0, slots_per_writer). */
    int slot = 0;
    /** Payload bytes (<= slot_bytes). */
    std::uint32_t size = 8;
    /** Value seed the payload pattern expands from. */
    std::uint64_t stamp = 0;

    std::string describe() const;
};

/** A deterministic random op sequence over a fixed machine size. */
struct OpProgram
{
    int cells = 4;
    std::vector<Op> ops;
};

/**
 * Slot geometry of the shared region each cell owns. Verified-write
 * programs assign each writer a fresh slot per write (never rewriting
 * one): under a reorder plan a held-back straggler of an old write
 * could otherwise land after a newer write to the same slot and
 * revert it — an unfixable race no retry protocol can see.
 */
constexpr int slots_per_writer = 8;
constexpr std::uint32_t slot_bytes = 256;

/**
 * Generate a program from @p seed. With @p lossless_ops the full
 * vocabulary is used; otherwise only verified ops and barriers.
 */
OpProgram make_program(std::uint64_t seed, int cells, int op_count,
                       bool lossless_ops);

/** Outcome of one harness run. */
struct RunOutcome
{
    /** Owned region bytes of every cell after the machine drained. */
    std::vector<std::vector<std::uint8_t>> regions;
    /** CommErrors surfaced by cells (typed failures, not hangs). */
    std::vector<std::string> errors;
    bool deadlock = false;
    /** Self-checking ops (sendrecv/allreduce/bcast) that saw wrong
     *  data. */
    int dataErrors = 0;
    Tick finish = 0;
    sim::FaultStats faults;
    /** Kernel events the run executed (throughput accounting). */
    std::uint64_t executedEvents = 0;
    /** Total reliable-layer retransmissions (0 with the layer off). */
    std::uint64_t rnetRetransmits = 0;
    /**
     * Stats-registry change over the run (construction snapshot vs
     * drained machine), so stress iterations can report what the
     * fault plan actually exercised.
     */
    std::map<std::string, std::int64_t> statsDelta;
    /**
     * Order-sensitive digest of the executed event sequence
     * ("events=N hash=0x...") — the comparable fingerprint the
     * threads-differential check matches between kernels.
     */
    std::string tickDigest;
    /** Full stats-registry JSON of the drained machine (compact). */
    std::string statsJson;

    bool
    clean() const
    {
        return !deadlock && errors.empty() && dataErrors == 0;
    }
};

/**
 * Execute @p prog on a machine configured with @p plan / @p retry.
 * When @p obs carries output paths, the run is traced and the
 * machine's stats-registry JSON / Chrome trace are written after the
 * simulator drains (a replayed failure seed becomes a timeline).
 *
 * @p threads > 1 runs the kernel on worker threads, which must give
 * the same run as threads = 1 (check_threads_differential).
 *
 * With @p collectStats off, the outcome's statsDelta and statsJson
 * stay empty: walking and rendering the registry costs several
 * hundred microseconds per run, which dominates callers that only
 * compare memory regions (the golden check, soak loops).
 */
RunOutcome run_program(const OpProgram &prog,
                       const sim::FaultPlan &plan,
                       const hw::RetryPolicy &retry,
                       const obs::ObsOptions &obs = {},
                       bool reliable = false, int threads = 1,
                       bool collectStats = true);

/** The default retry policy harness runs use under lossy plans. */
hw::RetryPolicy harness_retry();

/**
 * Property check: @p prog under @p plan must reproduce the end state
 * of the zero-fault golden run. @return empty string on success, a
 * diagnostic on failure.
 */
std::string check_against_golden(const OpProgram &prog,
                                 const sim::FaultPlan &plan,
                                 const hw::RetryPolicy &retry,
                                 bool reliable = false);

/**
 * Differential determinism check: run @p prog under @p plan at
 * threads=1 and at each of @p threads, and require every parallel
 * run to be indistinguishable from the one-thread run: identical
 * tick-history digests, identical final memory images of every cell,
 * and identical stats-registry JSON outside the kernel's own "sim."
 * subtree.
 * @return empty string on success, a diagnostic naming the first
 * divergence otherwise.
 */
std::string check_threads_differential(const OpProgram &prog,
                                       const sim::FaultPlan &plan,
                                       const hw::RetryPolicy &retry,
                                       bool reliable,
                                       const std::vector<int> &threads);

/**
 * Shrink @p prog to a minimal op sequence for which @p fails still
 * returns a non-empty diagnostic. Greedy chunk removal, bounded by
 * @p max_evals predicate evaluations.
 */
OpProgram
shrink(OpProgram prog,
       const std::function<std::string(const OpProgram &)> &fails,
       int max_evals = 200);

/** Render a program as one op per line (failure reports). */
std::string describe(const OpProgram &prog);

} // namespace ap::harness

#endif // AP_TESTS_HARNESS_HH
