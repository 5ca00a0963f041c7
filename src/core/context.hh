/**
 * @file
 * The per-cell programming interface — the paper's contribution as an
 * API.
 *
 * A Context is what SPMD code running on one cell sees: the
 * put()/get()/put_stride()/get_stride() interface of Section 3.1, the
 * readRemote()/writeRemote() runtime calls of Section 2.2, flags and
 * the Ack & Barrier completion model, S-net barriers, scalar
 * reductions over communication registers and vector reductions over
 * the ring buffer (Section 4.5), the SEND/RECEIVE compatibility model
 * (Section 4.3), and distributed-shared-memory load/store
 * (Section 4.2).
 *
 * Every operation both *acts* on the functional machine (bytes move,
 * flags increment) and *emits a probe event* into the attached trace,
 * which MLSim can replay under a different machine model.
 */

#ifndef AP_CORE_CONTEXT_HH
#define AP_CORE_CONTEXT_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "core/trace.hh"
#include "hw/machine.hh"
#include "net/message.hh"
#include "sim/process.hh"

namespace ap::core
{

/**
 * Typed communication failure. Thrown by the hardened runtime paths
 * (write_remote/read_remote under a RetryPolicy, rts_movewait) once
 * the retry budget is exhausted — the alternative to hanging forever
 * on a completion flag that will never increment.
 */
class CommError : public std::runtime_error
{
  public:
    enum class Kind
    {
        timeout,     ///< completion wait timed out, retries exhausted
        fault,       ///< page faults flushed the transfer repeatedly
        watchdog,    ///< flag wait exceeded the watchdog deadline;
                     ///< what() carries a machine-wide wait graph
        cell_failed, ///< this cell (or a required peer) is fail-stop
    };

    CommError(Kind kind, CellId cell, CellId peer,
              const std::string &what)
        : std::runtime_error(what), errKind(kind), cellId(cell),
          peerId(peer)
    {
    }

    Kind kind() const { return errKind; }
    CellId cell() const { return cellId; }
    CellId peer() const { return peerId; }

  private:
    Kind errKind;
    CellId cellId;
    CellId peerId;
};

/** Reduction operators for global operations. */
enum class ReduceOp : std::uint8_t
{
    sum,
    min,
    max,
    prod,
};

/** A set of cells for group collectives (sorted, unique). */
class Group
{
  public:
    /** Construct from a member list (sorted and deduplicated). */
    explicit Group(std::vector<CellId> members);

    /** The group [0, machine size): every cell. */
    static Group all(int cells);

    /** A contiguous range [first, first + count). */
    static Group range(CellId first, int count);

    /** Every @p stride-th cell starting at @p first. */
    static Group strided(CellId first, int count, int stride);

    int size() const { return static_cast<int>(ids.size()); }
    const std::vector<CellId> &members() const { return ids; }

    /** Rank of @p cell in the group, or -1 when not a member. */
    int rank_of(CellId cell) const;

    /** Member at @p rank. */
    CellId at(int rank) const;

    bool contains(CellId cell) const { return rank_of(cell) >= 0; }

  private:
    std::vector<CellId> ids;
};

/** Per-context operation counters (Table 3 bookkeeping). */
struct ContextStats
{
    std::uint64_t puts = 0;
    std::uint64_t putStrides = 0;
    std::uint64_t gets = 0;
    std::uint64_t getStrides = 0;
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    std::uint64_t barriers = 0;
    std::uint64_t gops = 0;
    std::uint64_t vgops = 0;
    std::uint64_t acksRequested = 0;
    std::uint64_t putBytes = 0;
    std::uint64_t getBytes = 0;
    /** Collectives completed over a reduced (degraded) member set
     *  because one or more cells had failed. */
    std::uint64_t degradedCollectives = 0;
};

/**
 * The SPMD execution context of one cell. Created by run_spmd(); all
 * methods must be called from the cell's own fiber.
 */
class Context
{
  public:
    /**
     * @param machine the functional machine
     * @param id this cell
     * @param proc the fiber process running this cell's program
     * @param allBarrier S-net context covering all cells
     * @param trace probe sink (may be nullptr)
     */
    Context(hw::Machine &machine, CellId id, sim::Process &proc,
            net::Snet::ContextId allBarrier, Trace *trace);

    // -- identity -----------------------------------------------------

    /** This cell's id. */
    CellId id() const { return cellId; }

    /** Machine size. */
    int nprocs() const { return machine.size(); }

    /** Current simulated time. */
    Tick now() const;

    // -- local memory -------------------------------------------------

    /**
     * Bump-allocate @p bytes of this cell's memory (8-byte aligned).
     * Symmetric programs that allocate in lockstep get identical
     * addresses on every cell.
     */
    Addr alloc(std::size_t bytes);

    /** Allocate and zero a 4-byte flag variable. */
    Addr alloc_flag();

    /** Write host bytes into this cell's memory at logical @p addr. */
    void poke(Addr addr, std::span<const std::uint8_t> data);

    /** Read this cell's memory at logical @p addr. */
    void peek(Addr addr, std::span<std::uint8_t> out) const;

    /** Typed helpers. */
    void poke_f64(Addr addr, double v);
    double peek_f64(Addr addr) const;
    void poke_u32(Addr addr, std::uint32_t v);
    std::uint32_t peek_u32(Addr addr) const;

    // -- the PUT/GET interface (Section 3.1) ---------------------------

    /**
     * put(node_id, raddr, laddr, size, send_flag, recv_flag, ack):
     * non-blocking one-sided write of @p size bytes from local
     * @p laddr to @p raddr on @p dst. @p send_flag increments here
     * when the send DMA completes; @p recv_flag increments on @p dst
     * when its receive DMA completes. With @p ack, a GET probe to
     * address 0 follows the PUT and bumps the implicit acknowledge
     * flag on its way back (Section 4.1, "Acknowledge packet").
     */
    void put(CellId dst, Addr raddr, Addr laddr, std::uint32_t size,
             Addr send_flag, Addr recv_flag, bool ack = false);

    /**
     * get(node_id, raddr, laddr, size, send_flag, recv_flag):
     * non-blocking one-sided read. @p send_flag increments on @p dst
     * when the reply leaves it; @p recv_flag increments here when the
     * data lands.
     */
    void get(CellId dst, Addr raddr, Addr laddr, std::uint32_t size,
             Addr send_flag, Addr recv_flag);

    /** put_stride(): the 1-D strided PUT of Section 3.1. */
    void put_stride(CellId dst, Addr raddr, Addr laddr, bool ack,
                    Addr send_flag, Addr recv_flag,
                    net::StrideSpec send_spec,
                    net::StrideSpec recv_spec);

    /** get_stride(): the 1-D strided GET of Section 3.1. */
    void get_stride(CellId dst, Addr raddr, Addr laddr,
                    Addr send_flag, Addr recv_flag,
                    net::StrideSpec send_spec,
                    net::StrideSpec recv_spec);

    /**
     * Two-dimensional stride PUT by repetition — the paper's answer
     * to higher dimensions: "high-dimensional stride data transfer
     * can be done efficiently by repeating one-dimensional stride
     * data transfer, as long as the overhead for each ... is very
     * small" (Section 4). Issues @p planes 1-D stride PUTs whose
     * local/remote start addresses advance by the plane pitches.
     * @p recv_flag increments once per plane at the destination.
     */
    void put_stride_2d(CellId dst, Addr raddr, Addr laddr, bool ack,
                       Addr send_flag, Addr recv_flag,
                       net::StrideSpec send_spec,
                       net::StrideSpec recv_spec,
                       std::uint32_t planes, Addr send_plane_pitch,
                       Addr recv_plane_pitch);

    // -- runtime direct remote access (Section 2.2) --------------------

    /**
     * writeRemote: blocking one-sided write (PUT + ack wait).
     */
    void write_remote(CellId dst, Addr raddr, Addr laddr,
                      std::uint32_t size);

    /**
     * readRemote: blocking one-sided read (GET + flag wait).
     */
    void read_remote(CellId dst, Addr raddr, Addr laddr,
                     std::uint32_t size);

    // -- completion detection ------------------------------------------

    /** Read a flag variable. */
    std::uint32_t flag(Addr flag_addr) const;

    /** Block until the flag at @p flag_addr reaches @p target. */
    void wait_flag(Addr flag_addr, std::uint32_t target);

    /**
     * Block until every PUT issued with ack=true has been
     * acknowledged — the Ack half of the Ack & Barrier model.
     */
    void wait_all_acks();

    /**
     * wait_flag with a deadline. @return true when the flag reached
     * @p target, false when the deadline passed first.
     */
    bool wait_flag_for(Addr flag_addr, std::uint32_t target,
                       Tick deadline);

    /** wait_all_acks with a deadline. @return true on completion. */
    bool wait_all_acks_for(Tick deadline);

    /**
     * Write off every outstanding acknowledgement as lost and restart
     * ack accounting from the hardware counter's current value. Part
     * of recovery: after a timeout the runtime reissues transfers
     * instead of waiting for acks that will never come.
     */
    void resync_acks();

    /**
     * Issue a bare acknowledge probe (a GET to address 0) toward
     * @p dst. In-order delivery makes its reply confirm every
     * earlier PUT to @p dst — the building block of the
     * ack-last-PUT-per-destination policy of Section 5.4.
     */
    void ack_probe(CellId dst);

    // -- distributed shared memory (Section 4.2) -----------------------

    /** Blocking hardware remote load of a 32-bit word. */
    std::uint32_t remote_load_u32(CellId dst, Addr raddr);

    /** Blocking hardware remote load of a 64-bit word. */
    std::uint64_t remote_load_u64(CellId dst, Addr raddr);

    /** Non-blocking hardware remote store (auto-acked). */
    void remote_store_u32(CellId dst, Addr raddr, std::uint32_t v);

    /** Non-blocking hardware remote store of 8 bytes. */
    void remote_store_u64(CellId dst, Addr raddr, std::uint64_t v);

    /**
     * Load through a *global* shared-space address (Section 4.2's
     * 36-bit split space): the upper bits select the owning cell,
     * the rest its local address. Blocking.
     */
    std::uint32_t shared_load_u32(Addr global);

    /** Store through a global shared-space address. Non-blocking. */
    void shared_store_u32(Addr global, std::uint32_t v);

    /** Global shared-space address of (cell, local address). */
    Addr shared_addr(CellId cell, Addr local) const;

    // -- collectives (Sections 2.3, 4.5) --------------------------------

    /** All-cell barrier over the S-net. */
    void barrier();

    /** Group barrier in software (communication registers). */
    void barrier_group(const Group &group);

    /** Scalar allreduce over communication registers. */
    double allreduce(double value, ReduceOp op);

    /** Scalar allreduce within a group. */
    double allreduce_group(const Group &group, double value,
                           ReduceOp op);

    /** Integer scalar allreduce. */
    std::uint64_t allreduce_u64(std::uint64_t value, ReduceOp op);

    /**
     * Vector allreduce: ring pipeline over SEND/RECEIVE with in-place
     * ring-buffer consumption (Section 4.5). @p vec (logical address
     * of @p count doubles) is replaced by the elementwise reduction.
     */
    void allreduce_vector(Addr vec, std::uint32_t count, ReduceOp op);

    // -- B-net broadcast (Section 4, Figure 4) ----------------------------

    /**
     * Broadcast [laddr, laddr + size) from @p root over the B-net
     * into the same address on every other cell, incrementing
     * @p recv_flag there on arrival. The root's own copy is already
     * in place; receivers wait on the flag. Non-blocking at the root.
     */
    void broadcast(CellId root, Addr laddr, std::uint32_t size,
                   Addr recv_flag);

    // -- SEND/RECEIVE (Section 4.3) -------------------------------------

    /** Blocking-free SEND of memory [laddr, laddr+size) to @p dst. */
    void send(CellId dst, std::int32_t tag, Addr laddr,
              std::uint32_t size);

    /**
     * Blocking RECEIVE: searches the ring buffer for a message from
     * @p src (any_source ok) with @p tag (any_tag ok) and copies it
     * to @p laddr. @return the payload size.
     */
    std::uint32_t recv(CellId src, std::int32_t tag, Addr laddr,
                       std::uint32_t max_size);

    // -- computation ----------------------------------------------------

    /** Model @p us microseconds of processor work. */
    void compute_us(double us);

    /** Model @p flops floating-point operations of work. */
    void compute_flops(double flops);

    // -- bookkeeping ----------------------------------------------------

    /**
     * Mark subsequent operations as issued by the language runtime:
     * their trace events carry viaRts, which MLSim bills as run-time
     * system time (address calculation, stride pattern discovery).
     */
    void set_rts_mode(bool on);

    const ContextStats &stats() const { return ctxStats; }

    /**
     * @return true when the most recent collective (barrier or
     * reduction) completed over a reduced member set because some
     * cells had failed — the degraded-result marker: the value is
     * valid over the survivors only.
     */
    bool last_collective_degraded() const
    {
        return lastCollectiveDegraded;
    }

    /** The hardware cell behind this context. */
    hw::Cell &cell() { return machine.cell(cellId); }
    const hw::Cell &cell() const { return machine.cell(cellId); }

    /** The owning machine. */
    hw::Machine &owner() { return machine; }

  private:
    /** What a parked cell waits for, as Machine::wait_graph() names
     *  it: "blocked on <what> addr=<addr> (want <target>)". */
    struct WaitOn
    {
        const char *what;
        Addr addr = 0;
        std::uint64_t target = 0;
        /** Record a wait that parked as a "wait" span named what. */
        bool span = false;
    };

    /**
     * The one blocking wait of a cell program: park this cell's fiber
     * on @p cond until @p ready() holds. ready() is re-tested after
     * every wakeup and never again once it returned true, so it may
     * consume what it finds. While RetryPolicy::watchdogUs is set, a
     * parked wait is recorded for Machine::wait_graph(). With
     * @p deadline 0 the watchdog owns the wait: it throws
     * CommError once watchdogUs passes (an untimed park when the
     * watchdog is off). A caller's own @p deadline replaces the
     * watchdog.
     * @return false only when @p deadline passed first.
     */
    template <typename Ready>
    bool park(sim::Condition &cond, Ready &&ready, const WaitOn &on,
              Tick deadline = 0);
    /** park()'s expired watchdog: CommError(cell_failed) on a
     *  fail-stop cell, else CommError(watchdog) with the wait graph. */
    [[noreturn]] void watchdog_fire(const WaitOn &on);

    void trace(TraceEvent ev);
    /** Throw CommError(cell_failed) when this cell is fail-stop. */
    void check_alive();
    /** Park until the DSM load reply for @p token arrives. */
    void wait_load_reply(std::uint64_t token, Addr raddr,
                         std::vector<std::uint8_t> &data);
    /** The group of all non-failed cells. */
    Group live_group() const;
    /** Guarded ring-buffer take (copy or in-place). */
    hw::SendRecord ring_take_guarded(CellId src, std::int32_t tag,
                                     bool in_place,
                                     const char *what);
    /** Guarded load of communication register @p index. */
    std::uint32_t commreg_load(int index);
    /** Two register loads: the double in @p index, @p index + 1. */
    double commreg_load_f64(int index);
    /** group_reduce() body, after failed members were filtered out. */
    double group_reduce_impl(const Group &group, double value,
                             ReduceOp op);
    void issue(hw::Command cmd);
    void issue_ack_probe(CellId dst);
    double combine(double a, double b, ReduceOp op) const;
    double commreg_exchange(CellId partner, int slot, double value);
    double group_reduce(const Group &group, double value, ReduceOp op);
    std::int32_t group_tag(const Group &group);
    Addr scratch_flag();
    Addr scratch_buffer(std::size_t bytes);
    Addr verify_buffer(std::size_t bytes);
    /**
     * GET with timeout and bounded reissue. @return true once the
     * data landed at @p laddr. A dedicated flag tracks the reply;
     * duplicated replies merely overshoot it.
     */
    bool timed_get(CellId dst, Addr raddr, Addr laddr,
                   std::uint32_t size, Tick timeout, int max_retries);
    /**
     * Block until the MSC+ is done with every user command issued so
     * far (sent or dropped), so none still reads its sending area.
     * A send flag cannot tell: a command dropped at a local fault
     * never bumps it.
     */
    void wait_user_commands_done();
    void wait_flag_internal(Addr flag_addr, std::uint32_t target);
    /**
     * Library-internal SEND: stages @p data in a scratch buffer
     * protected by a send flag (the paper's mechanism for guarding
     * the sending area of a non-blocking transfer), and emits no
     * probe event — collective cost is modelled at the gop/vgop
     * level.
     */
    void internal_send(CellId dst, std::int32_t tag,
                       std::span<const std::uint8_t> data);
    /** Library-internal blocking in-place receive; no probe event. */
    hw::SendRecord internal_recv(CellId src, std::int32_t tag);

    hw::Machine &machine;
    CellId cellId;
    sim::Process &proc;
    net::Snet::ContextId allBarrier;
    Trace *traceSink;

    Addr heapNext;
    Addr verifyBufAddr = 0;
    std::size_t verifyBufSize = 0;
    Addr scratchFlagAddr = 0;
    Addr internalSendFlag = 0;
    std::uint32_t internalSendCount = 0;
    std::unordered_map<std::size_t, Addr> scratchBufs;
    std::unordered_map<std::uint64_t, std::uint32_t> groupSeq;
    std::uint64_t ackBase = 0;
    std::uint64_t acksOutstanding = 0;
    std::uint64_t tracedPutAcks = 0;
    std::uint32_t collectiveSeq = 0;
    bool rtsMode = false;
    bool lastCollectiveDegraded = false;
    ContextStats ctxStats;
};

template <typename Ready>
bool
Context::park(sim::Condition &cond, Ready &&ready, const WaitOn &on,
              Tick deadline)
{
    if (ready())
        return true;
    const hw::RetryPolicy &rp = machine.config().retry;
    bool watchdog = deadline == 0 && rp.watchdog_enabled();
    if (watchdog)
        deadline = now() + us_to_ticks(rp.watchdogUs);
    if (rp.watchdog_enabled())
        machine.set_wait(cellId, on.what, on.addr, on.target);
    Tick begin = now();
    bool done = true;
    do {
        if (deadline == 0) {
            proc.wait(cond);
        } else if (!proc.wait_until(cond, deadline)) {
            done = ready();
            break;
        }
    } while (!ready());
    if (rp.watchdog_enabled())
        machine.clear_wait(cellId);
    if (!done && watchdog)
        watchdog_fire(on);
    if (on.span)
        machine.spans().span(cellId, "wait", on.what, begin, now());
    return done;
}

} // namespace ap::core

#endif // AP_CORE_CONTEXT_HH
