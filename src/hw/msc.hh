/**
 * @file
 * The MSC+: message controller of one cell (Sections 3.2, 4.1).
 *
 * The MSC+ is the paper's answer to "the handler for PUT/GET should
 * be supported by hardware". It owns five queues in its own RAM —
 * three send queues (user PUT/GET, system PUT/GET, remote access) and
 * two reply queues (GET replies, remote-load replies) — and performs
 * message handling independently of the processor:
 *
 *  - the send controller drains the queues by priority (remote access
 *    first, remote-load replies before GET replies), sets up the send
 *    DMA, streams the payload onto the T-net and asks the MC to
 *    increment the send flag when the DMA completes;
 *  - the receive controller analyzes arriving headers, runs the
 *    receive DMA (scattering stride patterns directly into user
 *    memory through the MMU), increments the receive flag, answers
 *    GET requests automatically, deposits SENDs in the ring buffer,
 *    and services distributed-shared-memory loads/stores;
 *  - queue overflow spills to DRAM and raises the OS refill interrupt
 *    (Section 4.1, "Queues and queue overflows");
 *  - a page fault during a remote transfer interrupts the OS and
 *    flushes the remainder of the message from the network.
 */

#ifndef AP_HW_MSC_HH
#define AP_HW_MSC_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "hw/bufpool.hh"
#include "hw/command.hh"
#include "hw/config.hh"
#include "hw/queues.hh"
#include "mlsim/params.hh"
#include "net/link.hh"
#include "net/message.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"
#include "sim/process.hh"

namespace ap::hw
{

class Cell;

/** MSC+ statistics. */
struct MscStats
{
    std::uint64_t putsSent = 0;
    std::uint64_t getsSent = 0;
    std::uint64_t sendsSent = 0;
    std::uint64_t getRepliesSent = 0;
    std::uint64_t putsReceived = 0;
    std::uint64_t sendsReceived = 0;
    std::uint64_t getRequestsReceived = 0;
    std::uint64_t getRepliesReceived = 0;
    std::uint64_t remoteStores = 0;
    std::uint64_t remoteLoads = 0;
    std::uint64_t acksReceived = 0;
    std::uint64_t payloadBytesSent = 0;
    std::uint64_t payloadBytesReceived = 0;
    std::uint64_t localFaults = 0;   ///< faults while gathering
    std::uint64_t remoteFaults = 0;  ///< faults while scattering
    std::uint64_t flushedMessages = 0;
    /** Issue-to-network latency of sent commands, microseconds. */
    Histogram cmdLatencyUs;
};

/** The message controller of one cell. */
class Msc
{
  public:
    /**
     * @param sim owning simulator
     * @param cfg machine configuration (queue sizes)
     * @param costs the machine's Figure 6 cost table (outlives this
     *              controller)
     * @param cell the cell this controller belongs to
     * @param tnet the outgoing link (raw T-net or the reliable
     *             layer stacked on it)
     * @param pool payload buffer pool of this cell's kernel shard
     * @param faults the machine's fault injector. Injected faults:
     *               forced queue overflows (pushes take the DRAM
     *               spill + refill path even with room in MSC+ RAM)
     *               and page faults during transfer DMA (the
     *               command-drop and message-flush reactions of
     *               Section 4.1 fire without an actual unmapped page)
     * @param spans the machine's span layer; fault and queue
     *              annotations land on the owning cell's track
     */
    Msc(sim::Simulator &sim, const MachineConfig &cfg,
        const mlsim::Params &costs, Cell &cell, net::Link &tnet,
        BufferPool &pool, sim::FaultInjector &faults,
        obs::SpanLayer &spans);

    // -- processor side ------------------------------------------------

    /**
     * Enqueue a user PUT/GET/SEND command (the 8 stores to the
     * special address). Non-blocking; the caller charges itself the
     * enqueue time.
     */
    void issue_user(Command cmd);

    /** Enqueue a system (OS-issued) PUT/GET command. */
    void issue_system(Command cmd);

    /**
     * Issue a hardware remote load of @p size bytes from @p raddr on
     * @p dst. @return a token to pass to take_load_reply().
     */
    std::uint64_t issue_remote_load(CellId dst, Addr raddr,
                                    std::uint32_t size);

    /**
     * Collect a completed remote load. @return true and move the data
     * into @p out when the reply has arrived.
     */
    bool take_load_reply(std::uint64_t token,
                         std::vector<std::uint8_t> &out);

    /** Condition notified when a remote-load reply lands. */
    sim::Condition &load_cond() { return loadCond; }

    /** Issue a hardware remote store (non-blocking, auto-acked). */
    void issue_remote_store(CellId dst, Addr raddr,
                            std::vector<std::uint8_t> data);

    /** The implicit acknowledge flag (Section 4.2). */
    std::uint64_t ack_count() const { return ackFlag; }

    /** Condition notified when the acknowledge flag increments. */
    sim::Condition &ack_cond() { return ackCond; }

    /**
     * User-queue commands the send engine is done with: sent, or
     * dropped at a local fault. The user queue drains in issue
     * order, so every user command issued so far has stopped reading
     * its sending area once this equals user_issued().
     */
    std::uint64_t user_done() const { return userDone; }
    std::uint64_t user_issued() const { return userQ.stats().pushes; }

    /** Condition notified when user_done() grows. */
    sim::Condition &user_done_cond() { return userDoneCond; }

    // -- network side --------------------------------------------------

    /** T-net delivery entry point (attached by the Machine). */
    void deliver(net::Message msg);

    /**
     * Return a payload buffer to this cell's pool once its bytes
     * have been consumed (the runtime's RECEIVE copy-out and the
     * reduction ring-consume paths call this; the MSC+'s own scatter
     * paths release internally). Call only from this cell's shard.
     */
    void recycle_payload(std::vector<std::uint8_t> buf)
    {
        pool.release(std::move(buf));
    }

    // -- observation ---------------------------------------------------

    const MscStats &stats() const { return mscStats; }
    const CommandQueue &user_queue() const { return userQ; }
    const CommandQueue &system_queue() const { return systemQ; }
    const CommandQueue &remote_queue() const { return remoteQ; }
    const CommandQueue &get_reply_queue() const { return getReplyQ; }
    const CommandQueue &load_reply_queue() const { return loadReplyQ; }

  private:
    void kick();
    /** The send engine finished (or dropped) its command. */
    void sender_idle();
    void maybe_refill(CommandQueue &q);
    const char *queue_name(const CommandQueue &q) const;
    CommandQueue *pick_queue();
    void enqueue(CommandQueue &q, Command cmd);
    bool injected_fault();
    /** Annotate "@p prefix@p suffix" as an instant on this cell's
     *  track (full span mode only). */
    void note(const char *cat, const char *prefix,
              const char *suffix = "");
    /**
     * Runs at send-DMA completion (the single fused event kick()
     * schedules): gathers the payload, then injects. @p start is
     * when the send engine picked the command up.
     */
    void process(Command cmd, Tick start);
    void finish_send(Command cmd, std::vector<std::uint8_t> payload,
                     Tick start);
    void receive_body(net::Message msg);
    void local_fault();
    void remote_fault();

    sim::Simulator &sim;
    const mlsim::Params &costs;
    Cell &cell;
    net::Link &tnet;
    BufferPool &pool;
    sim::FaultInjector &faults;
    obs::SpanLayer &spans;

    CommandQueue userQ;
    CommandQueue systemQ;
    CommandQueue remoteQ;
    CommandQueue getReplyQ;
    CommandQueue loadReplyQ;

    bool senderBusy = false;
    bool senderOnUser = false; ///< the busy command came from userQ
    std::uint64_t userDone = 0;
    sim::Condition userDoneCond;
    Tick recvBusyUntil = 0;

    std::uint64_t ackFlag = 0;
    sim::Condition ackCond;

    std::uint64_t nextLoadToken = 1;
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>>
        loadReplies;
    sim::Condition loadCond;

    MscStats mscStats;
};

} // namespace ap::hw

#endif // AP_HW_MSC_HH
