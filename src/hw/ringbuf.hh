/**
 * @file
 * Ring buffers: the SEND/RECEIVE receive area (Section 4.3).
 *
 * SEND is a PUT whose destination is the receiving cell's ring buffer
 * rather than a user address. RECEIVE searches the ring buffer and
 * copies the message out to the user area — the intrinsic buffering
 * copy the PUT/GET model exists to avoid. When the buffer fills, the
 * MSC+ interrupts the operating system, which allocates a new buffer
 * (modelled as growth plus a counted interrupt).
 *
 * Vector global reductions read their operands directly out of the
 * ring buffer (in-place takes) without the user-area copy — the
 * paper's optimization for reduction pipelines.
 *
 * The model never blocks: a receiver probes with try_receive() and
 * parks on arrival_cond() itself (core::Context does, through its one
 * blocking wait).
 */

#ifndef AP_HW_RINGBUF_HH
#define AP_HW_RINGBUF_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "base/types.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"
#include "sim/process.hh"

namespace ap::hw
{

/** One buffered SEND message. */
struct SendRecord
{
    CellId src = invalid_cell;
    std::int32_t tag = 0;
    std::vector<std::uint8_t> payload;
    /** Causal span trace id of the SEND (obs/span.hh). */
    std::uint64_t traceId = 0;
    /** When the record landed in the ring (set by deposit()). */
    Tick depositedAt = 0;
};

/** Ring buffer statistics. */
struct RingBufferStats
{
    std::uint64_t deposits = 0;
    std::uint64_t receives = 0;
    std::uint64_t copies = 0;        ///< receive-side user copies
    std::uint64_t inPlaceReads = 0;  ///< copy-free consumptions
    std::uint64_t growInterrupts = 0;///< OS buffer reallocation
    std::uint64_t maxDepth = 0;      ///< high-water buffered messages
    std::uint64_t maxBytes = 0;      ///< high-water buffered bytes
};

/** Match-any wildcard for receive filters. */
constexpr CellId any_source = -1;
/** Match-any wildcard for tag filters. */
constexpr std::int32_t any_tag = -1;

/** The circular receive buffer of one cell. */
class RingBuffer
{
  public:
    /**
     * @param sim the simulator that timestamps deposits and matches
     * @param cell the owning cell (its span track)
     * @param spans the machine's span layer
     * @param capacity_bytes initial payload capacity
     */
    RingBuffer(sim::Simulator &sim, CellId cell, obs::SpanLayer &spans,
               std::size_t capacity_bytes = 64 * 1024);

    /**
     * Deposit an arriving SEND (called by the MSC+ receive path).
     * Grows via a counted OS interrupt when the message doesn't fit.
     */
    void deposit(SendRecord rec);

    /**
     * Non-blocking probe: takes the oldest record matching (@p src,
     * @p tag) into @p out and returns true, or returns false. The take
     * counts as a user-area copy, or as a copy-free in-place read
     * (vector reductions) when @p in_place.
     */
    bool try_receive(CellId src, std::int32_t tag, SendRecord &out,
                     bool in_place = false);

    /** Notified on every deposit; receivers park here and re-probe. */
    sim::Condition &arrival_cond() { return arrival; }

    /** Messages currently buffered. */
    std::size_t depth() const { return records.size(); }

    /** Payload bytes currently buffered. */
    std::size_t bytes() const { return usedBytes; }

    /** Current capacity (grows on overflow). */
    std::size_t capacity() const { return capacityBytes; }

    const RingBufferStats &stats() const { return rbStats; }

  private:
    std::optional<std::size_t> find(CellId src, std::int32_t tag) const;
    SendRecord take(std::size_t index);

    sim::Simulator &sim;
    CellId cell;
    obs::SpanLayer &spans;
    std::size_t capacityBytes;
    std::size_t usedBytes = 0;
    std::deque<SendRecord> records;
    sim::Condition arrival;
    RingBufferStats rbStats;
};

} // namespace ap::hw

#endif // AP_HW_RINGBUF_HH
