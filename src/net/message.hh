/**
 * @file
 * Wire-level message formats of the AP1000+ networks.
 *
 * The functional machine moves real bytes: a PUT data message carries
 * its payload, a GET request carries the descriptor the remote MSC+
 * needs to synthesize the reply, and so on. Header fields mirror the
 * parameters of the paper's put()/get() interface (Section 3.1).
 */

#ifndef AP_NET_MESSAGE_HH
#define AP_NET_MESSAGE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"

namespace ap::net
{

/** Kinds of traffic the T-net / B-net carry. */
enum class MsgKind : std::uint8_t
{
    put_data,          ///< one-sided write (also carries SENDs)
    get_request,       ///< one-sided read request
    get_reply,         ///< data coming back for a GET
    remote_store,      ///< DSM hardware store
    remote_store_ack,  ///< automatic ack for a remote store
    remote_load,       ///< DSM hardware load (blocking)
    remote_load_reply, ///< data coming back for a remote load
    broadcast,         ///< B-net broadcast payload
    rnet_ack,          ///< standalone cumulative ack (reliable layer)
};

/** @return a short printable name for a message kind. */
const char *to_string(MsgKind kind);

/**
 * One-dimensional stride descriptor, exactly the put_stride()
 * parameter set of Section 3.1 (item size / item count / skip between
 * items), one instance for each side of the transfer.
 */
struct StrideSpec
{
    std::uint32_t itemSize = 0; ///< bytes per item
    std::uint32_t count = 0;    ///< number of items
    std::uint32_t skip = 0;     ///< bytes to skip between items

    /** A degenerate spec meaning "contiguous block of @p size". */
    static StrideSpec
    contiguous(std::uint32_t size)
    {
        return StrideSpec{size, 1, 0};
    }

    /** @return true for a contiguous (count <= 1) pattern. */
    bool is_contiguous() const { return count <= 1; }

    /** Total payload bytes described. */
    std::uint64_t
    total_bytes() const
    {
        return static_cast<std::uint64_t>(itemSize) * count;
    }

    /** Footprint in memory: payload plus skipped gaps. */
    std::uint64_t
    footprint() const
    {
        if (count == 0)
            return 0;
        return static_cast<std::uint64_t>(count) * itemSize +
               static_cast<std::uint64_t>(count - 1) * skip;
    }

    bool operator==(const StrideSpec &o) const = default;
};

/**
 * A network message. Payload is carried by value; the functional
 * layer is correctness-first and the timing layer never copies these.
 */
struct Message
{
    MsgKind kind = MsgKind::put_data;
    CellId src = invalid_cell;
    CellId dst = invalid_cell;

    /** Remote (destination-side) start address, logical. */
    Addr raddr = 0;
    /** Local (origin-side) start address, logical. */
    Addr laddr = 0;

    /** Flag to bump on the origin when the reply lands (GET). */
    Addr originFlag = no_flag;
    /** Flag to bump on the destination when receive DMA completes. */
    Addr destFlag = no_flag;

    /** Receive-side scatter pattern (PUT) / send-side gather (GET). */
    StrideSpec remoteStride;
    /** Origin-side pattern for the reply (GET only). */
    StrideSpec localStride;

    /** True when this PUT should land in the ring buffer (SEND). */
    bool toRingBuffer = false;

    /** True for a GET to address 0 — the PUT-acknowledge probe. */
    bool isAckProbe = false;

    /** Message tag carried by SENDs for RECEIVE matching. */
    std::int32_t tag = 0;

    /** Matching token for remote-load replies. */
    std::uint64_t token = 0;

    /**
     * Causal span trace id (obs/span.hh); 0 = untraced. Pure
     * simulator metadata: it occupies no wire bytes, is excluded
     * from the checksum, and replies/acks inherit it so one trace
     * id follows an operation across cells.
     */
    std::uint64_t traceId = 0;

    /**
     * Reliable-layer envelope (net/reliable.hh). When @ref reliable
     * is set the message carries a per-(src,dst)-channel sequence
     * number, a piggybacked cumulative ack for the reverse channel,
     * and an FNV-1a checksum over the header+payload.
     */
    bool reliable = false;
    /** Channel sequence number (1-based; 0 = unsequenced). */
    std::uint64_t seq = 0;
    /** Cumulative ack: highest in-order seq received on dst->src. */
    std::uint64_t ackSeq = 0;
    /** payload_checksum() at send time (reliable messages only). */
    std::uint32_t checksum = 0;

    /** Payload bytes (data-bearing kinds only). */
    std::vector<std::uint8_t> payload;

    /** Header size on the wire, bytes (8 words, Section 4.1). */
    static constexpr std::uint32_t header_bytes = 32;

    /** Extra wire bytes of the reliable envelope (seq/ack/csum). */
    static constexpr std::uint32_t reliable_header_bytes = 16;

    /** Total wire size: header plus payload. */
    std::uint64_t
    wire_bytes() const
    {
        return header_bytes + payload.size() +
               (reliable ? reliable_header_bytes : 0);
    }

    /**
     * FNV-1a-32 over the delivery-relevant header fields, seq and the
     * payload. Excludes ackSeq so a retransmission can refresh its
     * piggybacked ack without recomputing the checksum.
     */
    std::uint32_t payload_checksum() const;

    /** Diagnostic one-liner. */
    std::string describe() const;
};

/** A network's receiver: where it hands every arriving message
 *  (hw::Machine::deliver(), or the reliable layer under the MSC+). */
using Deliver = std::function<void(Message)>;

} // namespace ap::net

#endif // AP_NET_MESSAGE_HH
