/**
 * @file
 * Causal message-lifecycle spans: the machine's one event stream.
 *
 * The paper's central claim is a latency breakdown (Figs. 7-8): a PUT
 * is 8 user-level stores, then MSC+ queueing, DMA send, T-net
 * transit, receive DMA and the flag update. The stats registry
 * (obs/stats_registry.hh) aggregates those stages machine-wide but
 * cannot say which stage dominated *one* transfer. This layer can:
 * every PUT/GET/SEND/broadcast gets a machine-unique trace id stamped
 * at command issue and propagated through the MSC+ queues, the DMA
 * engines, the network envelopes (retransmits become child spans)
 * and the GET reply, producing a span set per operation with
 * begin/end ticks per stage.
 *
 * Besides those stage events the layer keeps *annotations*: named,
 * untraced events on a track — injected faults, queue spills and
 * refills, processor waits, collective phases and job attempts — as
 * spans or instants. They carry trace id 0, live only in the full log
 * and never reach the flight rings or the critical-path profiler.
 * Everything here is model time recorded by the simulated machine;
 * the parallel kernel's host-time window telemetry lives in the stats
 * registry under sim.* and in its report, so the stream is the same
 * at every thread count.
 *
 * Three modes:
 *  - off:    no ids, no events, probes cost one predictable branch;
 *  - flight: the default. Stage events land only in per-cell bounded
 *            rings (the flight recorder, obs/flight.hh) — a POD store
 *            into a preallocated array, cheap enough to leave on
 *            always;
 *  - full:   stage events and annotations are also appended to an
 *            in-order log, bounded at default_full_capacity events
 *            with drops counted. The critical-path profiler
 *            (obs/critpath.hh) and `--trace-out` read it.
 *
 * span_chrome_json() is the one Chrome trace_event exporter: it
 * renders the full log, the flight rings and the postmortem dump, in
 * one order that depends only on the events.
 * SpanEvent is deliberately POD (no strings, no allocation) so the
 * always-on flight path stays near-zero overhead;
 * bench_trace_overhead guards that budget in CI.
 */

#ifndef AP_OBS_SPAN_HH
#define AP_OBS_SPAN_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.hh"
#include "obs/flight.hh"

namespace ap::obs
{

/** Recording mode of the span layer. */
enum class SpanMode : std::uint8_t
{
    off,    ///< no ids allocated, no events recorded
    flight, ///< per-cell flight-recorder rings only (default)
    full,   ///< rings plus the full in-order event log
};

const char *to_string(SpanMode mode);

/** The machine-wide track, for events not owned by one cell. */
constexpr std::int32_t machine_track = -1;

/** Pipeline stage one span event describes. */
enum class SpanStage : std::uint8_t
{
    issue,        ///< processor stores the 8 command words
    queue,        ///< command parked in an MSC+ queue
    dma_send,     ///< send DMA setup + payload gather/stream
    net,          ///< T-net/B-net flight (inject to arrive)
    dma_recv,     ///< receive DMA (incl. waiting for the engine)
    flag,         ///< MC flag update completing the transfer
    ring_deposit, ///< SEND landed in the receive ring buffer
    ring_receive, ///< buffered SEND waited for its RECEIVE
    retransmit,   ///< reliable-layer go-back-N resend (child span)
    barrier,      ///< S-net episode: first arrival to release
};

constexpr int span_stage_count = 10;

const char *to_string(SpanStage stage);

/** Operation kind, stamped on the issue-stage event of a trace. */
enum class SpanOp : std::uint8_t
{
    none, ///< interior event; the trace's op comes from its issue
    put,
    get,
    send,
    ack, ///< PUT-acknowledge probe (GET to address 0)
    remote_store,
    remote_load,
    bcast,
    barrier,
};

constexpr int span_op_count = 9;

const char *to_string(SpanOp op);

/** What one SpanEvent records. */
enum class SpanKind : std::uint8_t
{
    span,    ///< an interval [begin, end]
    instant, ///< a point in time (begin == end)
};

/**
 * One recorded event: a stage of a traced operation (traceId != 0,
 * name 0) or an annotation (traceId 0, an interned name). POD on
 * purpose: the flight recorder stores these by value in a
 * preallocated ring and the record path must not allocate.
 */
struct SpanEvent
{
    std::uint64_t traceId = 0; ///< machine-unique operation id
    Tick begin = 0;
    Tick end = 0;
    /** Track: the owning cell or machine_track. */
    std::int32_t cell = -1;
    /** Stage-specific detail: retransmit try count, 1 for a net
     *  span whose message was dropped in flight. An annotation's
     *  first number. */
    std::uint32_t aux = 0;
    std::uint32_t aux2 = 0; ///< an annotation's second number
    SpanStage stage = SpanStage::issue;
    SpanOp op = SpanOp::none; ///< set on issue-stage events only
    SpanKind kind = SpanKind::span;
    std::uint8_t name = 0; ///< span_name() id; 0 on stage events
};

/** What an annotation's interned name id stands for. */
struct SpanName
{
    const char *cat = "";          ///< Chrome category ("fault", ...)
    std::string name;              ///< event name ("forced_spill", ...)
    const char *auxKey = nullptr;  ///< args key of aux; nullptr = none
    const char *aux2Key = nullptr; ///< args key of aux2
};

/** The entry behind interned annotation name @p id (>= 1). */
const SpanName &span_name(std::uint8_t id);

/** One numeric annotation argument, rendered as args.key. Values
 *  saturate at 2^32 - 1. */
struct SpanArg
{
    const char *key = nullptr; ///< nullptr = no argument
    std::uint32_t value = 0;

    SpanArg() = default;
    SpanArg(const char *k, std::uint64_t v)
        : key(k), value(v > UINT32_MAX ? UINT32_MAX
                                       : static_cast<std::uint32_t>(v))
    {
    }
};

/**
 * Render @p events as Chrome trace_event JSON: one thread per track
 * ("machine", "cell N"), spans as complete "X" events and instants as
 * "i"; stage events carry their trace id, op and aux in args,
 * annotations their named numbers. Events come out ordered by begin
 * tick, then by their rendered text, so the bytes depend only on the
 * set of events, not on the order they were recorded in (which
 * differs across kernel thread counts). @p dropped lands in
 * otherData.dropped: the events the bound that produced @p events
 * discarded.
 */
std::string span_chrome_json(const std::vector<SpanEvent> &events,
                             std::uint64_t dropped);

/**
 * The machine-wide span recorder. Owned by hw::Machine; hardware
 * components get a reference at construction and call record() at
 * every probe, which does nothing while off or for trace id 0 (only
 * annotations that build a string check full() first). A trace id is
 * (minting cell, that cell's count), so it is unique machine-wide, an
 * event stream from any cell can be grouped by operation, and a
 * cell's ids do not depend on what cells on other kernel shards did
 * first.
 */
class SpanLayer
{
  public:
    /** Bound on the full-mode event log (events beyond it drop). */
    static constexpr std::size_t default_full_capacity = 1 << 20;

    /**
     * @param cells machine size (rings are per cell plus one
     *              machine-wide ring for cell id -1)
     * @param flightCapacity per-cell flight-recorder bound, events
     */
    SpanLayer(int cells, std::size_t flightCapacity);

    SpanMode mode() const { return mode_; }
    void set_mode(SpanMode mode) { mode_ = mode; }

    /** @return true when events are being recorded at all. */
    bool on() const { return mode_ != SpanMode::off; }

    /** @return true when the full log (and annotations) is kept. */
    bool full() const { return mode_ == SpanMode::full; }

    /** Allocate a machine-unique trace id for an operation cell
     *  @p cell starts (-1: the machine); 0 while off. Only @p cell 's
     *  own events may call this. */
    std::uint64_t
    new_trace(std::int32_t cell)
    {
        if (!on())
            return 0;
        std::size_t idx = ring_of(cell);
        return static_cast<std::uint64_t>(idx) << 32 | ++traceSeq[idx];
    }

    /** The trace id of episode @p episode of barrier context @p ctx
     *  (an id no cell mints); 0 while off. */
    std::uint64_t
    episode_trace(std::uint32_t ctx, std::uint64_t episode) const
    {
        return on() ? (std::uint64_t{1} << 52 |
                       static_cast<std::uint64_t>(ctx) << 32 |
                       (episode & 0xffffffffu))
                    : 0;
    }

    /**
     * Record one lifecycle event. No-op while off or for traceId 0
     * (an id allocated while the layer was off). Flight mode stores
     * into the owning cell's ring only; full mode also appends to
     * the in-order log.
     */
    void record(std::int32_t cell, std::uint64_t traceId,
                SpanStage stage, Tick begin, Tick end,
                SpanOp op = SpanOp::none, std::uint32_t aux = 0);

    /**
     * Annotations: a named span or instant on @p track, under
     * category @p cat. Appended to the full log only (trace id 0, no
     * flight ring, ignored by critpath); no-ops unless full().
     * Numbers go in @p a / @p b, never in @p name, so names stay a
     * small interned set.
     */
    void
    span(std::int32_t track, const char *cat, std::string_view name,
         Tick begin, Tick end, SpanArg a = {}, SpanArg b = {})
    {
        if (full())
            annotate(SpanKind::span, track, cat, name, begin, end, a,
                     b);
    }

    void
    instant(std::int32_t track, const char *cat,
            std::string_view name, Tick at, SpanArg a = {})
    {
        if (full())
            annotate(SpanKind::instant, track, cat, name, at, at, a,
                     {});
    }

    /** Stage events recorded since construction (all modes). */
    std::uint64_t
    recorded() const
    {
        return recordedCount.load(std::memory_order_relaxed);
    }

    /** The full-mode in-order log (empty unless mode was full). */
    const std::vector<SpanEvent> &events() const { return fullLog; }

    /** Full-log events dropped at the capacity bound. */
    std::uint64_t full_dropped() const { return fullDropped; }

    /** Flight-ring events aged out, summed over every ring. */
    std::uint64_t flight_dropped() const;

    /** Drop all recorded events (rings and full log). */
    void clear();

    /** The flight ring of @p cell (-1 = the machine-wide ring). */
    const FlightRecorder &flight(std::int32_t cell) const;

    /**
     * Merged snapshot of every flight ring, ordered by begin tick —
     * the postmortem view: the last @p maxPerCell events (by time)
     * each cell saw that ended by @p asOf. @p maxPerCell 0 keeps
     * whole rings. Another shard may be up to one kernel lookahead
     * ahead of or behind the caller, so a reproducible view of the
     * other cells stops one lookahead before the caller's now.
     */
    std::vector<SpanEvent>
    flight_events(std::size_t maxPerCell = 0,
                  Tick asOf = max_tick) const;

  private:
    void annotate(SpanKind kind, std::int32_t track, const char *cat,
                  std::string_view name, Tick begin, Tick end,
                  SpanArg a, SpanArg b);
    /** Append @p ev to the full log, or count it dropped. */
    void append_full(const SpanEvent &ev);

    /** Ring (and trace-id counter) index of @p cell: cell + 1,
     *  0 for the machine and out-of-range tracks. */
    std::size_t
    ring_of(std::int32_t cell) const
    {
        auto idx = static_cast<std::size_t>(cell + 1);
        return idx < rings.size() ? idx : 0;
    }

    SpanMode mode_ = SpanMode::flight;
    /** Trace ids minted per ring index (new_trace()). */
    std::unique_ptr<std::uint64_t[]> traceSeq;
    std::atomic<std::uint64_t> recordedCount{0};
    std::uint64_t fullDropped = 0;
    /** Guards the full-mode log (appended from every shard). */
    mutable std::mutex fullMutex;
    std::vector<SpanEvent> fullLog;
    /** index 0 = machine-wide (-1), index i+1 = cell i. */
    std::vector<FlightRecorder> rings;
    /** One lock per ring: a cell's ring is fed by its own shard AND
     *  by remote senders recording net spans at the destination. */
    std::unique_ptr<std::mutex[]> ringLocks;
};

} // namespace ap::obs

#endif // AP_OBS_SPAN_HH
