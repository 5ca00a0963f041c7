/**
 * @file
 * Critical-path profiler over causal span events.
 *
 * Takes the full-mode span log (obs/span.hh), groups events by trace
 * id, and attributes each operation's end-to-end latency to pipeline
 * stages. Attribution is an exact partition of the covered time: the
 * event window of one trace is swept boundary to boundary, and each
 * elementary segment is charged to the *innermost* covering span
 * (latest begin wins, so a retransmit child inside a net span takes
 * the segment). Stage totals therefore sum to the union of the
 * trace's spans; whatever the union misses is reported as
 * unattributed, and coverage = attributed / end-to-end is the
 * profiler's own confidence number — the repo's acceptance bar is
 * >= 95% on PUT traffic.
 *
 * The report aggregates machine-wide and per operation kind (PUT,
 * GET, SEND, ...), renders as text for terminals and as JSON (via
 * obs/json.hh) for CI schema checks, and is wired into
 * `ap_run --profile` and the benches. A log truncated at the span
 * layer's bound yields a partial profile; the caller passes the
 * drop count and both renderings say so.
 */

#ifndef AP_OBS_CRITPATH_HH
#define AP_OBS_CRITPATH_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/span.hh"

namespace ap::obs
{

/** Exclusive time charged to one stage. */
struct StageAttribution
{
    Tick busyTicks = 0;        ///< exclusive attributed time
    std::uint64_t events = 0;  ///< span events of this stage
};

/** Aggregate over one operation kind. */
struct OpAttribution
{
    std::uint64_t traces = 0;
    Tick endToEndTicks = 0;   ///< sum of per-trace max(end)-min(begin)
    Tick attributedTicks = 0; ///< sum of per-trace covered time
    std::array<Tick, span_stage_count> stageTicks{};
};

/** The critical-path attribution of one span log. */
struct CritPathReport
{
    std::uint64_t traces = 0;
    std::uint64_t events = 0;
    /** Span events the log's bound dropped before analysis; nonzero
     *  means every number below covers only part of the run. */
    std::uint64_t dropped = 0;
    Tick endToEndTicks = 0;
    Tick attributedTicks = 0;
    std::array<StageAttribution, span_stage_count> stages{};
    std::array<OpAttribution, span_op_count> ops{};

    /** Fraction of end-to-end time attributed to named stages. */
    double
    coverage() const
    {
        return endToEndTicks == 0
                   ? 1.0
                   : static_cast<double>(attributedTicks) /
                         static_cast<double>(endToEndTicks);
    }

    /** Coverage of one operation kind. */
    double
    op_coverage(SpanOp op) const
    {
        const OpAttribution &o =
            ops[static_cast<std::size_t>(op)];
        return o.endToEndTicks == 0
                   ? 1.0
                   : static_cast<double>(o.attributedTicks) /
                         static_cast<double>(o.endToEndTicks);
    }

    /** Human-readable stage table plus per-op breakdown. */
    std::string text() const;

    /** JSON document (coverage, dropped, stages.<name>,
     *  ops.<name>). */
    std::string json(bool pretty = true) const;
};

/**
 * Attribute @p events (any order, any mix of traces). Events with
 * traceId 0 — annotations — are ignored. @p dropped is the number of
 * events the log lost to its bound (SpanLayer::full_dropped()).
 */
CritPathReport analyze_spans(const std::vector<SpanEvent> &events,
                             std::uint64_t dropped = 0);

} // namespace ap::obs

#endif // AP_OBS_CRITPATH_HH
