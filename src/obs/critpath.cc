#include "obs/critpath.hh"

#include <algorithm>
#include <map>

#include "base/logging.hh"
#include "obs/json.hh"

namespace ap::obs
{

namespace
{

/** Attribution of one trace's events. */
struct TraceResult
{
    Tick endToEnd = 0;
    Tick attributed = 0;
    std::array<Tick, span_stage_count> stageTicks{};
    SpanOp op = SpanOp::none;
};

/**
 * Exact partition of one trace's covered time. Boundary sweep: for
 * each elementary segment between consecutive event endpoints, the
 * covering span with the latest begin (ties: the later pipeline
 * stage) wins the whole segment. Stage totals sum to the union of
 * the spans; n is small (a PUT is ~6 events), so the quadratic
 * sweep is fine.
 */
TraceResult
attribute_trace(const std::vector<SpanEvent> &evs)
{
    TraceResult r;
    Tick lo = evs.front().begin, hi = evs.front().end;
    for (const SpanEvent &ev : evs) {
        lo = std::min(lo, ev.begin);
        hi = std::max(hi, std::max(ev.begin, ev.end));
        if (ev.op != SpanOp::none && r.op == SpanOp::none)
            r.op = ev.op;
    }
    r.endToEnd = hi - lo;

    std::vector<Tick> bounds;
    bounds.reserve(evs.size() * 2);
    for (const SpanEvent &ev : evs) {
        bounds.push_back(ev.begin);
        bounds.push_back(ev.end);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());

    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        Tick a = bounds[i], b = bounds[i + 1];
        const SpanEvent *winner = nullptr;
        for (const SpanEvent &ev : evs) {
            if (ev.begin > a || ev.end < b)
                continue; // does not cover [a, b)
            if (!winner || ev.begin > winner->begin ||
                (ev.begin == winner->begin &&
                 ev.stage > winner->stage))
                winner = &ev;
        }
        if (!winner)
            continue;
        Tick len = b - a;
        r.attributed += len;
        r.stageTicks[static_cast<std::size_t>(winner->stage)] += len;
    }
    return r;
}

} // namespace

CritPathReport
analyze_spans(const std::vector<SpanEvent> &events,
              std::uint64_t dropped)
{
    CritPathReport rep;
    rep.dropped = dropped;
    std::map<std::uint64_t, std::vector<SpanEvent>> traces;
    for (const SpanEvent &ev : events) {
        if (ev.traceId == 0)
            continue;
        traces[ev.traceId].push_back(ev);
        ++rep.events;
        ++rep.stages[static_cast<std::size_t>(ev.stage)].events;
    }

    for (const auto &[id, evs] : traces) {
        (void)id;
        TraceResult tr = attribute_trace(evs);
        ++rep.traces;
        rep.endToEndTicks += tr.endToEnd;
        rep.attributedTicks += tr.attributed;
        for (int s = 0; s < span_stage_count; ++s)
            rep.stages[static_cast<std::size_t>(s)].busyTicks +=
                tr.stageTicks[static_cast<std::size_t>(s)];

        OpAttribution &op =
            rep.ops[static_cast<std::size_t>(tr.op)];
        ++op.traces;
        op.endToEndTicks += tr.endToEnd;
        op.attributedTicks += tr.attributed;
        for (int s = 0; s < span_stage_count; ++s)
            op.stageTicks[static_cast<std::size_t>(s)] +=
                tr.stageTicks[static_cast<std::size_t>(s)];
    }
    return rep;
}

std::string
CritPathReport::text() const
{
    // A truncated log's coverage covers only what it kept: say so on
    // the coverage line itself, not only below it.
    std::string scope =
        dropped == 0
            ? ""
            : strprintf(" of the retained events only; %llu span "
                        "events dropped",
                        static_cast<unsigned long long>(dropped));
    std::string out = strprintf(
        "critical-path profile: %llu operations, %llu span events\n"
        "  end-to-end %.1f us, attributed %.1f us (coverage "
        "%.1f%%%s)\n",
        static_cast<unsigned long long>(traces),
        static_cast<unsigned long long>(events),
        ticks_to_us(endToEndTicks), ticks_to_us(attributedTicks),
        coverage() * 100.0, scope.c_str());
    if (dropped != 0)
        out += strprintf("  PARTIAL: %llu span events dropped at the "
                         "%zu-event bound\n",
                         static_cast<unsigned long long>(dropped),
                         SpanLayer::default_full_capacity);
    out += "  stage           time(us)    share   events\n";
    double denom =
        endToEndTicks == 0 ? 1.0 : ticks_to_us(endToEndTicks);
    for (int s = 0; s < span_stage_count; ++s) {
        const StageAttribution &st =
            stages[static_cast<std::size_t>(s)];
        if (st.events == 0 && st.busyTicks == 0)
            continue;
        out += strprintf(
            "  %-14s %9.1f  %6.1f%%  %7llu\n",
            to_string(static_cast<SpanStage>(s)),
            ticks_to_us(st.busyTicks),
            100.0 * ticks_to_us(st.busyTicks) / denom,
            static_cast<unsigned long long>(st.events));
    }
    Tick gap = endToEndTicks > attributedTicks
                   ? endToEndTicks - attributedTicks
                   : 0;
    out += strprintf("  %-14s %9.1f  %6.1f%%\n", "(unattributed)",
                     ticks_to_us(gap),
                     100.0 * ticks_to_us(gap) / denom);

    out += "  per-operation breakdown:\n";
    for (int o = 0; o < span_op_count; ++o) {
        const OpAttribution &op = ops[static_cast<std::size_t>(o)];
        if (op.traces == 0)
            continue;
        out += strprintf(
            "    %-12s %5llu ops  mean %8.2f us  coverage %5.1f%% "
            " [",
            to_string(static_cast<SpanOp>(o)),
            static_cast<unsigned long long>(op.traces),
            ticks_to_us(op.endToEndTicks) /
                static_cast<double>(op.traces),
            op_coverage(static_cast<SpanOp>(o)) * 100.0);
        bool first = true;
        double opDenom = op.endToEndTicks == 0
                             ? 1.0
                             : ticks_to_us(op.endToEndTicks);
        for (int s = 0; s < span_stage_count; ++s) {
            Tick t = op.stageTicks[static_cast<std::size_t>(s)];
            if (t == 0)
                continue;
            out += strprintf(
                "%s%s %.1f%%", first ? "" : ", ",
                to_string(static_cast<SpanStage>(s)),
                100.0 * ticks_to_us(t) / opDenom);
            first = false;
        }
        out += "]\n";
    }
    return out;
}

std::string
CritPathReport::json(bool pretty) const
{
    JsonTree tree;
    tree.set("traces", static_cast<std::uint64_t>(traces));
    tree.set("events", static_cast<std::uint64_t>(events));
    tree.set("end_to_end_us", ticks_to_us(endToEndTicks));
    tree.set("attributed_us", ticks_to_us(attributedTicks));
    tree.set("coverage", coverage());
    tree.set("dropped", dropped);
    for (int s = 0; s < span_stage_count; ++s) {
        const StageAttribution &st =
            stages[static_cast<std::size_t>(s)];
        std::string p = strprintf(
            "stages.%s.", to_string(static_cast<SpanStage>(s)));
        tree.set(p + "us", ticks_to_us(st.busyTicks));
        tree.set(p + "share",
                 endToEndTicks == 0
                     ? 0.0
                     : static_cast<double>(st.busyTicks) /
                           static_cast<double>(endToEndTicks));
        tree.set(p + "events", st.events);
    }
    for (int o = 0; o < span_op_count; ++o) {
        const OpAttribution &op = ops[static_cast<std::size_t>(o)];
        if (op.traces == 0)
            continue;
        std::string p = strprintf(
            "ops.%s.", to_string(static_cast<SpanOp>(o)));
        tree.set(p + "traces", op.traces);
        tree.set(p + "end_to_end_us",
                 ticks_to_us(op.endToEndTicks));
        tree.set(p + "attributed_us",
                 ticks_to_us(op.attributedTicks));
        tree.set(p + "coverage",
                 op_coverage(static_cast<SpanOp>(o)));
        for (int s = 0; s < span_stage_count; ++s) {
            Tick t = op.stageTicks[static_cast<std::size_t>(s)];
            if (t == 0)
                continue;
            tree.set(p + "stage_us." +
                         to_string(static_cast<SpanStage>(s)),
                     ticks_to_us(t));
        }
    }
    return tree.render(pretty);
}

} // namespace ap::obs
