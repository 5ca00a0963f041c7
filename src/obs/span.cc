#include "obs/span.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <set>
#include <tuple>

#include "base/logging.hh"
#include "obs/json.hh"

namespace ap::obs
{

namespace
{

/** The process-wide annotation name table; id i is names[i - 1]. A
 *  deque, so entries stay put while other threads intern. */
struct NameTable
{
    std::mutex mu;
    std::deque<SpanName> names;
};

NameTable &
name_table()
{
    static NameTable table;
    return table;
}

bool
same_key(const char *a, const char *b)
{
    return a == b || (a && b && std::strcmp(a, b) == 0);
}

/** Intern (@p cat, @p name, arg keys); @p cat and the keys must be
 *  string literals, which the table keeps by pointer. */
std::uint8_t
intern(const char *cat, std::string_view name, const char *auxKey,
       const char *aux2Key)
{
    NameTable &t = name_table();
    std::lock_guard<std::mutex> lock(t.mu);
    for (std::size_t i = 0; i < t.names.size(); ++i) {
        const SpanName &n = t.names[i];
        if (n.name == name && std::strcmp(n.cat, cat) == 0 &&
            same_key(n.auxKey, auxKey) &&
            same_key(n.aux2Key, aux2Key))
            return static_cast<std::uint8_t>(i + 1);
    }
    if (t.names.size() == UINT8_MAX)
        panic("more than %d span annotation names", UINT8_MAX);
    t.names.push_back(SpanName{cat, std::string(name), auxKey, aux2Key});
    return static_cast<std::uint8_t>(t.names.size());
}

/** Chrome thread id of @p track: the machine track is 0, cell c is
 *  c + 1. */
int
tid_of(std::int32_t track)
{
    return track + 1;
}

std::string
track_name(std::int32_t track)
{
    return track == machine_track ? "machine"
                                  : strprintf("cell %d", track);
}

/** One event as a Chrome trace_event object, without separators. */
std::string
chrome_event(const SpanEvent &ev)
{
    std::string name, args;
    const char *cat = "span";
    if (ev.name == 0) {
        name = to_string(ev.stage);
        args = strprintf("\"trace\": %llu",
                         static_cast<unsigned long long>(ev.traceId));
        if (ev.op != SpanOp::none)
            args += strprintf(", \"op\": \"%s\"", to_string(ev.op));
        if (ev.aux != 0)
            args += strprintf(", \"aux\": %u", ev.aux);
    } else {
        const SpanName &n = span_name(ev.name);
        name = json_escape(n.name);
        cat = n.cat;
        if (n.auxKey)
            args = strprintf("\"%s\": %u", n.auxKey, ev.aux);
        if (n.aux2Key)
            args += strprintf("%s\"%s\": %u", args.empty() ? "" : ", ",
                              n.aux2Key, ev.aux2);
    }
    std::string ts = json_number(ticks_to_us(ev.begin));
    std::string phase =
        ev.kind == SpanKind::span
            ? strprintf("\"ph\": \"X\", \"ts\": %s, \"dur\": %s",
                        ts.c_str(),
                        json_number(ticks_to_us(ev.end - ev.begin))
                            .c_str())
            : strprintf("\"ph\": \"i\", \"s\": \"t\", \"ts\": %s",
                        ts.c_str());
    return strprintf("  {\"name\": \"%s\", \"cat\": \"%s\", %s, "
                     "\"pid\": 1, \"tid\": %d, \"args\": {%s}}",
                     name.c_str(), cat, phase.c_str(), tid_of(ev.cell),
                     args.c_str());
}

} // namespace

const SpanName &
span_name(std::uint8_t id)
{
    NameTable &t = name_table();
    std::lock_guard<std::mutex> lock(t.mu);
    if (id == 0 || id > t.names.size())
        panic("unknown span annotation name id %u",
              static_cast<unsigned>(id));
    return t.names[id - 1u];
}

const char *
to_string(SpanMode mode)
{
    switch (mode) {
      case SpanMode::off:
        return "off";
      case SpanMode::flight:
        return "flight";
      case SpanMode::full:
        return "full";
    }
    return "?";
}

const char *
to_string(SpanStage stage)
{
    switch (stage) {
      case SpanStage::issue:
        return "issue";
      case SpanStage::queue:
        return "queue";
      case SpanStage::dma_send:
        return "dma_send";
      case SpanStage::net:
        return "net";
      case SpanStage::dma_recv:
        return "dma_recv";
      case SpanStage::flag:
        return "flag";
      case SpanStage::ring_deposit:
        return "ring_deposit";
      case SpanStage::ring_receive:
        return "ring_receive";
      case SpanStage::retransmit:
        return "retransmit";
      case SpanStage::barrier:
        return "barrier";
    }
    return "?";
}

const char *
to_string(SpanOp op)
{
    switch (op) {
      case SpanOp::none:
        return "none";
      case SpanOp::put:
        return "put";
      case SpanOp::get:
        return "get";
      case SpanOp::send:
        return "send";
      case SpanOp::ack:
        return "ack";
      case SpanOp::remote_store:
        return "remote_store";
      case SpanOp::remote_load:
        return "remote_load";
      case SpanOp::bcast:
        return "bcast";
      case SpanOp::barrier:
        return "barrier";
    }
    return "?";
}

SpanLayer::SpanLayer(int cells, std::size_t flightCapacity)
{
    rings.reserve(static_cast<std::size_t>(cells) + 1);
    for (int i = 0; i < cells + 1; ++i)
        rings.emplace_back(flightCapacity);
    ringLocks =
        std::make_unique<std::mutex[]>(rings.size());
    traceSeq = std::make_unique<std::uint64_t[]>(rings.size());
}

void
SpanLayer::record(std::int32_t cell, std::uint64_t traceId,
                  SpanStage stage, Tick begin, Tick end, SpanOp op,
                  std::uint32_t aux)
{
    if (mode_ == SpanMode::off || traceId == 0)
        return;
    SpanEvent ev;
    ev.traceId = traceId;
    ev.begin = begin;
    ev.end = end;
    ev.cell = cell;
    ev.stage = stage;
    ev.op = op;
    ev.aux = aux;
    recordedCount.fetch_add(1, std::memory_order_relaxed);
    {
        std::size_t idx = ring_of(cell);
        std::lock_guard<std::mutex> lock(ringLocks[idx]);
        rings[idx].push(ev);
    }
    if (mode_ == SpanMode::full)
        append_full(ev);
}

void
SpanLayer::annotate(SpanKind kind, std::int32_t track, const char *cat,
                    std::string_view name, Tick begin, Tick end,
                    SpanArg a, SpanArg b)
{
    SpanEvent ev;
    ev.begin = begin;
    ev.end = std::max(begin, end);
    ev.cell = track;
    ev.aux = a.value;
    ev.aux2 = b.value;
    ev.kind = kind;
    ev.name = intern(cat, name, a.key, b.key);
    append_full(ev);
}

void
SpanLayer::append_full(const SpanEvent &ev)
{
    std::lock_guard<std::mutex> lock(fullMutex);
    if (fullLog.size() < default_full_capacity)
        fullLog.push_back(ev);
    else
        ++fullDropped;
}

void
SpanLayer::clear()
{
    {
        std::lock_guard<std::mutex> lock(fullMutex);
        fullLog.clear();
        fullDropped = 0;
    }
    for (std::size_t i = 0; i < rings.size(); ++i) {
        std::lock_guard<std::mutex> lock(ringLocks[i]);
        rings[i].clear();
    }
}

const FlightRecorder &
SpanLayer::flight(std::int32_t cell) const
{
    std::size_t idx = static_cast<std::size_t>(cell + 1);
    if (idx >= rings.size())
        panic("flight ring for cell %d outside machine of %zu cells",
              cell, rings.size() - 1);
    return rings[idx];
}

std::uint64_t
SpanLayer::flight_dropped() const
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < rings.size(); ++i) {
        std::lock_guard<std::mutex> lock(ringLocks[i]);
        n += rings[i].dropped();
    }
    return n;
}

std::vector<SpanEvent>
SpanLayer::flight_events(std::size_t maxPerCell, Tick asOf) const
{
    // Select and merge by time, never by push order: remote senders
    // push net spans into a cell's ring from their own shards.
    auto earlier = [](const SpanEvent &a, const SpanEvent &b) {
        return std::tie(a.begin, a.end, a.traceId, a.stage) <
               std::tie(b.begin, b.end, b.traceId, b.stage);
    };
    std::vector<SpanEvent> out;
    for (std::size_t i = 0; i < rings.size(); ++i) {
        std::vector<SpanEvent> part;
        {
            std::lock_guard<std::mutex> lock(ringLocks[i]);
            part = rings[i].snapshot(0);
        }
        std::erase_if(part, [asOf](const SpanEvent &ev) {
            return ev.end > asOf;
        });
        std::sort(part.begin(), part.end(), earlier);
        std::size_t keep = maxPerCell == 0
                               ? part.size()
                               : std::min(maxPerCell, part.size());
        out.insert(out.end(), part.end() - static_cast<std::ptrdiff_t>(keep),
                   part.end());
    }
    std::stable_sort(out.begin(), out.end(), earlier);
    return out;
}

std::string
span_chrome_json(const std::vector<SpanEvent> &events,
                 std::uint64_t dropped)
{
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out += ",\n";
        first = false;
    };

    std::set<std::int32_t> tracks;
    for (const SpanEvent &ev : events)
        tracks.insert(ev.cell);
    for (std::int32_t t : tracks) {
        sep();
        out += strprintf(
            "  {\"name\": \"thread_name\", \"ph\": \"M\", "
            "\"pid\": 1, \"tid\": %d, \"args\": {\"name\": "
            "\"%s\"}}",
            tid_of(t), track_name(t).c_str());
    }

    // By begin tick, then by rendered text: only the events of one
    // tick are held rendered at a time.
    std::vector<const SpanEvent *> order;
    order.reserve(events.size());
    for (const SpanEvent &ev : events)
        order.push_back(&ev);
    std::sort(order.begin(), order.end(),
              [](const SpanEvent *a, const SpanEvent *b) {
                  return a->begin < b->begin;
              });
    std::vector<std::string> tick;
    for (std::size_t i = 0; i < order.size();) {
        tick.clear();
        for (Tick at = order[i]->begin;
             i < order.size() && order[i]->begin == at; ++i)
            tick.push_back(chrome_event(*order[i]));
        std::sort(tick.begin(), tick.end());
        for (const std::string &line : tick) {
            sep();
            out += line;
        }
    }
    out += strprintf("\n], \"displayTimeUnit\": \"ms\", "
                     "\"otherData\": {\"dropped\": %llu}}\n",
                     static_cast<unsigned long long>(dropped));
    return out;
}

} // namespace ap::obs
