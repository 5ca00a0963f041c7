/**
 * @file
 * Per-cell flight recorder: a bounded ring of the last N span events.
 *
 * The span layer's full log (obs/span.hh) must be switched on before
 * the interesting run; the flight recorder is the other way around —
 * always on, so the events leading up to a failure exist *after the
 * fact*. Each cell keeps a fixed preallocated ring of POD stage
 * events (annotations never enter it); a push is an array store plus
 * an index increment, which is what lets the machine afford it on
 * every message of every run. When a CommError or watchdog fires,
 * the merged rings are the black box: the last thing every cell's
 * hardware did, dumped as text into the error message and as Chrome
 * trace JSON on demand (Machine::dump_flight_recorder(), rendered by
 * span_chrome_json()).
 */

#ifndef AP_OBS_FLIGHT_HH
#define AP_OBS_FLIGHT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ap::obs
{

struct SpanEvent;

/** One cell's bounded span-event ring. */
class FlightRecorder
{
  public:
    static constexpr std::size_t default_capacity = 256;

    explicit FlightRecorder(
        std::size_t capacity = default_capacity);

    /** Store @p ev, overwriting the oldest event when full. */
    void push(const SpanEvent &ev);

    /** Events currently retained. */
    std::size_t size() const;

    /** Ring bound in events. */
    std::size_t capacity() const { return cap; }

    /** Events pushed since construction. */
    std::uint64_t total() const { return count; }

    /** Events that aged out of the ring. */
    std::uint64_t dropped() const;

    /** Retained events, oldest first. @p maxEvents 0 = all. */
    std::vector<SpanEvent> snapshot(std::size_t maxEvents = 0) const;

    /** Forget everything (capacity is kept). */
    void clear();

  private:
    std::size_t cap;
    std::size_t head = 0; ///< next slot to overwrite
    std::uint64_t count = 0;
    std::vector<SpanEvent> ring; ///< preallocated to cap
};

/**
 * Render flight-recorder @p events as a postmortem text block: one
 * line per event with trace id, stage, cell and tick window.
 */
std::string flight_text(const std::vector<SpanEvent> &events);

} // namespace ap::obs

#endif // AP_OBS_FLIGHT_HH
