/**
 * @file
 * Continuous perf timeline: a bounded-ring time-series sampler over
 * the stats registry.
 *
 * The registry (obs/stats_registry.hh) answers "what happened over
 * the whole run"; the per-phase deltas answer "what happened between
 * two hand-placed marks". Neither shows a *rate curve* — events/sec
 * climbing as cells leave the startup barrier, handoffs/sec spiking
 * when a fault plan reorders traffic, queue depth breathing with each
 * collective. This sampler closes that gap: every `period` ticks of
 * model time it takes one StatsRegistry::sum() per configured series
 * and stores one row of them (a delta series as the change since the
 * previous sum) in a bounded ring, exported as a JSON timeline (`ap_run
 * --timeline-out=FILE`, validated by tools/check_profile_schema.py
 * timeline) or as CSV for spreadsheets and pandas
 * (`--timeline-csv=FILE`).
 *
 * The sampler is an observer, not an actor: it never schedules
 * events. run() drives the simulator from *outside* the event loop —
 * run_until(boundary), sample, repeat — so the executed event
 * sequence is exactly what run() would have produced and determinism
 * byte-identity is preserved by construction (tests/test_sampler.cc
 * pins this). Samples are taken only while the machine is quiescent,
 * so no shard is concurrently mutating the counters being read.
 *
 * A delta series is the difference of two sums, so a path that joins
 * the registry mid-run counts from zero, and a path that leaves it
 * takes its last value out of the sum: that period's delta drops by
 * it. The default series never lose a path.
 */

#ifndef AP_OBS_SAMPLER_HH
#define AP_OBS_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/stats_registry.hh"

namespace ap::sim
{
class Simulator;
}

namespace ap::obs
{

/** One tracked series of the timeline. */
struct SeriesSpec
{
    std::string name;    ///< label in the export ("events", ...)
    /** Registry pattern folded with StatsRegistry::sum() ("*"
     *  matches one segment). */
    std::string pattern;
    /**
     * false: the series is the per-period delta of the summed value
     * (a rate curve once divided by the period); true: the absolute
     * level at the sample instant (queue depths, high-water marks).
     */
    bool level = false;
};

/** One timeline row: the sample instant plus one value per series. */
struct TimelineSample
{
    Tick tick = 0;
    std::vector<std::int64_t> values;
};

/** Bounded-ring registry sampler; see the file comment. */
class TimelineSampler
{
  public:
    static constexpr std::size_t default_capacity = 4096;

    /**
     * @param reg the registry to sample (must outlive the sampler)
     * @param period model-time sampling period in ticks (>= 1)
     * @param series tracked series; default_series() when empty
     * @param capacity ring bound in samples (oldest age out)
     */
    TimelineSampler(const StatsRegistry &reg, Tick period,
                    std::vector<SeriesSpec> series = {},
                    std::size_t capacity = default_capacity);

    /** The stock machine series: event/handoff/message rates plus
     *  queue-depth and barrier-wait levels. */
    static std::vector<SeriesSpec> default_series();

    Tick period() const { return periodTicks; }
    const std::vector<SeriesSpec> &series() const { return specs; }

    /** The first sample boundary strictly after @p now: the smallest
     *  multiple of the period greater than @p now (saturating). */
    Tick next_boundary(Tick now) const;

    /**
     * Capture the base sums deltas count from. Implicit on the first
     * sample()/run() if never called.
     */
    void start();

    /** Take one sample labeled with model time @p now. */
    void sample(Tick now);

    /**
     * Drive @p sim to completion, sampling at every period boundary:
     * run_until(boundary), sample, repeat until the queue drains.
     * Event execution order is identical to a plain run().
     */
    void run(sim::Simulator &sim);

    /** Samples currently retained. */
    std::size_t size() const { return ring.size(); }
    /** Samples taken since construction. */
    std::uint64_t taken() const { return total; }
    /** Samples that aged out of the ring. */
    std::uint64_t dropped() const { return total - ring.size(); }

    /** Retained samples, oldest first. */
    std::vector<TimelineSample> samples() const;

    /**
     * The timeline JSON document:
     *   {"kind": "timeline", "period_us": P, "series": [...],
     *    "level": [...], "taken": N, "dropped": D,
     *    "samples": [{"t_us": T, "v": [...]}, ...]}
     * t_us strictly increasing; v aligned with "series".
     */
    std::string json(bool pretty = true) const;

    /** Write json() to @p path. @return false on I/O error. */
    bool write(const std::string &path) const;

    /**
     * The timeline as CSV, one line per retained sample:
     *   t_us,<series 0 name>,<series 1 name>,...
     *   0.02,118,3,...
     * Same rows and ordering as json()'s "samples" array (oldest
     * first, strictly increasing t_us); series names never contain
     * commas or quotes, so the document needs no CSV escaping and
     * loads directly into spreadsheets or pandas.
     */
    std::string csv() const;

    /** Write csv() to @p path. @return false on I/O error. */
    bool write_csv(const std::string &path) const;

  private:
    /** The current sum of every series' pattern. */
    std::vector<std::uint64_t> sums() const;

    const StatsRegistry &reg;
    Tick periodTicks;
    std::vector<SeriesSpec> specs;
    std::size_t cap;
    bool started = false;
    /** Each series' sum at the previous sample. */
    std::vector<std::uint64_t> prev;
    std::vector<TimelineSample> ring;
    std::size_t head = 0;
    std::uint64_t total = 0;
};

} // namespace ap::obs

#endif // AP_OBS_SAMPLER_HH
