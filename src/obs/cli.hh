/**
 * @file
 * Shared telemetry command-line conventions.
 *
 * Every binary that drives the simulated machine — the app runner,
 * the benches, the stress harness — accepts the same flags:
 *
 *   --stats-out=FILE          write the stats-registry JSON dump
 *   --trace-out=FILE          record the full span log (stage events
 *                             and annotations), write it as Chrome
 *                             trace JSON
 *   --timeline-out=FILE       enable the perf-timeline sampler
 *   --timeline-csv=FILE       also write the timeline as CSV
 *   --timeline-period-us=US   sampling period (model time, at least
 *                             one tick: 0.001 us)
 *
 * consume_obs_arg() recognizes and applies them so each main() needs
 * one line per argv entry. BenchReport is the bench half of the
 * stats-dump satellite: benches accumulate named metrics while they
 * print their human-readable tables and, when --json-out is given,
 * write the same numbers as one `BENCH_<name>.json` object.
 */

#ifndef AP_OBS_CLI_HH
#define AP_OBS_CLI_HH

#include <cstdint>
#include <string>

#include "obs/json.hh"

namespace ap::obs
{

/** Telemetry options shared by machine-driving binaries. */
struct ObsOptions
{
    std::string statsOut;    ///< --stats-out=FILE (empty = off)
    /** --trace-out=FILE (empty = off): the machine runs in full
     *  span mode and Machine::write_trace() writes there. */
    std::string traceOut;
    std::string timelineOut; ///< --timeline-out=FILE (empty = off)
    /** --timeline-csv=FILE: CSV export of the same timeline. Enables
     *  the sampler by itself; --timeline-out is not required. */
    std::string timelineCsv;
    /** --timeline-period-us=US: model-time sampling period. */
    double timelinePeriodUs = 20.0;

    /** True when the timeline sampler is wanted in any format. */
    bool timeline_enabled() const
    {
        return !timelineOut.empty() || !timelineCsv.empty();
    }

    bool any() const
    {
        return !statsOut.empty() || !traceOut.empty() ||
               timeline_enabled();
    }
};

/**
 * If @p arg is one of the shared telemetry flags, record it and return
 * true; otherwise return false so the caller handles it. A
 * --timeline-period-us that is not a finite number of microseconds
 * from one tick up to the tick range is a fatal() user error.
 */
bool consume_obs_arg(const char *arg, ObsOptions &opt);

/** One bench run's metrics, dumpable as BENCH_<name>.json. */
class BenchReport
{
  public:
    /** @param name bench name ("table2_speedup", ...). */
    explicit BenchReport(std::string name);

    /**
     * If @p arg is `--json-out` or `--json-out=FILE`, remember the
     * output path (default `BENCH_<name>.json`) and return true.
     */
    bool consume_arg(const char *arg);

    /** @return true when --json-out was given. */
    bool enabled() const { return jsonWanted; }

    /** Record one numeric metric under a dotted path. */
    void set(const std::string &path, double v);
    void set(const std::string &path, std::uint64_t v);

    /** Record one string metric under a dotted path. */
    void set_string(const std::string &path, const std::string &v);

    /**
     * When --json-out was given, write the JSON object (bench name,
     * every recorded metric) and inform() where it went. No-op
     * otherwise. @return false on I/O failure.
     */
    bool write() const;

    /** The output path that write() uses. */
    const std::string &path() const { return outPath; }

  private:
    std::string benchName;
    std::string outPath;
    bool jsonWanted = false;
    JsonTree tree;
};

} // namespace ap::obs

#endif // AP_OBS_CLI_HH
