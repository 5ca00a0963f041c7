#include "obs/cli.hh"

#include <cstdlib>
#include <cstring>

#include "base/logging.hh"
#include "base/types.hh"

namespace ap::obs
{

bool
consume_obs_arg(const char *arg, ObsOptions &opt)
{
    if (std::strncmp(arg, "--stats-out=", 12) == 0) {
        opt.statsOut = arg + 12;
        return true;
    }
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
        opt.traceOut = arg + 12;
        return true;
    }
    if (std::strncmp(arg, "--timeline-out=", 15) == 0) {
        opt.timelineOut = arg + 15;
        return true;
    }
    if (std::strncmp(arg, "--timeline-csv=", 15) == 0) {
        opt.timelineCsv = arg + 15;
        return true;
    }
    if (std::strncmp(arg, "--timeline-period-us=", 21) == 0) {
        const char *us = arg + 21;
        char *end = nullptr;
        double period = std::strtod(us, &end);
        if (end == us || *end != '\0')
            fatal("--timeline-period-us=%s: want a period in "
                  "microseconds", us);
        // Negated so that NaN fails too; a tick is the model's
        // resolution, and the upper bound keeps us_to_ticks() inside
        // the tick range.
        if (!(period >= ticks_to_us(1) &&
              period < ticks_to_us(max_tick / 2)))
            fatal("--timeline-period-us=%s: US must be a finite period "
                  "of at least one tick (0.001 us) inside the tick "
                  "range", us);
        opt.timelinePeriodUs = period;
        return true;
    }
    return false;
}

BenchReport::BenchReport(std::string name) : benchName(std::move(name))
{
    outPath = "BENCH_" + benchName + ".json";
    tree.set_string("bench", benchName);
}

bool
BenchReport::consume_arg(const char *arg)
{
    if (std::strcmp(arg, "--json-out") == 0) {
        jsonWanted = true;
        return true;
    }
    if (std::strncmp(arg, "--json-out=", 11) == 0) {
        jsonWanted = true;
        outPath = arg + 11;
        return true;
    }
    return false;
}

void
BenchReport::set(const std::string &path, double v)
{
    tree.set(path, v);
}

void
BenchReport::set(const std::string &path, std::uint64_t v)
{
    tree.set(path, v);
}

void
BenchReport::set_string(const std::string &path, const std::string &v)
{
    tree.set_string(path, v);
}

bool
BenchReport::write() const
{
    if (!jsonWanted)
        return true;
    if (!write_file(outPath, tree.render())) {
        warn("cannot write bench JSON to %s", outPath.c_str());
        return false;
    }
    inform("bench JSON written to %s", outPath.c_str());
    return true;
}

} // namespace ap::obs
