/**
 * @file
 * Sweep datasets and fitted model sets — the documents of the
 * performance-model observatory.
 *
 * Two JSON document kinds round out the pipeline around fit.hh:
 *
 *   SweepData  ("kind": "sweep")  — what bench_sweep measured: one
 *              parameter axis, one row per parameter value with the
 *              metric values and a small registry snapshot taken at
 *              that point (provenance for later re-fits).
 *   SweepModel ("kind": "model")  — what fit_scaling selected: one
 *              fitted scaling law per metric, its quality numbers,
 *              and the divergence envelope the CI gate holds fresh
 *              measurements to (tools/model_check.py).
 *
 * Metrics are classified like tools/bench_compare.py: "sim" metrics
 * are model-time-derived and deterministic, so the envelope is tight
 * and absolute; "host" metrics are wall-clock rates that vary across
 * machines, so the gate compares only their *shape* (values
 * normalized to the smallest-parameter point); "count" metrics gate
 * like sim. The envelope itself is derived from the fit's own
 * training residuals — a model that explains its sweep to 2% carries
 * a tighter envelope than one that explains it to 10% — with a floor
 * so CI jitter on a freshly measured point cannot trip the gate.
 */

#ifndef AP_MODEL_MODELSET_HH
#define AP_MODEL_MODELSET_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/fit.hh"

namespace ap::model
{

/** Gate class of a metric (mirrors tools/bench_compare.py). */
enum class MetricClass
{
    sim,   ///< deterministic model-time metric: absolute envelope
    host,  ///< wall-clock rate: shape-only envelope
    count, ///< integer workload count: absolute envelope
};

const char *to_string(MetricClass c);

/** Classify by metric name (events_per_sec/wall_s -> host, ...). */
MetricClass classify_metric(const std::string &name);

/** One measured sweep row. */
struct SweepPoint
{
    double x = 0.0;
    /** metric name -> value at this parameter value. */
    std::map<std::string, double> metrics;
    /** registry snapshot subset at this point (provenance). */
    std::map<std::string, std::uint64_t> registry;
};

/** One parameterized sweep's measurements. */
struct SweepData
{
    std::string sweep;  ///< sweep name ("putlat", "cells", ...)
    std::string bench;  ///< workload that produced it
    std::string param;  ///< parameter axis name ("bytes", "cells")
    std::string unit;   ///< axis unit for humans ("B", "cells")
    std::vector<SweepPoint> points;

    /**
     * Explicit gate-class overrides. A metric absent here classifies
     * by name; present, the override wins. bench_serve's jobs_per_sec
     * is the motivating case: the name says wall-clock rate, but the
     * value is derived from the simulated makespan and is exactly
     * reproducible, so it deserves the tight sim envelope.
     */
    std::map<std::string, MetricClass> classes;

    /** Points of one metric, sorted by x, skipping absent rows. */
    std::vector<Point> series(const std::string &metric) const;

    /** Every metric name present in any point, sorted. */
    std::vector<std::string> metric_names() const;

    /** The {"kind": "sweep", ...} document. */
    std::string json(bool pretty = true) const;

    /** Write json() to @p path. @return false on I/O error. */
    bool write(const std::string &path) const;
};

/** One metric's fitted scaling law plus its gate envelope. */
struct MetricModel
{
    std::string metric;
    MetricClass cls = MetricClass::sim;
    Fit fit;
    double xmin = 0.0; ///< fitted domain
    double xmax = 0.0;
    /** Allowed |measured - predicted| / |predicted| (fraction). */
    double envelope = 0.25;
};

/** All fitted models of one sweep. */
struct SweepModel
{
    std::string sweep;
    std::string bench;
    std::string param;
    std::string unit;
    std::vector<MetricModel> metrics;

    /** Human-readable fit report, one line per metric. */
    std::string text() const;

    /** The {"kind": "model", ...} document. */
    std::string json(bool pretty = true) const;

    /** Write json() to @p path. @return false on I/O error. */
    bool write(const std::string &path) const;
};

/** fit_sweep()'s envelope floor by metric class (fraction). */
inline constexpr double sim_envelope_floor = 0.10;
inline constexpr double host_envelope_floor = 0.35;
inline constexpr double count_envelope_floor = 0.10;
/** Envelope = max(floor, envelope_residual_factor * max training
 *  relative residual): a fresh re-measurement of a training point
 *  must always sit inside. */
inline constexpr double envelope_residual_factor = 3.0;

/**
 * Fit every metric of @p data and derive per-metric envelopes.
 * Metrics whose class is host are still fitted on raw values; the
 * shape normalization happens in the gate, which divides both model
 * and measurement by their smallest-x value.
 */
SweepModel fit_sweep(const SweepData &data);

} // namespace ap::model

#endif // AP_MODEL_MODELSET_HH
