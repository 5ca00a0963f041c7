#include "model/modelset.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "base/logging.hh"
#include "obs/json.hh"

namespace ap::model
{

std::vector<Point>
SweepData::series(const std::string &metric) const
{
    std::vector<Point> out;
    for (const SweepPoint &p : points) {
        auto it = p.metrics.find(metric);
        if (it != p.metrics.end())
            out.push_back({p.x, it->second});
    }
    std::sort(out.begin(), out.end(),
              [](const Point &a, const Point &b) { return a.x < b.x; });
    return out;
}

std::vector<std::string>
SweepData::metric_names() const
{
    std::set<std::string> names;
    for (const SweepPoint &p : points)
        for (const auto &[k, v] : p.metrics)
            names.insert(k);
    return {names.begin(), names.end()};
}

std::string
SweepData::json(bool pretty) const
{
    const char *nl = pretty ? "\n" : "";
    const char *sp = pretty ? "  " : "";
    std::string out = strprintf(
        "{%s%s\"kind\": \"sweep\",%s%s\"sweep\": \"%s\",%s"
        "%s\"bench\": \"%s\",%s%s\"param\": \"%s\",%s"
        "%s\"unit\": \"%s\",%s%s\"points\": [",
        nl, sp, nl, sp, obs::json_escape(sweep).c_str(), nl, sp,
        obs::json_escape(bench).c_str(), nl, sp,
        obs::json_escape(param).c_str(), nl, sp,
        obs::json_escape(unit).c_str(), nl, sp);

    std::vector<SweepPoint> rows = points;
    std::sort(rows.begin(), rows.end(),
              [](const SweepPoint &a, const SweepPoint &b) {
                  return a.x < b.x;
              });
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepPoint &p = rows[i];
        out += strprintf("%s%s%s%s{\"x\": %s, \"metrics\": {",
                         i ? "," : "", nl, sp, sp,
                         obs::json_number(p.x).c_str());
        bool first = true;
        for (const auto &[k, v] : p.metrics) {
            out += strprintf("%s\"%s\": %s", first ? "" : ", ",
                             obs::json_escape(k).c_str(),
                             obs::json_number(v).c_str());
            first = false;
        }
        out += "}";
        if (!p.registry.empty()) {
            out += ", \"registry\": {";
            first = true;
            for (const auto &[k, v] : p.registry) {
                out += strprintf(
                    "%s\"%s\": %llu", first ? "" : ", ",
                    obs::json_escape(k).c_str(),
                    static_cast<unsigned long long>(v));
                first = false;
            }
            out += "}";
        }
        out += "}";
    }
    out += strprintf("%s%s]%s}%s", nl, sp, nl, nl);
    return out;
}

bool
SweepData::write(const std::string &path) const
{
    return obs::write_file(path, json(true));
}

const char *
to_string(MetricClass c)
{
    switch (c) {
      case MetricClass::sim:
        return "sim";
      case MetricClass::host:
        return "host";
      case MetricClass::count:
        return "count";
    }
    return "?";
}

MetricClass
classify_metric(const std::string &name)
{
    auto ends_with = [&](const char *suffix) {
        std::string s(suffix);
        return name.size() >= s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    // Host wall-clock rates and times: noisy across machines, gate
    // on shape only (mirrors tools/bench_compare.py HOST_PAT).
    if (ends_with("per_sec") || ends_with("wall_s") ||
        ends_with("wall_ms") || ends_with("speedup") ||
        name == "ratio")
        return MetricClass::host;
    // Model-time quantities: deterministic given the seed.
    if (ends_with("_us") || ends_with("_ms") || ends_with("mb_s") ||
        ends_with("mbps") || ends_with("pct"))
        return MetricClass::sim;
    return MetricClass::count;
}

std::string
SweepModel::text() const
{
    std::string out = strprintf("sweep %s (%s vs %s [%s]):\n",
                                sweep.c_str(), bench.c_str(),
                                param.c_str(), unit.c_str());
    for (const MetricModel &m : metrics)
        out += strprintf(
            "  %-24s %s  [%s, envelope %.0f%%]\n", m.metric.c_str(),
            m.fit.formula(param).c_str(), to_string(m.cls),
            m.envelope * 100.0);
    return out;
}

std::string
SweepModel::json(bool pretty) const
{
    const char *nl = pretty ? "\n" : "";
    const char *sp = pretty ? "  " : "";
    std::string out = strprintf(
        "{%s%s\"kind\": \"model\",%s%s\"sweep\": \"%s\",%s"
        "%s\"bench\": \"%s\",%s%s\"param\": \"%s\",%s"
        "%s\"unit\": \"%s\",%s%s\"metrics\": [",
        nl, sp, nl, sp, obs::json_escape(sweep).c_str(), nl, sp,
        obs::json_escape(bench).c_str(), nl, sp,
        obs::json_escape(param).c_str(), nl, sp,
        obs::json_escape(unit).c_str(), nl, sp);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const MetricModel &m = metrics[i];
        const Fit &f = m.fit;
        out += strprintf(
            "%s%s%s%s{\"metric\": \"%s\", \"class\": \"%s\", "
            "\"c\": %s, \"a\": %s, \"exp\": %s, \"log\": %d, "
            "\"constant\": %s, \"r2\": %s, \"adj_r2\": %s, "
            "\"rmse_rel\": %s, \"cv_rmse_rel\": %s, "
            "\"points\": %zu, \"xmin\": %s, \"xmax\": %s, "
            "\"envelope\": %s, \"formula\": \"%s\"}",
            i ? "," : "", nl, sp, sp,
            obs::json_escape(m.metric).c_str(), to_string(m.cls),
            obs::json_number(f.c).c_str(),
            obs::json_number(f.a).c_str(),
            obs::json_number(f.term.exp).c_str(), f.term.logPow,
            f.constant ? "true" : "false",
            obs::json_number(f.r2).c_str(),
            obs::json_number(f.adjR2).c_str(),
            obs::json_number(f.rmseRel).c_str(),
            obs::json_number(f.cvRmseRel).c_str(), f.points,
            obs::json_number(m.xmin).c_str(),
            obs::json_number(m.xmax).c_str(),
            obs::json_number(m.envelope).c_str(),
            obs::json_escape(f.formula(param)).c_str());
    }
    out += strprintf("%s%s]%s}%s", nl, sp, nl, nl);
    return out;
}

bool
SweepModel::write(const std::string &path) const
{
    return obs::write_file(path, json(true));
}

SweepModel
fit_sweep(const SweepData &data)
{
    SweepModel out;
    out.sweep = data.sweep;
    out.bench = data.bench;
    out.param = data.param;
    out.unit = data.unit;
    for (const std::string &name : data.metric_names()) {
        std::vector<Point> pts = data.series(name);
        if (pts.empty())
            continue;
        MetricModel m;
        m.metric = name;
        auto ov = data.classes.find(name);
        m.cls = ov != data.classes.end() ? ov->second
                                         : classify_metric(name);
        m.fit = fit_scaling(pts);
        m.xmin = pts.front().x;
        m.xmax = pts.back().x;
        // The gate must accept a fresh re-measurement of any
        // training point, so the envelope covers the model's own
        // worst training residual with margin.
        double yScale = 0.0;
        for (const Point &p : pts)
            yScale = std::max(yScale, std::abs(p.y));
        double yFloor = std::max(1e-12, 1e-3 * yScale);
        double worst = 0.0;
        for (const Point &p : pts) {
            double denom =
                std::max(std::abs(m.fit.eval(p.x)), yFloor);
            worst = std::max(worst,
                             std::abs(p.y - m.fit.eval(p.x)) / denom);
        }
        double floor = sim_envelope_floor;
        if (m.cls == MetricClass::host)
            floor = host_envelope_floor;
        else if (m.cls == MetricClass::count)
            floor = count_envelope_floor;
        m.envelope = std::max(floor, envelope_residual_factor * worst);
        out.metrics.push_back(std::move(m));
    }
    return out;
}

} // namespace ap::model
