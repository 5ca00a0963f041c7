#include "model/fit.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace ap::model
{

namespace
{

/**
 * Floor for relative denominators: a fraction of the series' own
 * scale, so a y=0 point (a zero count in an otherwise nonzero
 * series) neither gets near-infinite weight nor an unbounded
 * relative residual.
 */
double
scale_floor(const std::vector<Point> &pts)
{
    double yScale = 0.0;
    for (const Point &p : pts)
        yScale = std::max(yScale, std::abs(p.y));
    return std::max(1e-12, 1e-3 * yScale);
}

/** Relative residual weight of one observation. */
double
weight(double y, double yFloor)
{
    double m = std::max(std::abs(y), yFloor);
    return 1.0 / (m * m);
}

/** Closed-form weighted LSQ of y = c + a*g(x) for one fixed term. */
struct TermSolve
{
    double c = 0.0;
    double a = 0.0;
    bool ok = false;
};

TermSolve
solve(const std::vector<Point> &pts, const Term &t, double yFloor)
{
    double sw = 0, swg = 0, swgg = 0, swy = 0, swgy = 0;
    for (const Point &p : pts) {
        double g = t.eval(p.x);
        if (!std::isfinite(g))
            return {};
        double w = weight(p.y, yFloor);
        sw += w;
        swg += w * g;
        swgg += w * g * g;
        swy += w * p.y;
        swgy += w * g * p.y;
    }
    TermSolve s;
    double det = sw * swgg - swg * swg;
    // A vanishing determinant means g(x) is (numerically) constant
    // over the sample — the term adds nothing over the intercept.
    if (std::abs(det) <= 1e-12 * std::max(sw * swgg, swg * swg))
        return {};
    s.c = (swy * swgg - swg * swgy) / det;
    s.a = (sw * swgy - swg * swy) / det;
    s.ok = std::isfinite(s.c) && std::isfinite(s.a);
    return s;
}

/** Weighted mean (the constant-model fit). */
double
weighted_mean(const std::vector<Point> &pts, double yFloor)
{
    double sw = 0, swy = 0;
    for (const Point &p : pts) {
        double w = weight(p.y, yFloor);
        sw += w;
        swy += w * p.y;
    }
    return sw > 0 ? swy / sw : 0.0;
}

/** Root-mean-square relative residual of a predictor over @p pts. */
template <typename Pred>
double
rel_rmse(const std::vector<Point> &pts, Pred pred, double yFloor)
{
    if (pts.empty())
        return 0.0;
    double s = 0;
    for (const Point &p : pts) {
        double m = std::max(std::abs(p.y), yFloor);
        double r = (pred(p.x) - p.y) / m;
        s += r * r;
    }
    return std::sqrt(s / static_cast<double>(pts.size()));
}

/**
 * Leave-one-out cross-validated relative RMSE of one hypothesis:
 * refit without point k, score the prediction of point k, over all k.
 * Infinity when any held-out refit is degenerate.
 */
double
cv_rmse_term(const std::vector<Point> &pts, const Term &t,
             double yFloor)
{
    double s = 0;
    for (std::size_t k = 0; k < pts.size(); ++k) {
        std::vector<Point> rest;
        rest.reserve(pts.size() - 1);
        for (std::size_t i = 0; i < pts.size(); ++i)
            if (i != k)
                rest.push_back(pts[i]);
        TermSolve f = solve(rest, t, yFloor);
        if (!f.ok)
            return std::numeric_limits<double>::infinity();
        double m = std::max(std::abs(pts[k].y), yFloor);
        double r = (f.c + f.a * t.eval(pts[k].x) - pts[k].y) / m;
        s += r * r;
    }
    return std::sqrt(s / static_cast<double>(pts.size()));
}

double
cv_rmse_const(const std::vector<Point> &pts, double yFloor)
{
    double s = 0;
    for (std::size_t k = 0; k < pts.size(); ++k) {
        std::vector<Point> rest;
        rest.reserve(pts.size() - 1);
        for (std::size_t i = 0; i < pts.size(); ++i)
            if (i != k)
                rest.push_back(pts[i]);
        double c = weighted_mean(rest, yFloor);
        double m = std::max(std::abs(pts[k].y), yFloor);
        double r = (c - pts[k].y) / m;
        s += r * r;
    }
    return std::sqrt(s / static_cast<double>(pts.size()));
}

/** Weighted R^2 of a predictor against the weighted mean. */
template <typename Pred>
double
r_squared(const std::vector<Point> &pts, Pred pred, double yFloor)
{
    double mean = weighted_mean(pts, yFloor);
    double ssRes = 0, ssTot = 0;
    for (const Point &p : pts) {
        double w = weight(p.y, yFloor);
        double r = p.y - pred(p.x);
        double d = p.y - mean;
        ssRes += w * r * r;
        ssTot += w * d * d;
    }
    if (ssTot <= 0)
        return ssRes <= 0 ? 1.0 : 0.0;
    return 1.0 - ssRes / ssTot;
}

} // namespace

double
Term::eval(double x) const
{
    double g = std::pow(x, exp);
    if (logPow != 0)
        g *= std::pow(std::log2(x), logPow);
    return g;
}

std::string
Term::text(const std::string &var) const
{
    if (exp == 0.0 && logPow == 0)
        return "";
    std::string s;
    if (exp != 0.0)
        s = strprintf("%s^%.2f", var.c_str(), exp);
    if (logPow == 1)
        s += strprintf("%slog2(%s)", s.empty() ? "" : "*",
                       var.c_str());
    else if (logPow > 1)
        s += strprintf("%slog2(%s)^%d", s.empty() ? "" : "*",
                       var.c_str(), logPow);
    return s;
}

double
Fit::eval(double x) const
{
    return constant ? c : c + a * term.eval(x);
}

std::string
Fit::formula(const std::string &var) const
{
    if (constant)
        return strprintf("%.4g", c);
    std::string s = strprintf("%.4g * %s", a,
                              term.text(var).c_str());
    // Suppress a negligible intercept: "3.1e6 * n^-0.5" reads better
    // than "... + 1.2e-9" and the gate evaluates eval(), not the text.
    if (std::abs(c) > 1e-6 * std::abs(a))
        s += strprintf(" %s %.4g", c < 0 ? "-" : "+", std::abs(c));
    return s;
}

std::string
Fit::text(const std::string &metric, const std::string &var) const
{
    return strprintf("%s ~= %s  (R2=%.3f, cv-rmse=%.1f%%, n=%zu)",
                     metric.c_str(), formula(var).c_str(), r2,
                     cvRmseRel * 100.0, points);
}

Fit
fit_scaling(const std::vector<Point> &pts)
{
    Fit out;
    out.points = pts.size();
    if (pts.empty())
        return out;

    for (const Point &p : pts)
        if (!(p.x > 0.0))
            fatal("fit_scaling needs positive parameter values "
                  "(got x=%g)",
                  p.x);

    // Count distinct parameter values: with only one, every term is
    // indistinguishable from the constant.
    std::vector<double> xs;
    for (const Point &p : pts)
        xs.push_back(p.x);
    std::sort(xs.begin(), xs.end());
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

    const double yFloor = scale_floor(pts);
    out.c = weighted_mean(pts, yFloor);
    out.constant = true;
    auto constPred = [&](double) { return out.c; };
    out.rmseRel = rel_rmse(pts, constPred, yFloor);
    out.r2 = r_squared(pts, constPred, yFloor);
    out.adjR2 = out.r2;
    out.cvRmseRel =
        pts.size() >= 3 ? cv_rmse_const(pts, yFloor) : out.rmseRel;

    // With fewer than 3 distinct x every candidate term interpolates
    // the sample exactly — the scaling class is unidentifiable, so
    // the constant stands.
    if (xs.size() < 3)
        return out;

    // Cross-validation only separates hypotheses with enough points;
    // with 2 distinct x a term fit is exact and CV degenerates, so
    // score by training RMSE there (the term still must beat the
    // constant by the advantage factor).
    const bool canCv = pts.size() >= 4;
    double constScore = canCv ? out.cvRmseRel : out.rmseRel;
    // A constant that already explains the data to float noise can
    // only be "beaten" by terms chasing rounding error.
    if (constScore < 1e-12)
        return out;

    double bestScore = std::numeric_limits<double>::infinity();
    TermSolve bestSolve;
    Term bestTerm;
    for (double e : term_exponents) {
        for (int l : term_log_powers) {
            if (e == 0.0 && l == 0)
                continue; // that is the constant hypothesis
            Term t{e, l};
            // log2(x)^l is 0 at x=1 for every l>0 and negative for
            // x<1 at odd powers; the lattice still applies, eval()
            // handles it, but a term that is not finite on the
            // sample is skipped inside solve().
            TermSolve s = solve(pts, t, yFloor);
            if (!s.ok)
                continue;
            double score =
                canCv ? cv_rmse_term(pts, t, yFloor)
                      : rel_rmse(
                            pts,
                            [&](double x) {
                                return s.c + s.a * t.eval(x);
                            },
                            yFloor);
            if (!std::isfinite(score))
                continue;
            // Deterministic tie-break: prefer the simpler term
            // (smaller |exp| + logPow) on near-equal scores.
            if (score < bestScore * (1.0 - 1e-9)) {
                bestScore = score;
                bestSolve = s;
                bestTerm = t;
            }
        }
    }

    if (!bestSolve.ok)
        return out;
    // The term must *cross-validate* better than the constant by the
    // advantage factor, or the constant stands (overfit rejection).
    if (constScore <= bestScore * term_advantage)
        return out;

    out.constant = false;
    out.c = bestSolve.c;
    out.a = bestSolve.a;
    out.term = bestTerm;
    auto pred = [&](double x) { return out.eval(x); };
    out.rmseRel = rel_rmse(pts, pred, yFloor);
    out.cvRmseRel = canCv ? bestScore : out.rmseRel;
    out.r2 = r_squared(pts, pred, yFloor);
    double n = static_cast<double>(pts.size());
    out.adjR2 = n > 3.0
                    ? 1.0 - (1.0 - out.r2) * (n - 1.0) / (n - 3.0)
                    : out.r2;
    return out;
}

Line
linear_fit(const std::vector<Point> &pts)
{
    Line ln;
    if (pts.empty())
        return ln;
    double n = static_cast<double>(pts.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const Point &p : pts) {
        sx += p.x;
        sy += p.y;
        sxx += p.x * p.x;
        sxy += p.x * p.y;
    }
    double det = n * sxx - sx * sx;
    if (std::abs(det) <= 1e-12 * std::max(n * sxx, sx * sx)) {
        ln.intercept = sy / n;
        return ln;
    }
    ln.intercept = (sy * sxx - sx * sxy) / det;
    ln.slope = (n * sxy - sx * sy) / det;
    double mean = sy / n;
    double ssRes = 0, ssTot = 0;
    for (const Point &p : pts) {
        double r = p.y - (ln.intercept + ln.slope * p.x);
        double d = p.y - mean;
        ssRes += r * r;
        ssTot += d * d;
    }
    ln.r2 = ssTot > 0 ? 1.0 - ssRes / ssTot
                      : (ssRes <= 0 ? 1.0 : 0.0);
    return ln;
}

} // namespace ap::model
