/**
 * @file
 * Extra-P-style scaling-law fitting over bench sweep points.
 *
 * The measurement half of the repo (bench sweeps, the stats registry,
 * the perf timeline) answers "what did this run cost"; this library
 * answers "how does that cost *scale*". Following the Extra-P
 * performance-model normal form, a metric y measured at parameter
 * values x is fitted to single-term hypotheses
 *
 *     y(x) ~= c + a * x^i * log2(x)^j
 *
 * where (i, j) ranges over a small lattice of candidate exponents
 * (i in {-2 .. 3} in quarter/half steps, j in {0, 1, 2}) plus the
 * pure-constant hypothesis a = 0. Each candidate is solved in closed
 * form (2x2 weighted normal equations); the *selected* model is the
 * candidate with the smallest leave-one-out cross-validated error, so
 * a term must predict held-out points better than the constant model
 * to be chosen at all — noise does not grow exponents.
 *
 * The fit is weighted (relative) least squares: sweep metrics span
 * decades (a 64 B PUT and a 1 MB PUT differ by ~1000x in latency),
 * and unweighted residuals would fit only the largest points.
 * Weights 1/y^2 make every point count by its relative error, which
 * is also the quantity the divergence gate (tools/model_check.py)
 * thresholds.
 *
 * tests/test_model.cc pins the selection behavior on synthetic data
 * (constant, linear, n log n, noisy quadratic, inverse square root,
 * single point) including cross-validation rejecting overfit terms.
 */

#ifndef AP_MODEL_FIT_HH
#define AP_MODEL_FIT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace ap::model
{

/** One sweep observation: metric value @p y at parameter value @p x. */
struct Point
{
    double x = 0.0;
    double y = 0.0;
};

/** One candidate scaling term g(x) = x^exp * log2(x)^logPow. */
struct Term
{
    double exp = 0.0;
    int logPow = 0;

    /** g(x); requires x > 0. */
    double eval(double x) const;

    /** "n^1.5*log2(n)" — empty for the constant term. */
    std::string text(const std::string &var = "n") const;
};

/**
 * How much better (in cross-validated RMSE) a term model must be than
 * the constant hypothesis to displace it. 1.05 = 5% better; guards
 * against noise-grown exponents on flat data.
 */
inline constexpr double term_advantage = 1.05;

/** The candidate exponent lattice (quarter/half steps in [-2, 3]). */
inline constexpr double term_exponents[] = {
    -2.0, -1.5, -1.0, -0.75, -0.5, -0.25, 0.25, 0.5,
    0.75, 1.0,  1.25, 1.5,   2.0,  2.5,   3.0,
};
/** The candidate log2 powers. */
inline constexpr int term_log_powers[] = {0, 1, 2};

/** A fitted scaling model y(x) = c + a * g(x). */
struct Fit
{
    double c = 0.0;           ///< constant component
    double a = 0.0;           ///< term coefficient (0 when constant)
    Term term;                ///< the selected term (if !constant)
    bool constant = true;     ///< pure-constant model selected

    double r2 = 0.0;          ///< coefficient of determination
    double adjR2 = 0.0;       ///< adjusted for parameter count
    /** Root-mean-square *relative* residual over the training points
     *  (fraction, not percent): the model's own error envelope. */
    double rmseRel = 0.0;
    /** Leave-one-out cross-validated relative RMSE; equals rmseRel
     *  when there were too few points to cross-validate. */
    double cvRmseRel = 0.0;
    std::size_t points = 0;   ///< observations fitted

    /** Model prediction at @p x. */
    double eval(double x) const;

    /** "2.9e+06 * n^-0.50 + 1.2e+03" (compact, for tables). */
    std::string formula(const std::string &var = "n") const;

    /** "events_per_sec ~= <formula>  (R2=0.993, cv-rmse=3.1%, n=8)" */
    std::string text(const std::string &metric,
                     const std::string &var = "n") const;
};

/**
 * Fit the best single-term scaling model to @p pts.
 *
 * Requires every x > 0 (the term lattice takes log2(x)). Degenerate
 * inputs degrade gracefully: no points -> zero constant; fewer than
 * three distinct x -> constant through the weighted mean (a term
 * interpolates two points exactly whatever its exponent, so the
 * scaling class would be unidentifiable).
 */
Fit fit_scaling(const std::vector<Point> &pts);

/** Simple unweighted line y = intercept + slope * x (for parameter
 *  derivation, where the exponent is known to be 1). */
struct Line
{
    double intercept = 0.0;
    double slope = 0.0;
    double r2 = 0.0;
};

/** Ordinary least-squares line; with < 2 distinct x the slope is 0
 *  and the intercept is the mean. */
Line linear_fit(const std::vector<Point> &pts);

} // namespace ap::model

#endif // AP_MODEL_FIT_HH
