/**
 * @file
 * Shared pieces of the end-to-end benchmark: seeded input draws, host
 * timing, the benchmark's own span log, and the per-pass record every
 * workload returns.
 *
 * The benchmark measures the simulator from outside. It times its own
 * calls into each layer's public functions and reads the counters the
 * layers already publish; no simulator code changes for it.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pb
{

/** Host seconds on the monotonic clock. */
double host_now();

/**
 * Host seconds the reference kernel (reference.cc) takes for its fixed
 * work, timed after a short untimed warm-up.
 */
double reference_seconds();

/**
 * The reference kernel's best time on the 4-core VM the bounds were
 * set on. Host times are reported scaled to a host on which the
 * reference takes this long.
 */
constexpr double reference_nominal_s = 0.0095;

/** splitmix64 finaliser. */
std::uint64_t mix64(std::uint64_t x);

/** A draw keyed by (seed, a, b, c): same key, same value. */
std::uint64_t draw(std::uint64_t seed, std::uint64_t a,
                   std::uint64_t b = 0, std::uint64_t c = 0);

/** Sequential seeded generator for input streams. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(mix64(seed)) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [0, n). */
    int below(int n);

  private:
    std::uint64_t state;
};

/**
 * The benchmark's own span log. A span is recorded around each call
 * the benchmark makes into a layer: layer, name, start, end, parent,
 * and the pass it belongs to. Spans are kept in memory and only while
 * the log is enabled (the traced passes).
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string layer;
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        std::uint64_t pass = 0;
    };

    void set_enabled(bool on) { enabled = on; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *layer, const char *name, std::uint64_t pass);
    /** Close span @p idx (opened last) at host time @p end. */
    void close(int idx, double end);
    /** Record a finished child of the innermost open span. */
    void add(const char *layer, const char *name, double start,
             double end, std::uint64_t pass);

    const std::vector<Span> &spans() const { return log; }

    /**
     * Self time of every "layer.name": span time minus the part its
     * child spans cover, summed over spans of that name.
     */
    std::map<std::string, double> self_seconds() const;

    /** Write every span as Chrome trace_event JSON. */
    bool write_chrome(const std::string &path) const;

  private:
    bool enabled = false;
    std::vector<Span> log;
    std::vector<int> stack;
};

/**
 * Times one step of a pass: the elapsed host seconds are appended to
 * @p steps, and a span is recorded when the log is enabled.
 */
class Phase
{
  public:
    Phase(SpanLog &log, std::vector<double> *steps, const char *layer,
          const char *name, std::uint64_t pass);
    ~Phase();
    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

  private:
    SpanLog &log;
    std::vector<double> *steps;
    int span;
    double start;
};

/**
 * What one pass of a workload did and what it cost.
 *
 * Host time is kept per step, in the order the pass ran the steps.
 * Every pass of a run runs the same steps on the same inputs, so the
 * k-th step of each pass times the same work, and the run can take
 * each step's best time over its passes.
 */
struct PassResult
{
    std::vector<double> setup;    ///< building what the pass runs on
    std::vector<double> run;      ///< the work itself
    std::vector<double> teardown; ///< everything after the work
    std::uint64_t ops = 0;       ///< work items done
    std::uint64_t attempted = 0; ///< checked operations
    std::uint64_t failed = 0;    ///< operations that failed a check
    std::vector<std::string> errors; ///< first failure reasons
    /** Model fingerprint; must be identical on every pass. */
    std::vector<std::pair<std::string, std::uint64_t>> fingerprint;
    /** Per-layer counters and model numbers (traced passes only). */
    std::map<std::string, double> layer;
    /** Host milliseconds of each op, where an op has a latency. */
    std::vector<double> opMs;

    /** Count one checked operation; record @p why when it failed. */
    void check(bool ok, const std::string &why);
};

/** One named workload over inputs generated from its seed. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Run one pass over the inputs; @p pass numbers spans. */
    virtual PassResult pass(SpanLog &log, std::uint64_t pass,
                            bool traced) = 0;
    /** What one op is, for the printed summary. */
    virtual const char *op_name() const = 0;
    /** Lines printed before the result (grid, accuracy). */
    virtual std::string summary() const { return {}; }
};

/** The two workloads of BENCHMARK.json. */
std::unique_ptr<Workload> make_emulator_mix(std::uint64_t seed);
std::unique_ptr<Workload> make_paper_replay(std::uint64_t seed);

/** The three parts of emulator_mix. */
std::unique_ptr<Workload> make_short_programs(std::uint64_t seed);
std::unique_ptr<Workload> make_comm_soak(std::uint64_t seed);
std::unique_ptr<Workload> make_job_stream(std::uint64_t seed);

/** Sum of @p v. */
double total(const std::vector<double> &v);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Order statistic at quantile @p q in [0, 1] (nearest rank). */
double quantile(std::vector<double> v, double q);

} // namespace pb

#endif // PERFBENCH_HARNESS_HH
