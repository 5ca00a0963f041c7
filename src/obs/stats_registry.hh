/**
 * @file
 * Hierarchical statistics registry — the machine's one dashboard.
 *
 * Section 5 of the paper sells MLSim on the statistics it can report
 * (user/idle/overhead time, message sizes, communication distances,
 * event counts). The functional machine grew the same needs: every
 * component keeps counters, but until this registry existed they were
 * hand-aggregated in Machine::report(). Components now register their
 * counters, gauges and latency histograms under hierarchical dotted
 * paths ("cell3.msc.user_queue.spills"), and consumers — the report,
 * the JSON dump, the benches — walk the registry instead of knowing
 * every struct.
 *
 * Registration is by pointer, not by copy: an entry reads the live
 * component state at query time, so registering is free on the
 * simulation fast path. Machine-wide paths are registered one by one
 * (add_counter() and friends). Per-cell subtrees are registered as a
 * schema: one static table of fields for a component's stats struct
 * (add_schema()) plus one row pointer per cell (set_row()). Building
 * a machine therefore costs O(cells) pointer stores, and path strings
 * exist only when a dump renders them. Queries resolve "cell<N>."
 * and "*." against the schema without building strings. A
 * shorter-lived component (the language runtime) clears its row in
 * its destructor; serve-layer paths leave via remove_prefix().
 *
 * Thread-safety (parallel kernel audit): registration (add_*,
 * add_schema, set_row, remove_prefix) and find() take the registry's
 * mutex, so the runtimes of cells on different shards may bind and
 * clear their rows concurrently. Queries take no lock and call the
 * registered gauge functions: run them while nothing registers, i.e.
 * after the simulator drains or on one kernel shard. The
 * *backing state* is where the shards meet: per-cell component
 * counters are shard-local by construction (a cell's events run on
 * one shard), the T-net folds its other shards' rows into its totals
 * at each window barrier, the fault injector sums per-cell rows when
 * asked, the B-net's counters are written on the machine timeline
 * and the S-net's under its context mutex.
 */

#ifndef AP_OBS_STATS_REGISTRY_HH
#define AP_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "base/stats.hh"

namespace ap::obs
{

/** What one registered path is. */
enum class StatKind : std::uint8_t
{
    counter,  ///< monotonically increasing event count
    gauge,    ///< instantaneous or high-water level
    histogram,///< log2-bucketed distribution
};

/** One registry entry (readable view). */
struct StatEntry
{
    StatKind kind = StatKind::counter;
    /** Live value (counter/gauge; histograms report their count). */
    std::function<std::uint64_t()> value;
    /** Histogram payload; null for scalars. */
    const Histogram *hist = nullptr;
};

/**
 * One field of a per-cell schema. Cell N's path is
 * "cell<N>.<prefix><name>", read from the row bound to cell N.
 */
struct StatField
{
    const char *name;
    StatKind kind;
    /** Scalar value of a row (a histogram's sample count). */
    std::uint64_t (*read)(const void *row);
    /** Histogram of a row; null for scalars. */
    const Histogram *(*hist)(const void *row);
};

namespace detail
{

template <class Member>
struct MemberOf;

template <class Row, class Value>
struct MemberOf<Value Row::*>
{
    using type = Row;
};

template <auto M>
using RowOf = typename MemberOf<decltype(M)>::type;

template <auto M>
std::uint64_t
read_member(const void *row)
{
    return static_cast<const RowOf<M> *>(row)->*M;
}

template <auto M>
const Histogram *
hist_member(const void *row)
{
    return &(static_cast<const RowOf<M> *>(row)->*M);
}

template <auto M>
std::uint64_t
hist_count(const void *row)
{
    return hist_member<M>(row)->scalar().count();
}

} // namespace detail

/** Schema field reading the std::uint64_t counter member @p M. */
template <auto M>
constexpr StatField
counter_field(const char *name)
{
    return {name, StatKind::counter, &detail::read_member<M>, nullptr};
}

/** Schema field reading the std::uint64_t gauge member @p M. */
template <auto M>
constexpr StatField
gauge_field(const char *name)
{
    return {name, StatKind::gauge, &detail::read_member<M>, nullptr};
}

/** Schema field reading the Histogram member @p M. */
template <auto M>
constexpr StatField
histogram_field(const char *name)
{
    return {name, StatKind::histogram, &detail::hist_count<M>,
            &detail::hist_member<M>};
}

/** The machine-wide stats namespace. */
class StatsRegistry
{
  public:
    /** Register a counter backed by a live component field. */
    void add_counter(const std::string &path,
                     const std::uint64_t *v);

    /** Register a gauge computed on demand. */
    void add_gauge(const std::string &path,
                   std::function<std::uint64_t()> fn);

    /** Register a gauge backed by a live high-water field. */
    void add_gauge(const std::string &path, const std::uint64_t *v);

    /** Register a histogram backed by a live component field. */
    void add_histogram(const std::string &path, const Histogram *h);

    /** Drop every add_*() entry whose path starts with @p prefix. */
    void remove_prefix(const std::string &prefix);

    /** Handle of a per-cell schema. */
    using SchemaId = std::size_t;

    /**
     * Declare the per-cell subtree "cell<N>.<prefix><name>" for every
     * field; a cell has these paths once set_row() binds its row.
     * @p fields must outlive the registry (a static table). Declaring
     * the same prefix and table again returns the first handle.
     */
    SchemaId add_schema(const std::string &prefix,
                        std::span<const StatField> fields);

    /**
     * Bind cell @p cell's row of @p schema: the object every field
     * reads from. nullptr removes the cell's paths of this schema.
     */
    void set_row(SchemaId schema, int cell, const void *row);

    /** Number of registered paths, per-cell schema paths included. */
    std::size_t size() const;

    /** All paths in sorted order. */
    std::vector<std::string> paths() const;

    /**
     * Look up one entry; nullptr when @p path is not registered. The
     * entry stays valid while @p path stays registered.
     */
    const StatEntry *find(const std::string &path) const;

    /**
     * Current value of one scalar path (counter or gauge; a
     * histogram's sample count). 0 when unregistered.
     */
    std::uint64_t value(const std::string &path) const;

    /**
     * Sum of every scalar matching @p pattern. Patterns are dotted
     * paths where a "*" segment matches exactly one path segment:
     * "*.msc.puts_sent" sums the counter across all cells.
     */
    std::uint64_t sum(std::string_view pattern) const;

    /**
     * Largest value among scalars matching @p pattern; the winning
     * path lands in @p who when non-null (on a tie, the
     * lexicographically first path). 0 when nothing matches.
     */
    std::uint64_t max_over(std::string_view pattern,
                           std::string *who = nullptr) const;

    /** @return true when @p path matches @p pattern (see sum()). */
    static bool matches(std::string_view pattern, std::string_view path);

    // -- snapshots / phase deltas --------------------------------------

    /** A point-in-time copy of every scalar (histograms contribute
     *  their sample count). */
    using Snapshot = std::map<std::string, std::uint64_t>;

    /** Capture the current value of every registered path. */
    Snapshot snapshot() const;

    /**
     * Per-path change since @p before. Paths registered after the
     * snapshot count from zero; paths removed since are omitted.
     * Deltas are signed so a gauge that shrank reads negative.
     */
    std::map<std::string, std::int64_t>
    delta_since(const Snapshot &before) const;

    /**
     * Render a delta map as a "path  +N" table, largest magnitude
     * first, zero rows skipped. @p maxRows 0 means unlimited; when
     * rows are cut, a trailing "... (K more)" line says so.
     */
    static std::string
    delta_text(const std::map<std::string, std::int64_t> &d,
               std::size_t maxRows = 0);

    /**
     * Render every entry as nested JSON. Histograms become objects
     * with count/sum/min/max/mean and a bucket map ("b<k>" covers
     * [2^(k-1), 2^k)). Paths starting with @p skipPrefix are
     * omitted — determinism byte-compares use it to drop the
     * kernel's "sim." self-telemetry (host wall-clock, shard shape),
     * which describes how a run executed rather than what the
     * machine did.
     */
    std::string dump_json(bool pretty = true,
                          const std::string &skipPrefix = {}) const;

    /** Render a flat "path = value" text table (histograms show
     *  count/mean/max). Honors @p skipPrefix like dump_json(). */
    std::string dump_text(const std::string &skipPrefix = {}) const;

  private:
    /** A per-cell schema and its bound rows. */
    struct Schema
    {
        std::string prefix;
        std::span<const StatField> fields;
        /** prefix + name of each field: the path below "cell<N>.". */
        std::vector<std::string> suffixes;
        /** Bound row per cell; null = the cell has no such paths. */
        std::vector<const void *> rows;
    };

    /** One registered path, resolved to where its value lives. */
    struct Ref
    {
        /** add_*() entry and its path; null for a schema path. */
        const StatEntry *entry = nullptr;
        const std::string *path = nullptr;
        /** Schema path: schema index, field index, cell, row. */
        std::size_t schema = 0;
        std::size_t field = 0;
        int cell = 0;
        const void *row = nullptr;
    };

    std::uint64_t value_of(const Ref &r) const;
    const Histogram *hist_of(const Ref &r) const;
    /** Write @p r's path into @p out (reusing its storage). */
    void render(const Ref &r, std::string &out) const;
    std::optional<Ref> resolve(std::string_view path) const;

    /** Visit every path matching @p pattern (unordered). */
    template <class Visit>
    void for_each_match(std::string_view pattern, Visit &&visit) const;
    /** Visit every path with its rendered string (unordered). */
    template <class Visit>
    void for_each_path(Visit &&visit) const;

    /** Guards every member below against concurrent registration. */
    mutable std::mutex mu;
    std::map<std::string, StatEntry, std::less<>> entries;
    std::vector<Schema> schemas;
    /** Paths the bound schema rows contribute. */
    std::size_t schemaPaths = 0;
    /** find() results for schema paths, keyed (schema, cell, field),
     *  dropped when the cell's row changes. */
    mutable std::map<std::tuple<std::size_t, int, std::size_t>,
                     StatEntry>
        found;
};

} // namespace ap::obs

#endif // AP_OBS_STATS_REGISTRY_HH
