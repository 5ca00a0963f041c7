#include "obs/stats_registry.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <utility>

#include "base/logging.hh"
#include "obs/json.hh"

namespace ap::obs
{

void
StatsRegistry::add_counter(const std::string &path,
                           const std::uint64_t *v)
{
    std::lock_guard<std::mutex> lock(mu);
    entries[path] =
        StatEntry{StatKind::counter, [v]() { return *v; }, nullptr};
}

void
StatsRegistry::add_gauge(const std::string &path,
                         std::function<std::uint64_t()> fn)
{
    std::lock_guard<std::mutex> lock(mu);
    entries[path] =
        StatEntry{StatKind::gauge, std::move(fn), nullptr};
}

void
StatsRegistry::add_gauge(const std::string &path,
                         const std::uint64_t *v)
{
    std::lock_guard<std::mutex> lock(mu);
    entries[path] =
        StatEntry{StatKind::gauge, [v]() { return *v; }, nullptr};
}

void
StatsRegistry::add_histogram(const std::string &path,
                             const Histogram *h)
{
    std::lock_guard<std::mutex> lock(mu);
    entries[path] = StatEntry{
        StatKind::histogram, [h]() { return h->scalar().count(); },
        h};
}

void
StatsRegistry::remove_prefix(const std::string &prefix)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.lower_bound(prefix);
    while (it != entries.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0)
        it = entries.erase(it);
}

StatsRegistry::SchemaId
StatsRegistry::add_schema(const std::string &prefix,
                          std::span<const StatField> fields)
{
    std::lock_guard<std::mutex> lock(mu);
    for (SchemaId id = 0; id < schemas.size(); ++id)
        if (schemas[id].fields.data() == fields.data() &&
            schemas[id].prefix == prefix)
            return id;
    Schema s{prefix, fields, {}, {}};
    for (const StatField &f : fields)
        s.suffixes.push_back(prefix + f.name);
    schemas.push_back(std::move(s));
    return schemas.size() - 1;
}

void
StatsRegistry::set_row(SchemaId schema, int cell, const void *row)
{
    std::lock_guard<std::mutex> lock(mu);
    Schema &s = schemas.at(schema);
    auto at = static_cast<std::size_t>(cell);
    if (at >= s.rows.size())
        s.rows.resize(at + 1);
    if (s.rows[at] && !row)
        schemaPaths -= s.fields.size();
    if (!s.rows[at] && row)
        schemaPaths += s.fields.size();
    s.rows[at] = row;
    found.erase(found.lower_bound({schema, cell, 0}),
                found.lower_bound({schema, cell + 1, 0}));
}

std::size_t
StatsRegistry::size() const
{
    return entries.size() + schemaPaths;
}

namespace
{

/**
 * The cell number of a "cell<N>" path segment, or -1 when @p seg is
 * not one. Only the canonical spelling counts ("cell05" is not cell
 * 5), since that is the only one a schema path renders as.
 */
int
parse_cell(std::string_view seg)
{
    constexpr std::string_view tag = "cell";
    if (seg.size() <= tag.size() || seg.substr(0, tag.size()) != tag)
        return -1;
    std::string_view digits = seg.substr(tag.size());
    if (digits.size() > 1 && digits[0] == '0')
        return -1;
    int cell = 0;
    auto [end, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), cell);
    if (ec != std::errc() || end != digits.data() + digits.size())
        return -1;
    return cell;
}

} // namespace

std::uint64_t
StatsRegistry::value_of(const Ref &r) const
{
    return r.entry ? r.entry->value()
                   : schemas[r.schema].fields[r.field].read(r.row);
}

const Histogram *
StatsRegistry::hist_of(const Ref &r) const
{
    if (r.entry)
        return r.entry->hist;
    const StatField &f = schemas[r.schema].fields[r.field];
    return f.hist ? f.hist(r.row) : nullptr;
}

void
StatsRegistry::render(const Ref &r, std::string &out) const
{
    if (r.entry) {
        out = *r.path;
        return;
    }
    char digits[16];
    char *end = std::to_chars(digits, digits + sizeof digits, r.cell).ptr;
    out.assign("cell").append(digits, end).append(1, '.');
    out += schemas[r.schema].suffixes[r.field];
}

std::optional<StatsRegistry::Ref>
StatsRegistry::resolve(std::string_view path) const
{
    auto it = entries.find(path);
    if (it != entries.end())
        return Ref{&it->second, &it->first};
    std::size_t dot = path.find('.');
    int cell = parse_cell(path.substr(0, dot));
    if (dot == std::string_view::npos || cell < 0)
        return std::nullopt;
    std::string_view rest = path.substr(dot + 1);
    auto at = static_cast<std::size_t>(cell);
    for (std::size_t s = 0; s < schemas.size(); ++s) {
        const Schema &sc = schemas[s];
        if (at >= sc.rows.size() || !sc.rows[at])
            continue;
        for (std::size_t f = 0; f < sc.suffixes.size(); ++f)
            if (sc.suffixes[f] == rest)
                return Ref{nullptr, nullptr, s, f, cell, sc.rows[at]};
    }
    return std::nullopt;
}

template <class Visit>
void
StatsRegistry::for_each_match(std::string_view pattern,
                              Visit &&visit) const
{
    for (const auto &[path, entry] : entries)
        if (matches(pattern, path))
            visit(Ref{&entry, &path});
    // A schema path is "cell<N>." + suffix: match the first pattern
    // segment against the cells once and the rest against each
    // suffix once.
    std::size_t dot = pattern.find('.');
    if (dot == std::string_view::npos)
        return;
    std::string_view head = pattern.substr(0, dot);
    std::string_view rest = pattern.substr(dot + 1);
    bool anyCell = head == "*";
    int only = anyCell ? -1 : parse_cell(head);
    if (!anyCell && only < 0)
        return;
    for (std::size_t s = 0; s < schemas.size(); ++s) {
        const Schema &sc = schemas[s];
        std::size_t lo = anyCell ? 0 : static_cast<std::size_t>(only);
        std::size_t hi =
            std::min(sc.rows.size(), anyCell ? sc.rows.size() : lo + 1);
        for (std::size_t f = 0; f < sc.suffixes.size(); ++f) {
            if (!matches(rest, sc.suffixes[f]))
                continue;
            for (std::size_t c = lo; c < hi; ++c)
                if (sc.rows[c])
                    visit(Ref{nullptr, nullptr, s, f,
                              static_cast<int>(c), sc.rows[c]});
        }
    }
}

template <class Visit>
void
StatsRegistry::for_each_path(Visit &&visit) const
{
    for (const auto &[path, entry] : entries)
        visit(path, Ref{&entry, &path});
    std::string path;
    for (std::size_t s = 0; s < schemas.size(); ++s) {
        const Schema &sc = schemas[s];
        for (std::size_t c = 0; c < sc.rows.size(); ++c) {
            if (!sc.rows[c])
                continue;
            for (std::size_t f = 0; f < sc.fields.size(); ++f) {
                Ref r{nullptr, nullptr, s, f, static_cast<int>(c),
                      sc.rows[c]};
                render(r, path);
                visit(path, r);
            }
        }
    }
}

std::vector<std::string>
StatsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries.size() + schemaPaths);
    for_each_path(
        [&out](const std::string &path, const Ref &) {
            out.push_back(path);
        });
    std::sort(out.begin(), out.end());
    return out;
}

const StatEntry *
StatsRegistry::find(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::optional<Ref> r = resolve(path);
    if (!r)
        return nullptr;
    if (r->entry)
        return r->entry;
    // A schema path has no stored entry: build one on first lookup.
    auto [it, fresh] = found.try_emplace({r->schema, r->cell, r->field});
    if (fresh) {
        const StatField &f = schemas[r->schema].fields[r->field];
        it->second = StatEntry{
            f.kind, [read = f.read, row = r->row]() { return read(row); },
            hist_of(*r)};
    }
    return &it->second;
}

std::uint64_t
StatsRegistry::value(const std::string &path) const
{
    std::optional<Ref> r = resolve(path);
    return r ? value_of(*r) : 0;
}

bool
StatsRegistry::matches(std::string_view pattern, std::string_view path)
{
    for (;;) {
        std::size_t pd = pattern.find('.');
        std::size_t sd = path.find('.');
        std::string_view pseg = pattern.substr(0, pd);
        if (pseg != "*" && pseg != path.substr(0, sd))
            return false;
        bool pend = pd == std::string_view::npos;
        bool send = sd == std::string_view::npos;
        if (pend || send)
            return pend && send;
        pattern.remove_prefix(pd + 1);
        path.remove_prefix(sd + 1);
    }
}

std::uint64_t
StatsRegistry::sum(std::string_view pattern) const
{
    std::uint64_t total = 0;
    for_each_match(pattern,
                   [&](const Ref &r) { total += value_of(r); });
    return total;
}

std::uint64_t
StatsRegistry::max_over(std::string_view pattern, std::string *who) const
{
    std::uint64_t best = 0;
    bool any = false;
    std::string bestPath, path;
    for_each_match(pattern, [&](const Ref &r) {
        std::uint64_t v = value_of(r);
        if (any && v < best)
            return;
        // Ties go to the lexicographically first path, whatever
        // order the walk visits them in.
        render(r, path);
        if (any && v == best && path >= bestPath)
            return;
        best = v;
        bestPath.swap(path);
        any = true;
    });
    if (who && any)
        *who = bestPath;
    return best;
}

StatsRegistry::Snapshot
StatsRegistry::snapshot() const
{
    Snapshot snap;
    for_each_path([&](const std::string &path, const Ref &r) {
        snap.emplace(path, value_of(r));
    });
    return snap;
}

std::map<std::string, std::int64_t>
StatsRegistry::delta_since(const Snapshot &before) const
{
    std::map<std::string, std::int64_t> d;
    for_each_path([&](const std::string &path, const Ref &r) {
        auto it = before.find(path);
        std::uint64_t was = it == before.end() ? 0 : it->second;
        d.emplace(path, static_cast<std::int64_t>(value_of(r)) -
                            static_cast<std::int64_t>(was));
    });
    return d;
}

std::string
StatsRegistry::delta_text(
    const std::map<std::string, std::int64_t> &d,
    std::size_t maxRows)
{
    std::vector<std::pair<std::string, std::int64_t>> rows;
    for (const auto &[path, delta] : d)
        if (delta != 0)
            rows.emplace_back(path, delta);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return std::llabs(a.second) >
                                std::llabs(b.second);
                     });
    std::string out;
    std::size_t shown = 0;
    for (const auto &[path, delta] : rows) {
        if (maxRows != 0 && shown == maxRows)
            break;
        out += strprintf("%-48s %+lld\n", path.c_str(),
                         static_cast<long long>(delta));
        ++shown;
    }
    if (shown < rows.size())
        out += strprintf("... (%zu more)\n", rows.size() - shown);
    if (rows.empty())
        out += "(no change)\n";
    return out;
}

namespace
{

std::string
histogram_json(const Histogram &h)
{
    const Accumulator &a = h.scalar();
    std::string out = strprintf(
        "{\"count\": %llu, \"sum\": %s, \"min\": %s, \"max\": %s, "
        "\"mean\": %s, \"buckets\": {",
        static_cast<unsigned long long>(a.count()),
        json_number(a.sum()).c_str(), json_number(a.min()).c_str(),
        json_number(a.max()).c_str(), json_number(a.mean()).c_str());
    bool first = true;
    for (const auto &[b, c] : h.data()) {
        if (!first)
            out += ", ";
        first = false;
        out += strprintf("\"b%d\": %llu", b,
                         static_cast<unsigned long long>(c));
    }
    out += "}}";
    return out;
}

} // namespace

namespace
{

bool
has_prefix(const std::string &s, const std::string &prefix)
{
    return !prefix.empty() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

std::string
StatsRegistry::dump_json(bool pretty,
                         const std::string &skipPrefix) const
{
    JsonTree tree;
    for_each_path([&](const std::string &path, const Ref &r) {
        if (has_prefix(path, skipPrefix))
            return;
        if (const Histogram *h = hist_of(r))
            tree.set_raw(path, histogram_json(*h));
        else
            tree.set(path, value_of(r));
    });
    return tree.render(pretty);
}

std::string
StatsRegistry::dump_text(const std::string &skipPrefix) const
{
    std::vector<std::pair<std::string, Ref>> rows;
    for_each_path([&](const std::string &path, const Ref &r) {
        if (!has_prefix(path, skipPrefix))
            rows.emplace_back(path, r);
    });
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::string out;
    for (const auto &[path, r] : rows) {
        if (const Histogram *h = hist_of(r)) {
            const Accumulator &a = h->scalar();
            out += strprintf(
                "%-48s count=%llu mean=%.2f max=%.0f\n", path.c_str(),
                static_cast<unsigned long long>(a.count()), a.mean(),
                a.max());
        } else {
            out += strprintf("%-48s %llu\n", path.c_str(),
                             static_cast<unsigned long long>(
                                 value_of(r)));
        }
    }
    return out;
}

} // namespace ap::obs
