#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace pb
{

double
host_now()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return mix64(mix64(mix64(mix64(seed) ^ a) ^ b) ^ c);
}

std::uint64_t
Rng::next()
{
    state += 0x9e3779b97f4a7c15ULL;
    return mix64(state);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int
Rng::below(int n)
{
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

int
SpanLog::open(const char *layer, const char *name, std::uint64_t pass)
{
    if (!enabled)
        return -1;
    Span s;
    s.layer = layer;
    s.name = name;
    s.start = host_now();
    s.parent = stack.empty() ? -1 : stack.back();
    s.pass = pass;
    log.push_back(std::move(s));
    int idx = static_cast<int>(log.size()) - 1;
    stack.push_back(idx);
    return idx;
}

void
SpanLog::close(int idx, double end)
{
    if (idx < 0)
        return;
    log[static_cast<std::size_t>(idx)].end = end;
    if (!stack.empty() && stack.back() == idx)
        stack.pop_back();
}

void
SpanLog::add(const char *layer, const char *name, double start,
             double end, std::uint64_t pass)
{
    if (!enabled)
        return;
    Span s;
    s.layer = layer;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = stack.empty() ? -1 : stack.back();
    s.pass = pass;
    log.push_back(std::move(s));
}

std::map<std::string, double>
SpanLog::self_seconds() const
{
    std::vector<double> childSum(log.size(), 0.0);
    for (const Span &s : log)
        if (s.parent >= 0)
            childSum[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < log.size(); ++i)
        out[log[i].layer + "." + log[i].name] +=
            std::max(0.0, log[i].end - log[i].start - childSum[i]);
    return out;
}

bool
SpanLog::write_chrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    double t0 = log.empty() ? 0.0 : log.front().start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Span &s = log[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                     "\"args\":{\"pass\":%llu,\"parent\":%d}}\n",
                     i == 0 ? "" : ",", s.layer.c_str(), s.name.c_str(),
                     s.layer.c_str(), (s.start - t0) * 1e6,
                     (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.pass), s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

Phase::Phase(SpanLog &log, std::vector<double> *steps, const char *layer,
             const char *name, std::uint64_t pass)
    : log(log), steps(steps), span(log.open(layer, name, pass)),
      start(host_now())
{
}

Phase::~Phase()
{
    double end = host_now();
    steps->push_back(end - start);
    log.close(span, end);
}

void
PassResult::check(bool ok, const std::string &why)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(why);
}

double
total(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = std::ceil(q * static_cast<double>(v.size())) - 1.0;
    std::size_t i = static_cast<std::size_t>(std::max(0.0, pos));
    return v[std::min(i, v.size() - 1)];
}

} // namespace pb
