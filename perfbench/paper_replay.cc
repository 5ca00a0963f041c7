/**
 * @file
 * paper_replay: MLSim only, no machine. One pass generates the paper
 * applications' traces and replays each under the two parameter sets
 * behind Table 2's AP1000+ column (AP1000 and AP1000+). The seed
 * orders the replays; the traces are the paper's fixed configurations.
 *
 * Left out to keep a pass near 2 s of host time: FT and SP (one FT
 * replay takes about 14 s, one SP replay about 7 s), and the AP1000*
 * column, which is fitted rather than predicted.
 *
 * It drives the sim kernel and fibers through replay processes and
 * rendezvous rather than a machine, so every emulator optimisation
 * predicts no change here. It also carries the reproduction's Table 2
 * accuracy against the paper.
 */

#include <cctype>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "base/logging.hh"
#include "harness.hh"
#include "mlsim/params.hh"
#include "mlsim/replay.hh"

using namespace ap;

namespace pb
{
namespace
{

const char *const replay_apps[] = {"EP",       "CG",     "TC st",
                                   "TC no st", "MatMul", "SCG"};
constexpr int app_count = 6;
constexpr int model_count = 2;

/** "TC no st" -> "TC_no_st", as in the metric names. */
std::string
key(std::string s)
{
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

bool
close_to(double ours, double paper)
{
    // The repository's own Table 3 tolerance (tests/test_apps.cc).
    return std::fabs(ours - paper) <=
           0.002 * std::max(1.0, std::fabs(paper));
}

bool
row_matches(const apps::Table3Row &a, const apps::Table3Row &b)
{
    return a.pe == b.pe && close_to(a.send, b.send) &&
           close_to(a.gop, b.gop) && close_to(a.vgop, b.vgop) &&
           close_to(a.sync, b.sync) && close_to(a.put, b.put) &&
           close_to(a.puts, b.puts) && close_to(a.get, b.get) &&
           close_to(a.gets, b.gets) && close_to(a.msgSize, b.msgSize);
}

class PaperReplay : public Workload
{
  public:
    explicit PaperReplay(std::uint64_t seed)
    {
        for (const char *name : replay_apps)
            suite.push_back(apps::make_app(name));
        for (int a = 0; a < app_count; ++a)
            for (int m = 0; m < model_count; ++m)
                order.push_back({a, m});
        Rng rng(seed);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[static_cast<std::size_t>(
                          rng.below(static_cast<int>(i)))]);
    }

    const char *op_name() const override { return "replay"; }

    PassResult
    pass(SpanLog &log, std::uint64_t passNo, bool traced) override
    {
        PassResult res;
        int root = log.open("bench", "pass", passNo);
        const mlsim::Params params[model_count] = {
            mlsim::Params::ap1000(), mlsim::Params::ap1000_plus()};

        std::vector<core::Trace> traces;
        std::vector<std::uint64_t> traceEvents;
        for (const auto &app : suite) {
            Phase ph(log, &res.setup, "apps", "generate", passNo);
            traces.push_back(app->generate());
        }
        {
            int c = log.open("bench", "check", passNo);
            for (int a = 0; a < app_count; ++a) {
                const auto &app = suite[static_cast<std::size_t>(a)];
                const core::Trace &t = traces[static_cast<std::size_t>(a)];
                res.check(row_matches(apps::measure_stats(t),
                                      app->paper_stats()),
                          app->info().name + ": Table 3 row differs");
                std::uint64_t ev = 0;
                for (CellId cell = 0; cell < t.cells(); ++cell)
                    ev += t.timeline(cell).size();
                traceEvents.push_back(ev);
            }
            log.close(c, host_now());
        }

        double totalUs[app_count][model_count] = {};
        std::uint64_t messages = 0, payload = 0, replayed = 0;
        for (const auto &[a, m] : order) {
            const auto &app = suite[static_cast<std::size_t>(a)];
            mlsim::ReplayReport rep;
            {
                Phase ph(log, &res.run, "mlsim", "replay", passNo);
                rep = mlsim::Replay(traces[static_cast<std::size_t>(a)],
                                    params[m])
                          .run();
            }
            res.opMs.push_back(res.run.back() * 1e3);
            res.check(!rep.deadlock && rep.totalUs > 0.0,
                      app->info().name + ": replay deadlocked");
            totalUs[a][m] = rep.totalUs;
            messages += rep.messages;
            payload += rep.payloadBytes;
            replayed += traceEvents[static_cast<std::size_t>(a)];
        }
        res.ops = replayed;

        {
            Phase ph(log, &res.teardown, "bench", "release", passNo);
            traces.clear();
        }
        log.close(root, host_now());

        std::uint64_t modelTicks = 0;
        for (int a = 0; a < app_count; ++a)
            for (int m = 0; m < model_count; ++m)
                modelTicks += us_to_ticks(totalUs[a][m]);
        res.fingerprint = {{"makespan_ticks", modelTicks},
                           {"trace_events", replayed},
                           {"replay_messages", messages},
                           {"replay_payload_bytes", payload}};

        if (traced) {
            // Table 2's AP1000+ column: speedup over the AP1000.
            double errSum = 0.0, worst = 0.0;
            for (int a = 0; a < app_count; ++a) {
                const auto &app = suite[static_cast<std::size_t>(a)];
                double speedup = totalUs[a][0] / totalUs[a][1];
                double err = std::fabs(speedup / app->paper_speedup_plus() -
                                       1.0);
                errSum += err;
                worst = std::max(worst, err);
                res.layer["mlsim.speedup_plus." + key(app->info().name)] =
                    speedup;
            }
            res.layer["mlsim.table2_err_pct"] = 100.0 * errSum / app_count;
            res.layer["mlsim.table2_worst_pct"] = 100.0 * worst;
            double generated = 0.0;
            for (std::uint64_t e : traceEvents)
                generated += static_cast<double>(e);
            res.layer["apps.trace_events"] = generated;
            res.layer["mlsim.messages"] = static_cast<double>(messages);
            res.layer["_mlsim.replayed_events"] =
                static_cast<double>(replayed);
        }
        return res;
    }

  private:
    struct Step
    {
        int app;
        int model;
    };

    std::vector<std::unique_ptr<apps::App>> suite;
    std::vector<Step> order;
};

} // namespace

std::unique_ptr<Workload>
make_paper_replay(std::uint64_t seed)
{
    return std::make_unique<PaperReplay>(seed);
}

} // namespace pb
