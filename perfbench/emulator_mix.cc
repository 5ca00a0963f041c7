/**
 * @file
 * emulator_mix: every pass runs the three emulator workloads back to
 * back on fresh machines, so one run covers the sim, hw, net, core,
 * runtime, obs and serve layers:
 *   - short_programs: the nine-point setup grid, where machine build
 *     and teardown dominate;
 *   - comm_soak: one long checked program on 1024 cells, the hot path;
 *   - job_stream: one open-loop job stream through the gang scheduler.
 *
 * They share one workload because each step's best time needs many
 * passes to settle on a shared 4-core VM, and the benchmark's time
 * budget allows 50 s runs for two workloads, not four.
 * setup_s gathers every machine build (and the scheduler's), run_s
 * every kernel run, and one op is one simulated event.
 */

#include <array>
#include <memory>

#include "harness.hh"

namespace pb
{
namespace
{

const char *const part_names[] = {"short_programs", "comm_soak",
                                  "job_stream"};

class EmulatorMix : public Workload
{
  public:
    explicit EmulatorMix(std::uint64_t seed)
        : parts{make_short_programs(seed), make_comm_soak(seed),
                make_job_stream(seed)}
    {
    }

    /** The printed latencies are the short programs'. */
    const char *op_name() const override { return "short program"; }

    PassResult
    pass(SpanLog &log, std::uint64_t passNo, bool traced) override
    {
        PassResult all;
        for (std::size_t i = 0; i < parts.size(); ++i) {
            PassResult r = parts[i]->pass(log, passNo, traced);
            all.setup.insert(all.setup.end(), r.setup.begin(),
                             r.setup.end());
            all.run.insert(all.run.end(), r.run.begin(), r.run.end());
            all.teardown.insert(all.teardown.end(), r.teardown.begin(),
                                r.teardown.end());
            all.ops += r.ops;
            all.attempted += r.attempted;
            all.failed += r.failed;
            for (std::string &e : r.errors)
                all.errors.push_back(std::string(part_names[i]) + ": " + e);
            for (auto &[k, v] : r.fingerprint)
                all.fingerprint.emplace_back(
                    std::string(part_names[i]) + "." + k, v);
            // Counters add up over the parts' machines; every ratio
            // and model number comes from exactly one part.
            for (const auto &[k, v] : r.layer)
                all.layer[k] += v;
            if (i == 0)
                all.opMs = std::move(r.opMs);
        }
        return all;
    }

    std::string summary() const override { return parts[0]->summary(); }

  private:
    std::array<std::unique_ptr<Workload>, 3> parts;
};

} // namespace

std::unique_ptr<Workload>
make_emulator_mix(std::uint64_t seed)
{
    return std::make_unique<EmulatorMix>(seed);
}

} // namespace pb
