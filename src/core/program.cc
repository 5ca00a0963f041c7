#include "core/program.hh"

#include <memory>

#include "base/logging.hh"

namespace ap::core
{

SpmdResult
run_spmd(hw::Machine &machine, const SpmdBody &body, Trace *trace)
{
    int n = machine.size();
    if (trace && trace->cells() != n)
        *trace = Trace(n);

    net::Snet::ContextId all_barrier = machine.snet().create_context();

    SpmdResult result;
    result.cellFinish.assign(static_cast<std::size_t>(n), 0);
    result.cellBlocked.assign(static_cast<std::size_t>(n), 0);

    std::vector<std::unique_ptr<sim::Process>> procs(
        static_cast<std::size_t>(n));
    std::vector<std::unique_ptr<Context>> contexts(
        static_cast<std::size_t>(n));
    // One slot per cell (fibers on different shards fail
    // concurrently), reported in cell order.
    std::vector<std::string> cellErrors(static_cast<std::size_t>(n));

    for (int i = 0; i < n; ++i) {
        auto idx = static_cast<std::size_t>(i);
        procs[idx] = std::make_unique<sim::Process>(
            machine.sim(), strprintf("cell%d", i),
            [&, i](sim::Process &p) {
                // CommError must be caught on this side of the fiber
                // boundary: an exception cannot unwind out of a fiber
                // body.
                try {
                    body(*contexts[static_cast<std::size_t>(i)]);
                } catch (const CommError &e) {
                    // A fail-stop cell's own demise is not a program
                    // error; its fate is reported via failedCells.
                    if (!machine.cell_failed(i))
                        cellErrors[static_cast<std::size_t>(i)] =
                            e.what();
                }
                result.cellFinish[static_cast<std::size_t>(i)] =
                    p.simulator().now();
            });
        contexts[idx] = std::make_unique<Context>(
            machine, i, *procs[idx], all_barrier, trace);
        // Pin the cell's fiber to its own shard under the sharded
        // kernel (resumes, delays and watchdogs all follow).
        procs[idx]->set_affinity(i);
        procs[idx]->start(machine.sim().now());
    }

    machine.run_to_completion();

    for (int i = 0; i < n; ++i) {
        auto idx = static_cast<std::size_t>(i);
        result.cellBlocked[idx] = procs[idx]->blocked_ticks();
        if (!cellErrors[idx].empty())
            result.errors.push_back(std::move(cellErrors[idx]));
        if (machine.cell_failed(i)) {
            result.failedCells.push_back(i);
        } else if (!procs[idx]->finished()) {
            result.deadlock = true;
            result.stuck.push_back(procs[idx]->name());
        }
        result.finishTick =
            std::max(result.finishTick, result.cellFinish[idx]);
    }

    if (result.deadlock) {
        warn("SPMD run deadlocked: %zu of %d cells never finished "
             "(first: %s)",
             result.stuck.size(), n, result.stuck.front().c_str());
    }

    return result;
}

} // namespace ap::core
