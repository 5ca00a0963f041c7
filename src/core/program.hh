/**
 * @file
 * The SPMD program runner.
 *
 * run_spmd() plays the role of the AP1000+'s host + operating system:
 * it loads the same program body onto every cell (each on its own
 * fiber), runs the machine's event kernel until everything drains,
 * and reports per-cell completion times. A body blocked forever (a
 * flag that never reaches its target, a barrier a cell never enters)
 * is detected as deadlock, not an infinite loop.
 */

#ifndef AP_CORE_PROGRAM_HH
#define AP_CORE_PROGRAM_HH

#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "core/context.hh"
#include "core/trace.hh"
#include "hw/machine.hh"

namespace ap::core
{

/** Outcome of one SPMD run. */
struct SpmdResult
{
    /** Simulated tick when the last cell's body returned. */
    Tick finishTick = 0;
    /** Per-cell body completion ticks. */
    std::vector<Tick> cellFinish;
    /** Per-cell ticks spent blocked (idle time). */
    std::vector<Tick> cellBlocked;
    /** True when some cell never finished (diagnostics in stuck). */
    bool deadlock = false;
    /** Names of processes that never finished. */
    std::vector<std::string> stuck;
    /**
     * Communication errors, one entry per cell whose body ended with
     * an uncaught CommError (hardened runtime paths under a fault
     * plan), in cell order. The cell stops cleanly — the machine
     * keeps draining — and the error is reported here instead of
     * hanging the run.
     */
    std::vector<std::string> errors;
    /**
     * Cells declared fail-stop during the run (FaultPlan::kills). A
     * dead cell's unfinished body or cell_failed CommError is expected
     * — it lands here instead of errors/stuck, so a run where only
     * killed cells misbehave still counts as passed.
     */
    std::vector<CellId> failedCells;
    bool failed() const { return deadlock || !errors.empty(); }
    /** Wall-clock of the run in microseconds of simulated time. */
    double finish_us() const { return ticks_to_us(finishTick); }
};

/** The body every cell executes. */
using SpmdBody = std::function<void(Context &)>;

/**
 * Run @p body on every cell of @p machine.
 *
 * @param machine the functional machine (its simulator advances)
 * @param body the per-cell program
 * @param trace optional probe sink; when given it is resized to the
 *              machine's cell count and every Context operation
 *              appends an event
 * @return completion report
 */
SpmdResult run_spmd(hw::Machine &machine, const SpmdBody &body,
                    Trace *trace = nullptr);

} // namespace ap::core

#endif // AP_CORE_PROGRAM_HH
