/**
 * @file
 * Blocking processes on top of fibers and the event queue.
 *
 * A Process is a fiber bound to a Simulator with two blocking
 * primitives: delay(dt) (model computation or fixed hardware latency)
 * and wait(Condition) (park until some piece of simulated hardware
 * signals). Conditions use notify-then-recheck semantics, so waiters
 * always re-test their predicate in a loop.
 */

#ifndef AP_SIM_PROCESS_HH
#define AP_SIM_PROCESS_HH

#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/eventq.hh"
#include "sim/fiber.hh"

namespace ap::sim
{

class Process;

/**
 * A broadcast wakeup channel. Hardware models call notify_all() when
 * state changes (a flag incremented, a ring buffer filled, a barrier
 * released); parked processes resume at the current tick in the order
 * they went to sleep.
 */
class Condition
{
  public:
    /** Wake every parked process at the current simulated time. */
    void notify_all();

    /** @return number of processes currently parked here. */
    std::size_t waiters() const { return parked.size(); }

  private:
    friend class Process;
    std::vector<Process *> parked;
};

/**
 * A simulated thread of control (one per cell in the functional
 * machine; one per trace timeline in MLSim replay).
 */
class Process
{
  public:
    /**
     * Create a process; it does not run until start() is called.
     * @param sim the owning simulator
     * @param name diagnostic label (e.g. "cell12")
     * @param body the process body, handed this Process
     */
    Process(Simulator &sim, std::string name,
            std::function<void(Process &)> body);

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    ~Process(); ///< cancels a wait_until() deadline still armed

    /** Schedule the first resume at absolute time @p at. */
    void start(Tick at = 0);

    /**
     * Block the calling process for @p dt ticks of simulated time.
     * Must be called from inside the process body.
     */
    void delay(Tick dt);

    /**
     * Park the calling process on @p cond until notified. Callers
     * re-check their predicate afterwards:
     * @code
     * while (!ready()) proc.wait(cond);
     * @endcode
     */
    void wait(Condition &cond);

    /**
     * Park on @p cond until notified or until the absolute simulated
     * time @p deadline, whichever comes first — the primitive behind
     * every communication timeout.
     *
     * @return true when woken by a notification, false on timeout.
     * Like wait(), callers must re-check their predicate on a true
     * return (notify-then-recheck semantics).
     */
    bool wait_until(Condition &cond, Tick deadline);

    /** @return true once the body returned. */
    bool finished() const { return fiber.finished(); }

    /** @return true while parked on a condition. */
    bool blocked() const { return parkedOn != nullptr; }

    /** Diagnostic label. */
    const std::string &name() const { return label; }

    /**
     * Pin every resume event of this process to @p affinity (the
     * owning cell id under the sharded kernel, so a cell's fiber
     * always runs on its cell's shard). Default 0.
     */
    void set_affinity(int affinity) { aff = affinity; }
    int affinity() const { return aff; }

    /** Owning simulator. */
    Simulator &simulator() { return sim; }

    /** Total ticks this process spent parked on conditions. */
    Tick blocked_ticks() const { return blockedTicks; }

    /** Total ticks this process spent in delay(). */
    Tick delayed_ticks() const { return delayedTicks; }

  private:
    friend class Condition;

    Simulator &sim;
    std::string label;
    int aff = 0;
    Fiber fiber;
    Condition *parkedOn = nullptr;
    Tick parkStart = 0;
    Tick blockedTicks = 0;
    Tick delayedTicks = 0;
    /** The armed wait_until() deadline; cancelled once woken. */
    Timer waitTimer;
    /** Set by the timeout path for wait_until()'s return value. */
    bool timedOut = false;
};

} // namespace ap::sim

#endif // AP_SIM_PROCESS_HH
