#include "sim/process.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ap::sim
{

Process::Process(Simulator &sim, std::string name,
                 std::function<void(Process &)> body)
    : sim(sim),
      label(std::move(name)),
      fiber([this, body = std::move(body)]() { body(*this); })
{
}

Process::~Process()
{
    sim.cancel(waitTimer);
}

void
Process::start(Tick at)
{
    sim.schedule_for(aff, at, [this]() { fiber.resume(); });
}

void
Process::delay(Tick dt)
{
    if (Fiber::current() != &fiber)
        panic("Process::delay called from outside process '%s'",
              label.c_str());
    if (dt == 0)
        return;
    Tick wake = sim.now() + dt;
    delayedTicks += dt;
    sim.schedule_for(aff, wake, [this]() { fiber.resume(); });
    Fiber::yield();
}

void
Process::wait(Condition &cond)
{
    if (Fiber::current() != &fiber)
        panic("Process::wait called from outside process '%s'",
              label.c_str());
    parkedOn = &cond;
    parkStart = sim.now();
    cond.parked.push_back(this);
    Fiber::yield();
}

bool
Process::wait_until(Condition &cond, Tick deadline)
{
    if (Fiber::current() != &fiber)
        panic("Process::wait_until called from outside process '%s'",
              label.c_str());
    if (deadline <= sim.now())
        return false;

    parkedOn = &cond;
    parkStart = sim.now();
    timedOut = false;
    cond.parked.push_back(this);

    // The timer resumes us at the deadline unless a notification
    // does first: a woken wait cancels it. Only a notification at
    // the deadline's own tick can still let it run, ahead of the
    // resume that notification queued.
    waitTimer = sim.arm(deadline, [this, &cond]() {
        if (parkedOn != &cond)
            return; // notified this tick; that resume is queued
        cond.parked.erase(std::find(cond.parked.begin(),
                                    cond.parked.end(), this));
        parkedOn = nullptr;
        blockedTicks += sim.now() - parkStart;
        timedOut = true;
        fiber.resume();
    });

    Fiber::yield();
    sim.cancel(waitTimer);
    return !timedOut;
}

void
Condition::notify_all()
{
    if (parked.empty())
        return;
    std::vector<Process *> woken;
    woken.swap(parked);
    for (Process *p : woken) {
        p->parkedOn = nullptr;
        p->blockedTicks += p->sim.now() - p->parkStart;
        // Resume on the parked process's own shard: the notifier may
        // be an event of a different cell (e.g. a barrier release).
        p->sim.schedule_for(p->aff, p->sim.now(),
                            [p]() { p->fiber.resume(); });
    }
}

} // namespace ap::sim
