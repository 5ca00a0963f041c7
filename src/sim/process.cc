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

void
Process::start(Tick at)
{
    sim.schedule_for(aff, at, [this]() { resume_from_event(); });
}

void
Process::resume_from_event()
{
    fiber.resume();
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
    sim.schedule_for(aff, wake, [this]() { resume_from_event(); });
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
    ++waitSeq;
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
    std::uint64_t seq = ++waitSeq;
    cond.parked.push_back(this);

    // The watchdog resumes us at the deadline unless a notification
    // already did (detected via the wait sequence number). The event
    // can outlive the process itself (gangs are reaped mid-run once
    // finished): the weak liveness token makes it a no-op then. A
    // timer that finds its wait over marks itself idle, so it does
    // not extend the simulator's last_active().
    sim.schedule_for(aff, deadline, [this, &cond, seq, &s = sim,
                                     w = std::weak_ptr<char>(live)]() {
        if (w.expired())
            return s.mark_idle(); // process already destroyed
        if (parkedOn != &cond || waitSeq != seq)
            return s.mark_idle(); // already woken (maybe parked again)
        auto it = std::find(cond.parked.begin(), cond.parked.end(),
                            this);
        if (it == cond.parked.end())
            return s.mark_idle(); // a notification this tick won
        cond.parked.erase(it);
        parkedOn = nullptr;
        blockedTicks += sim.now() - parkStart;
        timedOut = true;
        resume_from_event();
    });

    Fiber::yield();
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
                            [p]() { p->resume_from_event(); });
    }
}

} // namespace ap::sim
