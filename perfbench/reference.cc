/**
 * @file
 * The reference kernel the benchmark scales its host times by.
 *
 * A shared host runs the benchmark at a speed that drifts by tens of
 * percent over minutes as other tenants come and go, and the drift
 * slows every step of a workload alike. The reference is a small fixed
 * discrete-event loop of the simulator's own kind: a binary-heap event
 * queue, ucontext fibers switched with swapcontext, and a hash table
 * updated on every event. It is built from this directory only, so no
 * change to the simulator changes its work; its best time over a run
 * says how fast the host was during that run.
 */

#include <ucontext.h>

#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "harness.hh"

namespace pb
{
namespace
{

constexpr int ref_fibers = 64;
constexpr std::size_t ref_stack_bytes = 64 * 1024;
constexpr int ref_warm_events = 5000;
constexpr int ref_timed_events = 15000;

struct Reference
{
    ucontext_t loop{};
    std::vector<ucontext_t> fibers =
        std::vector<ucontext_t>(ref_fibers);
    std::vector<std::unique_ptr<unsigned char[]>> stacks;
    std::priority_queue<std::pair<std::uint64_t, int>,
                        std::vector<std::pair<std::uint64_t, int>>,
                        std::greater<>>
        events;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::uint64_t now = 0;
    std::uint64_t state = 1;
    int current = 0;
};

Reference &
reference()
{
    static Reference r;
    return r;
}

/** Each fiber: touch the table, schedule its next event, yield. */
void
fiber_main()
{
    Reference &r = reference();
    for (;;) {
        for (int i = 0; i < 4; ++i) {
            r.state = mix64(r.state);
            r.table[r.state % 65536] += r.state;
        }
        r.events.push({r.now + 1 + r.state % 1000, r.current});
        swapcontext(&r.fibers[static_cast<std::size_t>(r.current)],
                    &r.loop);
    }
}

void
run_events(Reference &r, int count)
{
    for (int e = 0; e < count; ++e) {
        auto [when, f] = r.events.top();
        r.events.pop();
        r.now = when;
        r.current = f;
        if (swapcontext(&r.loop, &r.fibers[static_cast<std::size_t>(f)]) !=
            0)
            ap::panic("reference: swapcontext failed");
    }
}

} // namespace

double
reference_seconds()
{
    Reference &r = reference();
    if (r.stacks.empty()) {
        for (int f = 0; f < ref_fibers; ++f) {
            r.stacks.emplace_back(new unsigned char[ref_stack_bytes]);
            ucontext_t &uc = r.fibers[static_cast<std::size_t>(f)];
            if (getcontext(&uc) != 0)
                ap::panic("reference: getcontext failed");
            uc.uc_stack.ss_sp = r.stacks.back().get();
            uc.uc_stack.ss_size = ref_stack_bytes;
            uc.uc_link = nullptr;
            makecontext(&uc, fiber_main, 0);
            r.events.push({static_cast<std::uint64_t>(f), f});
        }
    }
    // Untimed: bring the reference's own data back into the caches
    // the workload's pass has just used.
    run_events(r, ref_warm_events);
    double t0 = host_now();
    run_events(r, ref_timed_events);
    return host_now() - t0;
}

} // namespace pb
