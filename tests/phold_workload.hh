/**
 * @file
 * A PHOLD-style workload for the event-kernel tests (test_eventq,
 * test_shardq): per-timeline event chains whose order-sensitive
 * digest makes any mis-ordering visible.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/eventq.hh"

namespace ap::test
{

using sim::Simulator;

/** The lookahead the kernel tests build their kernels with. */
inline constexpr Tick kLookahead = 100;

/** xorshift64 — a deterministic per-test value stream. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * A PHOLD-style workload over @p cells logical timelines: every cell
 * starts one event chain; each firing updates the cell's private
 * state and reschedules onto a pseudo-random cell with a delay of at
 * least the lookahead (self-sends may be shorter). Order-sensitive
 * per-cell digests make any mis-ordering visible.
 */
struct Workload
{
    explicit Workload(int cells)
        : state(static_cast<std::size_t>(cells)),
          fired(static_cast<std::size_t>(cells))
    {
    }

    void
    start(Simulator &sim, int cells, int hops)
    {
        for (int c = 0; c < cells; ++c)
            sim.schedule_for(
                c, static_cast<Tick>(c % 7),
                [this, &sim, c, cells, hops] {
                    step(sim, c, cells, hops);
                });
    }

    void
    step(Simulator &sim, int c, int cells, int hops)
    {
        auto idx = static_cast<std::size_t>(c);
        state[idx] =
            mix(state[idx] + sim.now() * 31 +
                static_cast<std::uint64_t>(c) + 1);
        if (++fired[idx] >= hops)
            return;
        std::uint64_t r = state[idx];
        int next = static_cast<int>(
            r % static_cast<std::uint64_t>(cells));
        Tick delay = next == c
                         ? 1 + (r >> 8) % 40
                         : kLookahead + (r >> 8) % 200;
        sim.schedule_after_for(next, delay, [this, &sim, next,
                                             cells, hops] {
            step(sim, next, cells, hops);
        });
    }

    std::uint64_t
    digest() const
    {
        std::uint64_t d = 0xcbf29ce484222325ull;
        for (std::uint64_t s : state)
            d = mix(d ^ s);
        return d;
    }

    std::vector<std::uint64_t> state;
    std::vector<int> fired;
};

} // namespace ap::test
