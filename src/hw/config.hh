/**
 * @file
 * Machine configuration: Table 1 specifications plus the model's
 * knobs. The emulator's costs are not configured here: every cost
 * with a Figure 6 item comes from the machine's one
 * mlsim::Params::ap1000_plus() table (Machine::costs()); the three
 * below have none.
 */

#ifndef AP_HW_CONFIG_HH
#define AP_HW_CONFIG_HH

#include <algorithm>
#include <cstddef>
#include <string>

#include "base/types.hh"
#include "obs/span.hh"
#include "sim/fault.hh"

namespace ap::hw
{

/** Time, in microseconds, of the OS interrupt that services an MSC+
 *  queue refill or a page fault during a transfer. */
inline constexpr double interrupt_us = 20.0;
/** Processor time, in microseconds, to issue one hardware remote
 *  load or store. */
inline constexpr double remote_access_issue_us = 0.04;
/** Processor time, in microseconds, of one local
 *  communication-register access. */
inline constexpr double commreg_access_us = 0.08;

/**
 * Recovery policy for blocking PUT/GET completion waits. Disabled by
 * default (timeoutUs = 0): on a fault-free machine the hardware
 * guarantees delivery and the runtime waits unboundedly, exactly as
 * the paper assumes. Under a fault plan the runtime arms timeouts,
 * reissues lost transfers, and surfaces a CommError once the retry
 * budget is spent.
 */
struct RetryPolicy
{
    /** Completion-wait timeout in microseconds; 0 disables. */
    double timeoutUs = 0.0;
    /** Reissue attempts after the first try. */
    int maxRetries = 8;
    /** Per-attempt timeout multiplier (exponential backoff). */
    static constexpr double backoff_factor = 2.0;
    /** Backoff saturation cap, as a multiple of timeoutUs. */
    static constexpr double timeout_cap_factor = 8.0;
    /**
     * Flag-wait watchdog deadline in microseconds; 0 disables. A
     * blocked flag/ack wait past this deadline raises a typed
     * CommError carrying a machine-wide wait-graph dump instead of
     * hanging forever. Independent of enabled(): the watchdog is
     * useful even when retries are off.
     */
    double watchdogUs = 0.0;

    bool enabled() const { return timeoutUs > 0.0; }
    bool watchdog_enabled() const { return watchdogUs > 0.0; }

    /** Timeout of the @p attempt-th reissue (0 = first try),
     *  backed off exponentially and saturated at the cap. */
    double
    attempt_timeout_us(int attempt) const
    {
        double cap = timeoutUs * timeout_cap_factor;
        double t = timeoutUs;
        for (int i = 0; i < attempt && t < cap; ++i)
            t *= backoff_factor;
        return std::min(t, cap);
    }
};

/** Full machine configuration (Table 1 plus model knobs). */
struct MachineConfig
{
    /** Number of cells; the real machine scales 4 - 1024. */
    int cells = 64;
    /** DRAM per cell. Real machine: 16 or 64 MB; model default is
     *  smaller so tests stay light. */
    std::size_t memBytesPerCell = 4 * 1024 * 1024;
    /** Processor clock (SuperSPARC, 50 MHz). */
    double clockMhz = 50.0;
    /** Peak MFLOPS per cell (Table 1). */
    double mflopsPerCell = 50.0;
    /** Write-through cache per cell (Table 1: 36 KB). */
    std::size_t cacheBytes = 36 * 1024;
    /** MSC+ command queue capacity in words (Section 4.1: 64). */
    int queueCapacityWords = 64;
    /** Initial ring buffer capacity per cell. */
    std::size_t ringBufferBytes = 256 * 1024;

    /**
     * Host worker threads driving the event kernel (sim/eventq.hh):
     * it runs min(N, cells) shards of contiguous cell blocks, one
     * drained inline, more under conservative windows. The result
     * does not depend on N: every run reproduces threads = 1 byte
     * for byte.
     */
    int threads = 1;

    /** Fault-injection plan; the default plan injects nothing and
     *  leaves every fast path untouched. */
    sim::FaultPlan faults;
    /** Retry/timeout policy for the runtime's completion waits. */
    RetryPolicy retry;

    /** Stack the reliable-delivery layer (net/reliable.hh) between
     *  the MSC+ and the T-net. Off by default: the paper's T-net is
     *  lossless, and benches measure the layer's overhead. */
    bool reliableNet = false;

    /** Causal span recording mode (obs/span.hh). The flight
     *  recorder is on by default: probes cost a POD ring store. */
    obs::SpanMode spanMode = obs::SpanMode::flight;
    /** When set, CommError postmortems also dump the merged flight
     *  rings as Chrome trace JSON to this path. */
    std::string postmortemOut = "";

    /** Peak system GFLOPS (Table 1: 0.2 - 51.2). */
    double
    system_gflops() const
    {
        return cells * mflopsPerCell / 1000.0;
    }

    /** @return the canonical AP1000+ configuration of Table 1. */
    static MachineConfig ap1000_plus(int cells = 64);
};

} // namespace ap::hw

#endif // AP_HW_CONFIG_HH
