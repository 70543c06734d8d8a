/**
 * @file
 * PROACT transfer configuration (the profiler's search space).
 *
 * A configuration is the triple the paper's Table II reports per
 * application and platform: transfer scheme (inline vs. decoupled),
 * decoupled mechanism (polling vs. CDP vs. future hardware), transfer
 * granularity, and transfer thread count.
 *
 * This header also holds the fault stack's only environment reads:
 * the PROACT_FAULTS family and PROACT_NODES (see "Environment knobs"
 * below). Every other fault, health, checkpoint and recovery setting
 * is set in code.
 */

#ifndef PROACT_PROACT_CONFIG_HH
#define PROACT_PROACT_CONFIG_HH

#include "faults/fault_plan.hh"
#include "faults/retry.hh"
#include "sim/types.hh"
#include "system/platform.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace proact {

/** How ready chunks travel to peer GPUs (paper Sec. III-C). */
enum class TransferMechanism
{
    /** P2P stores issued directly from producer threads. */
    Inline,

    /** Persistent warp-specialized kernel polling readiness bitmaps. */
    Polling,

    /** CUDA Dynamic Parallelism child kernel per ready chunk. */
    Cdp,

    /** Proposed hardware agent (Sec. III-D): counters and transfer
     * triggering in dedicated hardware, no SM overhead. */
    Hardware,
};

std::string mechanismName(TransferMechanism mechanism);

/** Short Table II-style code: I, Poll, CDP, HW. */
std::string mechanismCode(TransferMechanism mechanism);

/** One point in the profiler's configuration space. */
struct TransferConfig
{
    TransferMechanism mechanism = TransferMechanism::Cdp;

    /** Decoupled transfer granularity (paper range: 4 kB - 16 MB). */
    std::uint64_t chunkBytes = 64 * KiB;

    /** Transfer threads (paper range: 32 - 8192). */
    std::uint32_t transferThreads = 256;

    /**
     * Delivery acknowledgement / retry policy for the push traffic.
     * Disabled by default (a fault-free fabric needs none); must be
     * enabled when the system has a FaultPlan installed.
     */
    RetryPolicy retry;

    /** Table II-style rendering, e.g. "D 128kB 2048 Poll" or "I". */
    std::string toString() const;

    bool decoupled() const
    {
        return mechanism != TransferMechanism::Inline;
    }
};

/** Human-readable byte size (4kB, 1MB, ...). */
std::string formatBytes(std::uint64_t bytes);

/** Paper's studied chunk-granularity sweep: 4 kB ... 16 MB. */
std::vector<std::uint64_t> chunkSizeSweep();

/** Paper's studied transfer-thread sweep: 32 ... 8192. */
std::vector<std::uint32_t> threadCountSweep();

/** @{ @name Environment knobs
 *
 * Benchmarks enable fault injection without recompiling. PROACT_FAULTS
 * is the master switch; every fault-adaptive layer behind it (link
 * health, rerouting, adaptive re-profiling) is armed whenever it is on.
 * Finer control — checkpoints, the device watchdog, recovery — goes
 * through Session::RunOptions or fleet::FleetSession::Options.
 *  - PROACT_FAULTS=1            master switch (0/unset = off)
 *  - PROACT_FAULT_DROP_RATE     delivery-loss probability
 *                               (default 0.01, clamped to [0, 1])
 *  - PROACT_FAULT_DEGRADE       fabric bandwidth fraction removed for
 *                               the whole run (default 0, clamp
 *                               [0, 0.95]; 0 = no degradation window)
 *  - PROACT_FAULT_SEED          drop-decision seed (default 1)
 *  - PROACT_RETRY_MAX_ATTEMPTS  retry budget before the reliable
 *                               fallback (default 5, clamp [1, 16])
 *  - PROACT_NODES               chassis count for environment-built
 *                               platforms (default 1 = one DGX-2,
 *                               clamp [1, 64])
 */

/** Whether PROACT_FAULTS enables fault injection. */
bool envFaultsEnabled();

/**
 * Fault schedule from the environment: empty when disabled, else a
 * whole-run delivery-drop episode (and, with PROACT_FAULT_DEGRADE, a
 * whole-run bandwidth-degradation episode), seeded by
 * PROACT_FAULT_SEED.
 */
FaultPlan envFaultPlan();

/**
 * Retry policy matching envFaultPlan(): enabled iff faults are, with
 * the PROACT_RETRY_MAX_ATTEMPTS budget applied and reroute-aware
 * retry after two lost attempts.
 */
RetryPolicy envRetryPolicy();

/** Node count from PROACT_NODES. */
int envNodes();

/**
 * Environment-selected platform: one DGX-2 when PROACT_NODES is
 * unset or 1, otherwise multiNodePlatform(envNodes(), gpus_per_node).
 */
PlatformSpec envMultiNodePlatform(int gpus_per_node = 16);
/** @} */

} // namespace proact

#endif // PROACT_PROACT_CONFIG_HH
