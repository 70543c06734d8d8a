/**
 * @file
 * Online mechanism re-selection for the fault-adaptive runtime.
 *
 * The profiler's {mechanism, granularity, thread-count} pick is only
 * optimal for the platform it was measured on — and a fabric that
 * just lost a link is a different platform. The AdaptiveReprofiler
 * subscribes to LinkHealthMonitor state changes and, at the next
 * region (iteration) boundary, re-runs a *narrowed* profiler sweep
 * with the observed fault state reproduced on each candidate's fresh
 * system (Profiler::Options::faults = monitor.toFaultPlan()), then
 * hot-swaps the runtime's transfer config to the new winner. The
 * sweep is narrowed to a window around the current config (and, by
 * default, the current mechanism) so the online cost stays a small
 * fraction of a full compile-time sweep.
 *
 * Nested profiling runs execute on their own event queues while the
 * outer simulation is between events, so they cost zero simulated
 * time and preserve tick-for-tick determinism.
 */

#ifndef PROACT_PROACT_REPROFILER_HH
#define PROACT_PROACT_REPROFILER_HH

#include "proact/config.hh"
#include "proact/profiler.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

#include <functional>
#include <memory>
#include <vector>

namespace proact {

class MultiGpuSystem;

/** Re-runs narrowed fault-aware sweeps on link-state changes. */
class AdaptiveReprofiler
{
  public:
    /** Builds a fresh workload instance for a profiling run. */
    using WorkloadFactory =
        std::function<std::unique_ptr<Workload>(int num_gpus)>;

    /**
     * Explicit sweep axes; when empty, a window of two entries either
     * side of the current config's position in the paper sweeps
     * (chunkSizeSweep() / threadCountSweep()) is used. Every sweep
     * runs one iteration per candidate and keeps a decoupled
     * config's mechanism.
     */
    struct Options
    {
        std::vector<std::uint64_t> chunkSizes;
        std::vector<std::uint32_t> threadCounts;
    };

    /**
     * Subscribe to @p system's health monitor (enableHealth must have
     * been called) and adapt from @p initial.
     */
    AdaptiveReprofiler(MultiGpuSystem &system, WorkloadFactory factory,
                       TransferConfig initial, Options options);

    /** Same, with default Options (overload: a nested class's member
     * initializers cannot appear in a default argument). */
    AdaptiveReprofiler(MultiGpuSystem &system, WorkloadFactory factory,
                       TransferConfig initial);

    AdaptiveReprofiler(const AdaptiveReprofiler &) = delete;
    AdaptiveReprofiler &operator=(const AdaptiveReprofiler &) = delete;

    /**
     * Narrowed sweep space centred on @p around: the window of
     * chunk sizes / thread counts @p options describes, around's
     * mechanism when it is decoupled (the default mechanism set
     * otherwise), with inline excluded. Shared machinery: the
     * reprofiler adds the observed fault state on top, and the fleet
     * strategy elector uses it for cache-miss elections.
     */
    static Profiler::Options narrowedOptions(
        const TransferConfig &around, const Options &options);

    /**
     * Called by the runtime at a region boundary: when a link-state
     * change is pending, run the narrowed fault-aware sweep and adopt
     * the winner.
     *
     * @return true iff the active config changed (the caller should
     *         re-read current()).
     */
    bool refresh();

    /** The currently best-known config. */
    const TransferConfig &current() const { return _current; }

    /** Whether a link-state change awaits the next refresh(). */
    bool dirty() const { return _dirty; }

    /**
     * Stats: reprofile.sweeps (narrowed sweeps run), reprofile.swaps
     * (sweeps that changed the config), reprofile.candidates
     * (configurations measured online), reprofile.sweep_ticks
     * (simulated cost of all sweeps; the live run is not charged).
     */
    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }

  private:
    MultiGpuSystem &_system;
    WorkloadFactory _factory;
    TransferConfig _current;
    Options _options;
    StatSet _stats;
    bool _dirty = false;

    Profiler::Options sweepOptions() const;
};

} // namespace proact

#endif // PROACT_PROACT_REPROFILER_HH
