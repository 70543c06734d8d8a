#include "fleet/elector.hh"

#include "proact/profiler.hh"
#include "proact/reprofiler.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

#include <utility>

namespace proact::fleet {

namespace {

/**
 * Scale shift of the short profiling instance. The election
 * optimizes communication ratios, which are scale-invariant by
 * construction, so a heavily scaled-down instance elects the same
 * winner at a fraction of the cost.
 */
constexpr int electionScaleShift = 6;

} // namespace

StrategyElector::StrategyElector(PlatformSpec platform)
    : _platform(std::move(platform))
{
}

Election
StrategyElector::elect(const std::string &workload, int gpus,
                       int share_count)
{
    if (gpus < 2)
        fatalError("StrategyElector: need >= 2 GPUs, got ", gpus);
    if (share_count < 1)
        fatalError("StrategyElector: bad share count ", share_count);

    _stats.inc("elect.requests");
    const std::string key = workload + "|" + std::to_string(gpus)
        + "|" + std::to_string(share_count);
    if (const auto it = _cache.find(key); it != _cache.end()) {
        _stats.inc("elect.cache_hits");
        Election hit = it->second;
        hit.cacheHit = true;
        hit.sweepCost = 0; // Memoized result: nothing was measured.
        return hit;
    }

    // Cache miss: narrowed sweep on the tenant's fabric slice. The
    // slice is the full platform at the requested GPU count with the
    // plane's per-GPU bandwidth split across its tenants — sharing
    // shifts the compute/communication balance, so a shared slice
    // may elect a different granularity than an exclusive one.
    _stats.inc("elect.sweeps");
    PlatformSpec slice = _platform.withGpuCount(gpus);
    slice.fabric.perGpuBidirBandwidth /=
        static_cast<double>(share_count);

    // The window sits around the default config; PROACT-inline may
    // win outright.
    Profiler::Options opts =
        AdaptiveReprofiler::narrowedOptions(TransferConfig{}, {});
    opts.includeInline = true;

    Profiler profiler(slice, opts);
    auto instance = makeWorkload(workload, electionScaleShift);
    instance->setup(gpus);
    const ProfileResult result = profiler.profile(*instance);
    _stats.inc("elect.candidates",
               static_cast<double>(result.entries.size()) + 1.0);

    Election election;
    election.config = result.best;
    election.sweepCost = result.sweepTicks;
    election.paradigm =
        result.best.mechanism == TransferMechanism::Inline
        ? Paradigm::ProactInline
        : Paradigm::ProactDecoupled;
    _cache.emplace(key, election);
    return election;
}

} // namespace proact::fleet
