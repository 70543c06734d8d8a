#include "proact/profiler.hh"

#include "proact/runtime.hh"
#include "sim/logging.hh"
#include "sim/run_pool.hh"
#include "system/multi_gpu_system.hh"

#include <limits>

namespace proact {

ProfileEntry
ProfileResult::bestDecoupled() const
{
    if (entries.empty())
        fatalError("ProfileResult: empty sweep");
    const ProfileEntry *best = &entries.front();
    for (const auto &e : entries) {
        if (e.ticks < best->ticks)
            best = &e;
    }
    return *best;
}

Profiler::Profiler(PlatformSpec platform)
    : Profiler(std::move(platform), Options{})
{
}

Profiler::Profiler(PlatformSpec platform, Options options)
    : _platform(std::move(platform)), _options(std::move(options))
{
}

Tick
Profiler::measure(Workload &workload, const TransferConfig &config)
{
    MultiGpuSystem system(_platform);
    system.setFunctional(false);

    ProactRuntime::Options opts;
    opts.config = config;
    opts.maxIterations = _options.profileIterations;

    // Fault-aware sweep: reproduce the (observed or scripted) fabric
    // conditions on the candidate's fresh system.
    if (!_options.faults.empty()) {
        system.installFaults(_options.faults);
        opts.config.retry = _options.retry;
        opts.config.retry.enabled = true;
    }
    if (_options.reroute)
        system.enableReroute();
    else if (_options.health)
        system.enableHealth();

    ProactRuntime runtime(system, opts);
    return runtime.run(workload);
}

ProfileResult
Profiler::profile(Workload &workload)
{
    if (workload.numGpus() != _platform.numGpus)
        fatalError("Profiler: workload set up for ",
                   workload.numGpus(), " GPUs, platform has ",
                   _platform.numGpus);

    ProfileResult result;
    Tick best_ticks = std::numeric_limits<Tick>::max();

    // Largest per-GPU partition of any iteration determines the
    // chunk-count guard.
    std::uint64_t max_partition = 0;
    for (const std::uint64_t bytes : workload.peakBytesProduced())
        max_partition = std::max(max_partition, bytes);

    // Enumerate the candidate space up front so serial and parallel
    // sweeps measure the identical list in the identical order.
    std::vector<TransferConfig> candidates;
    for (const auto mech : _options.mechanisms) {
        for (const auto chunk : _options.chunkSizes) {
            if (max_partition / chunk
                    > static_cast<std::uint64_t>(
                          _options.maxChunksPerGpu)) {
                continue;
            }
            for (const auto threads : _options.threadCounts) {
                TransferConfig config;
                config.mechanism = mech;
                config.chunkBytes = chunk;
                config.transferThreads = threads;
                candidates.push_back(config);
            }
        }
    }

    const int requested =
        _options.shards > 0 ? _options.shards : envSimShards();
    const std::size_t workers = std::min<std::size_t>(
        requested > 1 && _options.sweepFactory ? requested : 1,
        candidates.empty() ? 1 : candidates.size());

    std::vector<Tick> measured(candidates.size(), 0);
    if (workers <= 1) {
        for (std::size_t i = 0; i < candidates.size(); ++i)
            measured[i] = measure(workload, candidates[i]);
    } else {
        // Each worker measures on its own workload instance (fresh
        // system per candidate as always); ticks land in sweep order
        // so the fold below is bit-identical to the serial path.
        runIndexed(candidates.size(), static_cast<int>(workers),
                   [&]() -> IndexTask {
            std::shared_ptr<Workload> local =
                _options.sweepFactory(_platform.numGpus);
            if (!local)
                fatalError("Profiler: sweep factory returned null");
            return [this, local, &measured, &candidates](
                       std::size_t i) {
                measured[i] = measure(*local, candidates[i]);
            };
        });
    }

    for (std::size_t i = 0; i < candidates.size(); ++i) {
        result.entries.push_back({candidates[i], measured[i]});
        result.sweepTicks += measured[i];
        if (measured[i] < best_ticks) {
            best_ticks = measured[i];
            result.best = candidates[i];
        }
    }

    if (_options.includeInline) {
        TransferConfig config;
        config.mechanism = TransferMechanism::Inline;
        result.inlineTicks = measure(workload, config);
        result.sweepTicks += result.inlineTicks;
        if (result.inlineTicks < best_ticks) {
            best_ticks = result.inlineTicks;
            result.best = config;
        }
    }

    result.bestTicks = best_ticks;
    return result;
}

} // namespace proact
