/**
 * @file
 * Fault-adaptation ablation: what does each layer of the adaptive
 * runtime buy when a link dies mid-run?
 *
 * A 4-GPU pairwise-link Volta runs a workload while the 0->1 link
 * goes DOWN a quarter of the way into the (healthy) makespan and
 * never recovers. Three stacked configurations face the same fault
 * plan:
 *
 *   retry-only   acknowledged chunks, exponential backoff, reliable
 *                fallback after the attempt budget — every post-fault
 *                chunk to GPU 1 pays the full discovery latency.
 *   + reroute    the health monitor trips the link DOWN after a short
 *                loss streak and new sends detour via a relay GPU on
 *                physically distinct pair links.
 *   + reprofile  a narrowed online sweep re-tunes chunk size/threads
 *                for the detoured fabric; the runtime hot-swaps the
 *                config at the next iteration boundary.
 *
 * The acceptance bar (ISSUE): rerouting + reprofiling completes
 * strictly faster than retry-only under the identical fault plan.
 * Emits a machine-readable summary (ablation_reroute.json or
 * $PROACT_BENCH_JSON) uploaded as a CI artifact.
 */

#include "bench/bench_common.hh"

#include "faults/fault_plan.hh"
#include "health/link_health.hh"
#include "interconnect/rerouter.hh"
#include "proact/reprofiler.hh"

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

using namespace proact;
using namespace proact::bench;

namespace {

PlatformSpec
pairwiseVolta()
{
    PlatformSpec p = voltaPlatform();
    p.fabric.topology = FabricTopology::PairwiseLinks;
    return p;
}

TransferConfig
baseConfig()
{
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 64 * KiB;
    config.transferThreads = 2048;
    config.retry.enabled = true;
    config.retry.maxAttempts = 5;
    return config;
}

struct Outcome
{
    Tick ticks = 0;
    double retried = 0;
    double fallbacks = 0;
    double detours = 0;
    double sweeps = 0;
};

Outcome
runOnce(const std::string &app, std::uint64_t scale, Tick down_at,
        bool reroute, bool reprofile)
{
    auto workload = makeScaledWorkload(app, 4, scale);
    MultiGpuSystem system(pairwiseVolta());
    system.setFunctional(false);

    if (down_at != maxTick) {
        FaultPlan plan;
        plan.downLink(down_at, maxTick, 0, 1);
        system.installFaults(std::move(plan));
    }

    std::unique_ptr<AdaptiveReprofiler> reprofiler;
    if (reroute) {
        system.enableHealth();
        system.fabric().setRebooking(true);
        system.enableReroute();
    }
    if (reprofile) {
        // The sweep profiles the run's own input, as Session::run does:
        // a config tuned for another footprint can lose to retry-only.
        auto factory = [&](int gpus) {
            return makeScaledWorkload(app, gpus, scale);
        };
        reprofiler = std::make_unique<AdaptiveReprofiler>(
            system, factory, baseConfig());
    }

    ProactRuntime::Options options;
    options.config = baseConfig();
    options.reprofiler = reprofiler.get();
    ProactRuntime runtime(system, options);

    Outcome out;
    out.ticks = runtime.run(*workload);
    out.retried = runtime.stats().get("transfers.retried");
    out.fallbacks = runtime.stats().get("fallback.activations");
    if (const Rerouter *rr = system.rerouter()) {
        out.detours = rr->stats().get("reroute.detours")
            + rr->stats().get("reroute.splits");
    }
    if (reprofiler)
        out.sweeps = reprofiler->stats().get("reprofile.sweeps");
    return out;
}

} // namespace

int
main()
{
    const std::uint64_t scale = envFootprintScale();
    const std::string app = "Jacobi";

    // The link dies a quarter of the way into the healthy makespan.
    const Tick healthy = runOnce(app, scale, maxTick, false, false)
                             .ticks;
    const Tick down_at = healthy / 4;

    std::cout << "Ablation: fault-adaptive runtime layers ("
              << app << " on 4x Volta, pairwise links)\n"
              << "link gpu0->gpu1 DOWN at " << down_at / 1000
              << " ns, never recovers\n\n";

    std::cout << std::left << std::setw(22) << "configuration"
              << std::right << std::setw(12) << "slowdown"
              << std::setw(10) << "retries" << std::setw(10)
              << "fallbks" << std::setw(10) << "detours"
              << std::setw(8) << "sweeps" << "\n";

    std::ostringstream json;
    json << "{\n  \"bench\": \"ablation_reroute\",\n  \"app\": \""
         << app << "\",\n  \"down_at_ticks\": " << down_at
         << ",\n  \"rows\": [";
    bool first_row = true;

    auto row = [&](const std::string &label, const Outcome &out) {
        const double slowdown = static_cast<double>(out.ticks)
            / static_cast<double>(healthy);
        std::cout << std::left << std::setw(22) << label << std::right
                  << std::setw(11) << std::fixed
                  << std::setprecision(2) << slowdown << "x"
                  << std::setw(10)
                  << static_cast<long>(out.retried) << std::setw(10)
                  << static_cast<long>(out.fallbacks) << std::setw(10)
                  << static_cast<long>(out.detours) << std::setw(8)
                  << static_cast<long>(out.sweeps) << "\n";
        json << (first_row ? "" : ",") << "\n    {\"config\": \""
             << label << "\", \"ticks\": " << out.ticks
             << ", \"slowdown\": " << slowdown
             << ", \"retries\": " << static_cast<long>(out.retried)
             << ", \"fallbacks\": "
             << static_cast<long>(out.fallbacks)
             << ", \"detours\": " << static_cast<long>(out.detours)
             << ", \"sweeps\": " << static_cast<long>(out.sweeps)
             << "}";
        first_row = false;
    };

    row("healthy fabric", Outcome{healthy, 0, 0, 0, 0});
    const Outcome retry_only =
        runOnce(app, scale, down_at, false, false);
    row("retry-only", retry_only);
    const Outcome rerouted = runOnce(app, scale, down_at, true, false);
    row("+ reroute", rerouted);
    const Outcome adaptive = runOnce(app, scale, down_at, true, true);
    row("+ reroute+reprofile", adaptive);

    const bool pass = adaptive.ticks < retry_only.ticks;
    json << "\n  ],\n  \"acceptance\": {\n"
         << "    \"adaptive_beats_retry_only\": "
         << (pass ? "true" : "false") << ",\n    \"pass\": "
         << (pass ? "true" : "false") << "\n  }\n}\n";

    const std::string path =
        writeBenchJson("ablation_reroute.json", json.str());

    std::cout << "\nacceptance: reroute+reprofile "
              << (pass ? "beats" : "DOES NOT BEAT")
              << " retry-only ("
              << static_cast<double>(retry_only.ticks)
                     / static_cast<double>(adaptive.ticks)
              << "x faster)\nJSON written to " << path << "\n";
    return pass ? 0 : 1;
}
