/**
 * @file
 * Fleet serving benchmark: a seeded stream of mixed-registry tenants
 * on one DGX-2.
 *
 * A multi-tenant fabric is the serving-time counterpart of the
 * paper's per-application study: instead of one workload owning the
 * machine, a stream of jobs (every registry application, 2-8 GPUs
 * each, priorities, deadlines) is admitted, placed on baseboard
 * planes, and served with a PROACT config elected per (workload,
 * gpus, share) from the profiler cache. The whole pipeline is
 * deterministic, and this harness proves it: the identical stream is
 * served twice on fresh sessions and the per-tenant percentile
 * tables must match byte for byte.
 *
 * Usage: fleet_serving [--jobs N] [--seed S]
 *
 * Output is the percentile table plus machine-readable JSON
 * (BENCH_fleet.json, or $PROACT_BENCH_JSON) for CI artifacts.
 * Acceptance (ISSUE): >= 32 mixed jobs on the 16-GPU DGX-2, every
 * per-tenant record bit-identical across the two serves, and
 * per-tenant p50/p95/p99 latency reported.
 */

#include "bench/bench_common.hh"

#include "fleet/fleet_session.hh"
#include "fleet/job.hh"
#include "system/platform.hh"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

using namespace proact;
using namespace proact::fleet;

int
main(int argc, char **argv)
{
    int num_jobs = 48;
    std::uint64_t seed = 7;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--jobs")
            num_jobs = std::atoi(argv[i + 1]);
        else if (flag == "--seed")
            seed = static_cast<std::uint64_t>(
                std::atoll(argv[i + 1]));
    }

    ArrivalModel model;
    model.seed = seed;
    model.numJobs = num_jobs;
    const std::vector<JobSpec> jobs = generateJobStream(model);

    const PlatformSpec platform = dgx2Platform();
    std::cout << "Fleet serving: " << jobs.size()
              << " mixed-registry jobs on " << platform.name
              << " (seed " << seed << ")\n\n";

    // Two serves on fresh sessions: determinism is a property of the
    // pipeline, not of a warmed cache.
    FleetSession first(platform);
    const FleetReport run1 = first.serve(jobs);
    FleetSession second(platform);
    const FleetReport run2 = second.serve(jobs);

    const std::string table1 = run1.percentileTable();
    const bool tables_match = table1 == run2.percentileTable();
    bool tenants_match = run1.tenants.size() == run2.tenants.size();
    for (std::size_t i = 0;
         tenants_match && i < run1.tenants.size(); ++i) {
        const TenantRecord &a = run1.tenants[i];
        const TenantRecord &b = run2.tenants[i];
        tenants_match = a.job.id == b.job.id
            && a.admitted == b.admitted
            && a.serviceTicks == b.serviceTicks
            && a.latency == b.latency;
    }

    std::cout << table1 << "\n";
    std::cout << "makespan " << run1.makespan / ticksPerMillisecond
              << "ms  throughput " << run1.throughputJobsPerSec
              << " jobs/s  payload " << run1.payloadGBps
              << " GB/s  utilization " << run1.fabricUtilization
              << "\n";
    std::cout << "election: " << run1.electionSweeps << " sweeps, "
              << run1.electionCacheHits << " cache hits\n";
    std::cout << "admission: " << run1.admitted << " admitted, "
              << run1.deferredCapacity << " capacity deferrals, "
              << run1.deferredCongestion << " congestion deferrals, "
              << run1.forcedAdmissions << " forced\n";

    const bool enough_jobs =
        run1.tenants.size() >= 32
        && platform.numGpus == 16;
    const bool percentiles_ok =
        run1.p50 > 0 && run1.p95 >= run1.p50 && run1.p99 >= run1.p95;
    const bool deterministic = tables_match && tenants_match;
    const bool pass = enough_jobs && percentiles_ok && deterministic;

    std::ostringstream json;
    json << "{\n  \"report\": "
         << run1.toJson(platform.name, seed)
         << ",\n  \"acceptance\": {\n"
         << "    \"jobs_ok\": " << (enough_jobs ? "true" : "false")
         << ",\n    \"percentiles_ok\": "
         << (percentiles_ok ? "true" : "false")
         << ",\n    \"deterministic\": "
         << (deterministic ? "true" : "false") << ",\n    \"pass\": "
         << (pass ? "true" : "false") << "\n  }\n}\n";

    const std::string path =
        bench::writeBenchJson("BENCH_fleet.json", json.str());

    std::cout << "\nacceptance: " << run1.tenants.size()
              << " jobs (need >= 32), percentile output "
              << (deterministic ? "bit-identical" : "DIVERGES")
              << " across two serves\n"
              << "JSON written to " << path << "\n";
    return pass ? 0 : 1;
}
