/**
 * @file
 * Device-loss recovery benchmark: a seeded campaign of mid-run GPU
 * deaths across a multi-tenant DGX-2 serve.
 *
 * The fleet serves the same seeded job stream three times:
 *
 *  1. a fault-free baseline with recovery armed (checkpoints on, so
 *     the checkpoint overhead is inside the baseline, not the gate);
 *  2. the campaign: every Nth job loses one GPU halfway through its
 *     baseline service time — the watchdog declares the device LOST,
 *     the fleet quarantines it, and the job restarts from its latest
 *     checkpoint on surviving GPUs;
 *  3. the identical campaign on a fresh session, which must produce
 *     a bit-identical report (recovery events included).
 *
 * Usage: fault_recovery [--jobs N] [--seed S]
 *
 * Output is the percentile table plus recovery telemetry and
 * machine-readable JSON (BENCH_recovery.json, or $PROACT_BENCH_JSON).
 * Acceptance (ISSUE): the campaign completes every job, at least one
 * device loss is recovered, the double serve is bit-identical, and
 * the recovered jobs' p95 completion latency stays within 2.5x their
 * fault-free baseline.
 */

#include "bench/bench_common.hh"

#include "faults/fault_plan.hh"
#include "fleet/fleet_session.hh"
#include "fleet/job.hh"
#include "system/platform.hh"

#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace proact;
using namespace proact::fleet;

namespace {

/** Every victimStride-th job loses a GPU on its first attempt. */
constexpr int victimStride = 6;

bool
isVictim(const JobSpec &job)
{
    return job.id % victimStride == 1;
}

} // namespace

int
main(int argc, char **argv)
{
    int num_jobs = 24;
    std::uint64_t seed = 7;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--jobs")
            num_jobs = std::atoi(argv[i + 1]);
        else if (flag == "--seed")
            seed = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
    }

    ArrivalModel model;
    model.seed = seed;
    model.numJobs = num_jobs;
    const std::vector<JobSpec> jobs = generateJobStream(model);

    const PlatformSpec platform = dgx2Platform();
    std::cout << "Fault recovery: " << jobs.size()
              << " mixed-registry jobs on " << platform.name
              << " (seed " << seed << "), device loss for every "
              << victimStride << "th job\n\n";

    FleetSession::Options base_options;
    base_options.recovery.enabled = true;

    // Fault-free baseline (checkpoints still on: the gate measures
    // the cost of dying, not the cost of being ready to).
    FleetSession baseline_session(platform, base_options);
    const FleetReport baseline = baseline_session.serve(jobs);

    // The campaign kills one GPU halfway through each victim's
    // measured baseline service, so every loss lands mid-run
    // regardless of how long the tenant actually executes.
    std::map<int, Tick> baseline_service;
    std::map<int, Tick> baseline_latency;
    for (const TenantRecord &t : baseline.tenants) {
        baseline_service[t.job.id] = t.serviceTicks;
        baseline_latency[t.job.id] = t.latency;
    }

    FleetSession::Options campaign_options = base_options;
    campaign_options.faultPlanFor =
        [&baseline_service](const JobSpec &job, int attempt) {
            FaultPlan plan;
            if (attempt != 0 || !isVictim(job))
                return plan;
            const Tick mid = baseline_service.at(job.id) / 2;
            plan.downGpu(mid, maxTick, job.id % job.gpus);
            return plan;
        };

    // Two serves on fresh sessions: recovery must not cost the fleet
    // its bit-for-bit determinism.
    FleetSession first(platform, campaign_options);
    const FleetReport run1 = first.serve(jobs);
    FleetSession second(platform, campaign_options);
    const FleetReport run2 = second.serve(jobs);

    const std::string table1 = run1.percentileTable();
    const bool deterministic = table1 == run2.percentileTable()
        && run1.toJson(platform.name, seed)
            == run2.toJson(platform.name, seed);

    std::cout << table1 << "\n";
    std::cout << "makespan " << run1.makespan / ticksPerMillisecond
              << "ms (baseline "
              << baseline.makespan / ticksPerMillisecond
              << "ms)  quarantined " << run1.quarantinedGpus
              << " of " << platform.numGpus << " GPUs\n";
    std::cout << "recoveries: " << run1.recoveries.size()
              << "  lost-work p50/p95 "
              << run1.lostWorkP50 / ticksPerMicrosecond << "/"
              << run1.lostWorkP95 / ticksPerMicrosecond
              << "us  recovery-latency p50/p95 "
              << run1.recoveryLatencyP50 / ticksPerMicrosecond << "/"
              << run1.recoveryLatencyP95 / ticksPerMicrosecond
              << "us\n";
    for (const RecoveryEvent &ev : run1.recoveries) {
        std::cout << "  job" << ev.jobId << " attempt" << ev.attempt
                  << " lost gpu" << ev.lostGpu << " resumed at iter "
                  << ev.resumeIteration << " (lost "
                  << ev.lostWork / ticksPerMicrosecond << "us)\n";
    }

    // Gate: recovered jobs' p95 completion latency vs the identical
    // jobs served fault-free.
    std::set<int> recovered_ids;
    for (const RecoveryEvent &ev : run1.recoveries)
        recovered_ids.insert(ev.jobId);
    std::vector<Tick> recovered_latency;
    std::vector<Tick> recovered_baseline;
    bool all_complete = run1.tenants.size() == jobs.size();
    for (const TenantRecord &t : run1.tenants) {
        all_complete = all_complete && !t.run.aborted;
        if (recovered_ids.count(t.job.id)) {
            recovered_latency.push_back(t.latency);
            recovered_baseline.push_back(
                baseline_latency.at(t.job.id));
        }
    }
    const Tick p95_faulted =
        FleetReport::percentile(recovered_latency, 95.0);
    const Tick p95_clean =
        FleetReport::percentile(recovered_baseline, 95.0);
    const double p95_ratio = p95_clean > 0
        ? static_cast<double>(p95_faulted)
            / static_cast<double>(p95_clean)
        : 0.0;

    const bool recovered_any = !run1.recoveries.empty();
    const bool p95_ok = recovered_any && p95_ratio > 0.0
        && p95_ratio <= 2.5;
    const bool pass =
        all_complete && recovered_any && deterministic && p95_ok;

    std::cout << "\nrecovered-job p95: "
              << p95_faulted / ticksPerMicrosecond << "us vs "
              << p95_clean / ticksPerMicrosecond
              << "us fault-free (ratio " << p95_ratio
              << ", gate 2.5)\n";

    std::ostringstream json;
    json << "{\n  \"report\": " << run1.toJson(platform.name, seed)
         << ",\n  \"baseline_makespan_ticks\": " << baseline.makespan
         << ",\n  \"recovered_p95_ticks\": " << p95_faulted
         << ",\n  \"recovered_baseline_p95_ticks\": " << p95_clean
         << ",\n  \"recovered_p95_ratio\": " << p95_ratio
         << ",\n  \"acceptance\": {\n"
         << "    \"all_complete\": "
         << (all_complete ? "true" : "false")
         << ",\n    \"recovered_any\": "
         << (recovered_any ? "true" : "false")
         << ",\n    \"deterministic\": "
         << (deterministic ? "true" : "false")
         << ",\n    \"p95_ok\": " << (p95_ok ? "true" : "false")
         << ",\n    \"pass\": " << (pass ? "true" : "false")
         << "\n  }\n}\n";

    const std::string path =
        bench::writeBenchJson("BENCH_recovery.json", json.str());

    std::cout << "acceptance: "
              << (all_complete ? "all jobs completed" : "JOBS LOST")
              << ", " << run1.recoveries.size()
              << " recoveries (need >= 1), report "
              << (deterministic ? "bit-identical" : "DIVERGES")
              << " across two serves, p95 ratio "
              << (p95_ok ? "within" : "EXCEEDS") << " gate\n"
              << "JSON written to " << path << "\n";
    return pass ? 0 : 1;
}
