/**
 * @file
 * End-to-end determinism: identical seeds and configurations must
 * produce identical simulated times, statistics and numerical results
 * across repeated runs, for every application, paradigm and transfer
 * mechanism — with and without the fault-adaptive stack armed. The
 * profiler's brute-force search depends on this (noise-free
 * comparisons between configurations).
 */

#include "harness/paradigm.hh"
#include "harness/session.hh"
#include "proact/runtime.hh"
#include "tests/run_digest.hh"
#include "tests/small_workloads.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

using namespace proact;
using namespace proact::test;

namespace {

/** voltaPlatform() with every directed pair on its own link. */
PlatformSpec
pairwiseVolta()
{
    PlatformSpec platform = voltaPlatform();
    platform.fabric.topology = FabricTopology::PairwiseLinks;
    return platform;
}

/** One paradigm execution: a paradigm and, for the decoupled
 * paradigm, the transfer mechanism its agents use. */
struct RunCase
{
    const char *name;
    Paradigm paradigm;
    TransferMechanism mechanism;
};

constexpr RunCase kRunCases[] = {
    {"cudaMemcpy", Paradigm::CudaMemcpy, TransferMechanism::Polling},
    {"UM", Paradigm::UnifiedMemory, TransferMechanism::Polling},
    {"Inline", Paradigm::ProactInline, TransferMechanism::Inline},
    {"Polling", Paradigm::ProactDecoupled, TransferMechanism::Polling},
    {"CDP", Paradigm::ProactDecoupled, TransferMechanism::Cdp},
    {"Hardware", Paradigm::ProactDecoupled,
     TransferMechanism::Hardware},
};

/** The four PROACT transfer mechanisms (Inline + three agents). */
constexpr RunCase kProactCases[] = {
    kRunCases[2], kRunCases[3], kRunCases[4], kRunCases[5]};

Session::RunOptions
timingOptions(TransferMechanism mechanism)
{
    Session::RunOptions options;
    options.functional = false;
    options.config.mechanism = mechanism;
    options.config.chunkBytes = 64 * KiB;
    options.config.transferThreads = 2048;
    return options;
}

std::string
runOnce(const PlatformSpec &platform, const std::string &app,
        const RunCase &rc)
{
    Session session(platform);
    auto workload = makeSmallWorkload(app);
    workload->setup(platform.numGpus);
    return runDigest(session.run(*workload, rc.paradigm,
                                 timingOptions(rc.mechanism)));
}

} // namespace

class DeterminismSweep
    : public ::testing::TestWithParam<
          std::tuple<bool, std::string, RunCase>>
{
};

TEST_P(DeterminismSweep, RepeatedRunsAreIdentical)
{
    const auto &[pairwise, app, rc] = GetParam();
    const PlatformSpec platform =
        pairwise ? pairwiseVolta() : voltaPlatform();
    EXPECT_EQ(runOnce(platform, app, rc), runOnce(platform, app, rc));
}

INSTANTIATE_TEST_SUITE_P(
    AppsByRunCase, DeterminismSweep,
    ::testing::Combine(::testing::Bool(),
                       ::testing::ValuesIn(smallWorkloadNames()),
                       ::testing::ValuesIn(kRunCases)),
    [](const auto &info) {
        std::string name =
            std::string(std::get<0>(info.param) ? "Pairwise_"
                                                : "Shared_")
            + std::get<1>(info.param) + "_"
            + std::get<2>(info.param).name;
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Determinism, FaultedReroutedRunsReplay)
{
    // The whole fault-adaptive stack live: a seeded random fault
    // plan, the retry ladder, link health classification, rerouting
    // and the device watchdog — every mechanism must replay bit for
    // bit.
    Session session(pairwiseVolta());
    const int gpus = session.platform().numGpus;
    int mech_index = 0;
    for (const RunCase &rc : kProactCases) {
        const std::uint64_t seed = deriveSeed(
            0x70646573u, static_cast<std::uint64_t>(mech_index++));
        auto run_once = [&] {
            auto workload = makeSmallWorkload("Jacobi");
            workload->setup(gpus);
            Session::RunOptions options = timingOptions(rc.mechanism);
            options.armFaults = true;
            RandomFaultOptions fopts;
            fopts.numEvents = 5;
            FaultPlan plan = randomFaultPlan(seed, gpus, fopts);
            // The random episodes are sparse against this workload's
            // sparse chunk traffic; a lossy wildcard window plus one
            // long outage guarantee drops, retries and reroutes
            // actually occur (an untouched run gates nothing).
            plan.dropDeliveries(0, maxTick, 0.3);
            plan.downLink(10000 * ticksPerMicrosecond,
                          30000 * ticksPerMicrosecond, 0, 1);
            options.faults = std::move(plan);
            options.retry.enabled = true;
            options.retry.maxAttempts = 6;
            options.retry.rerouteAfterAttempts = 2;
            options.health = true;
            options.reroute = true;
            options.deviceHealth = true;
            return runDigest(
                session.run(*workload, rc.paradigm, options));
        };
        const std::string ref = run_once();
        // Non-vacuity: the plan must actually have cost deliveries
        // and triggered retries, or the check proves nothing.
        EXPECT_EQ(ref.find(" dropped=0 "), std::string::npos) << ref;
        EXPECT_EQ(ref.find(" retries=0 "), std::string::npos) << ref;
        EXPECT_EQ(ref, run_once())
            << rc.name << " (seed " << seed << ")";
    }
}

TEST(Determinism, DeviceLossRecoveryReplays)
{
    // Recovery path: an unconditional mid-run device death with
    // checkpointing armed. The abort decision, the lost GPU, the
    // surviving iteration count and the checkpoint ledger must all
    // replay.
    Session session(pairwiseVolta());
    const int gpus = session.platform().numGpus;
    auto run_once = [&] {
        auto workload = makeSmallWorkload("Pagerank");
        workload->setup(gpus);
        Session::RunOptions options =
            timingOptions(TransferMechanism::Polling);
        options.armFaults = true;
        FaultPlan plan;
        plan.downGpu(120 * ticksPerMicrosecond, maxTick, gpus - 1);
        options.faults = std::move(plan);
        options.retry.enabled = true;
        options.retry.maxAttempts = 4;
        options.health = true;
        options.reroute = true;
        options.deviceHealth = true;
        options.checkpoint = true;
        const ParadigmRun r = session.run(
            *workload, Paradigm::ProactDecoupled, options);
        EXPECT_TRUE(r.aborted);
        EXPECT_EQ(r.lostGpu, gpus - 1);
        return runDigest(r);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, RuntimeStatDumpsReplay)
{
    // Below the Session summary: the runtime's full StatSet ledger
    // (every counter it ever bumped) must match key for key.
    auto dump_once = [](TransferMechanism mechanism) {
        MultiGpuSystem system(pairwiseVolta());
        system.setFunctional(false);
        auto workload = makeSmallWorkload("SSSP");
        workload->setup(system.numGpus());
        ProactRuntime::Options options;
        options.config.mechanism = mechanism;
        options.config.chunkBytes = 64 * KiB;
        options.config.transferThreads = 2048;
        ProactRuntime runtime(system, options);
        std::ostringstream os;
        os << "ticks=" << runtime.run(*workload)
           << " tail=" << runtime.tailTicks() << "\n";
        runtime.stats().dump(os);
        return os.str();
    };
    for (const RunCase &rc : kProactCases) {
        EXPECT_EQ(dump_once(rc.mechanism), dump_once(rc.mechanism))
            << rc.name;
    }
}

TEST(Determinism, FaultedRunsAreSeedStable)
{
    // A seeded fault plan is part of the configuration: repeated runs
    // replay every drop and degradation identically, so simulated
    // time, wire traffic and retry counts all match.
    auto run_once = [] {
        auto workload = makeSmallWorkload("Pagerank");
        workload->setup(4);
        MultiGpuSystem system(voltaPlatform());
        system.setFunctional(false);

        FaultPlan plan;
        plan.seed = 99;
        plan.dropDeliveries(0, maxTick, 0.02);
        plan.degradeLink(ticksPerMillisecond, 3 * ticksPerMillisecond,
                         0.5);
        system.installFaults(std::move(plan));

        TransferConfig config;
        config.mechanism = TransferMechanism::Polling;
        config.chunkBytes = 64 * KiB;
        config.transferThreads = 2048;
        config.retry.enabled = true;

        const Tick t = makeRuntime(Paradigm::ProactDecoupled, system,
                                   config)
                           ->run(*workload);
        return std::tuple<Tick, std::uint64_t, double>(
            t, system.fabric().totalWireBytes(),
            system.faults()->stats().get("faults.dropped"));
    };

    const auto a = run_once();
    const auto b = run_once();
    EXPECT_GT(std::get<2>(a), 0.0);
    EXPECT_EQ(a, b);
}

TEST(Determinism, FunctionalResultsAreSeedStable)
{
    // Two functional runs from identical seeds produce bitwise-equal
    // solutions (SSSP verifies against its serial reference, which
    // pins both runs to the same answer).
    for (int repeat = 0; repeat < 2; ++repeat) {
        auto workload = makeSmallWorkload("SSSP");
        workload->setup(4);
        MultiGpuSystem system(voltaPlatform());
        makeRuntime(Paradigm::InfiniteBw, system)->run(*workload);
        ASSERT_TRUE(workload->verify());
    }
}
