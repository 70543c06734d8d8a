/**
 * @file
 * Run-level worker pool (`ctest -L parallel`): every index runs
 * exactly once, per-worker state stays private to its thread, results
 * land in index order whatever the worker count, and a worker's
 * exception reaches the caller.
 */

#include "sim/run_pool.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

using namespace proact;

TEST(RunPool, EnvKnobParsesAndClamps)
{
    unsetenv("PROACT_SIM_SHARDS");
    EXPECT_EQ(envSimShards(), 0);
    setenv("PROACT_SIM_SHARDS", "1", 1);
    EXPECT_EQ(envSimShards(), 0); // 1 worker == sequential == off.
    setenv("PROACT_SIM_SHARDS", "4", 1);
    EXPECT_EQ(envSimShards(), 4);
    setenv("PROACT_SIM_SHARDS", "999", 1);
    EXPECT_EQ(envSimShards(), 64);
    setenv("PROACT_SIM_SHARDS", "-3", 1);
    EXPECT_EQ(envSimShards(), 0);
    unsetenv("PROACT_SIM_SHARDS");
}

TEST(RunPool, ResultsLandInIndexOrderAtEveryWorkerCount)
{
    const std::size_t count = 37;
    std::vector<std::uint64_t> reference;
    for (const int workers : {1, 2, 4, 8, 64}) {
        std::vector<std::uint64_t> out(count, 0);
        runIndexed(count, workers, [&]() -> IndexTask {
            return [&](std::size_t i) { out[i] = i * i + 7; };
        });
        if (reference.empty())
            reference = out;
        EXPECT_EQ(out, reference) << workers << " workers";
    }
    EXPECT_EQ(reference[6], 43u);
}

TEST(RunPool, EveryIndexRunsOnceAndWorkersKeepPrivateState)
{
    const std::size_t count = 200;
    std::vector<std::atomic<int>> hits(count);
    std::atomic<int> tasks_made{0};
    runIndexed(count, 4, [&]() -> IndexTask {
        ++tasks_made;
        // Per-worker scratch: touched only by the owning thread.
        auto scratch = std::make_shared<std::vector<std::size_t>>();
        return [&hits, scratch](std::size_t i) {
            scratch->push_back(i);
            ++hits[i];
        };
    });
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_EQ(tasks_made.load(), 4);
}

TEST(RunPool, WorkersNeverExceedTheWorkItems)
{
    std::atomic<int> tasks_made{0};
    runIndexed(2, 8, [&]() -> IndexTask {
        ++tasks_made;
        return [](std::size_t) {};
    });
    EXPECT_EQ(tasks_made.load(), 2);

    tasks_made = 0;
    runIndexed(0, 4, [&]() -> IndexTask {
        ++tasks_made;
        return [](std::size_t) { FAIL() << "no index to run"; };
    });
    EXPECT_EQ(tasks_made.load(), 1);
}

TEST(RunPool, WorkerExceptionSurfacesAfterJoin)
{
    for (const int workers : {1, 4}) {
        EXPECT_THROW(
            runIndexed(16, workers,
                       []() -> IndexTask {
                           return [](std::size_t i) {
                               if (i == 5)
                                   throw std::runtime_error("boom");
                           };
                       }),
            std::runtime_error)
            << workers << " workers";
    }
}
