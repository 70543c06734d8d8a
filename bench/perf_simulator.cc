/**
 * @file
 * Simulator performance trajectory: the event engine measured against
 * itself.
 *
 * The profiler sweeps hundreds of transfer configurations per
 * application and the fleet elector re-runs narrowed sweeps on every
 * cache miss, so simulation throughput is a product feature. This
 * harness starts the repo's simulator perf trajectory
 * (BENCH_simulator.json, the BENCH_fleet.json pattern):
 *
 *  1. Serial core A/B — the BM_EventQueueDispatch workload measured
 *     on a faithful copy of the pre-rewrite engine (shared_ptr
 *     entries + std::priority_queue + per-event unordered_map) and on
 *     the current slab/4-ary-heap engine, in interleaved pairs so
 *     host drift hits both sides alike. Acceptance: median per-pair
 *     speedup >= 2x (gated in optimized builds).
 *  2. Cancel-heavy A/B — same comparison with half the events
 *     descheduled, exercising the O(1) generation-checked cancel
 *     path against the hash-map one (reported, not gated).
 *  3. Run-level pool — a sweep of independent 64-GPU pairwise
 *     PROACT Jacobi runs, serially and then on runIndexed() workers.
 *     Acceptance: identical digests in index order, and > 1.5x
 *     speedup at >= 4 cores (gated in optimized builds).
 *  4. Serial end-to-end datapoints — wall-clock of one 64-GPU
 *     pairwise run and one 2x16 multi-node run (recorded only).
 *  5. Workload setup — R-MAT generation throughput (edges/s, median
 *     of 5) at the registry's Pagerank input size at scale shift 3
 *     (recorded only).
 *  6. Code size — lines of the .cc and .hh files under src/ and
 *     bench/ of the tree the binary was built from (recorded only).
 *
 * Default run executes the driver and writes the JSON; pass --gbench
 * [gbench args...] for the original google-benchmark microbenches.
 */

#include "bench/bench_common.hh"

#include "harness/paradigm.hh"
#include "proact/runtime.hh"
#include "system/platform.hh"
#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/run_pool.hh"
#include "workloads/graph.hh"
#include "workloads/pagerank.hh"
#include "workloads/registry.hh"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace proact;

namespace {

// ---------------------------------------------------------------------
// Legacy engine: the pre-rewrite EventQueue, kept verbatim (minus the
// run-until paths the A/B doesn't exercise) as the "before" reference
// so the trajectory always measures against the same baseline.
// ---------------------------------------------------------------------

namespace legacy {

class EventQueue
{
  public:
    using Callback = std::function<void()>;

    std::uint64_t
    schedule(Tick when, Callback cb, int priority = 0)
    {
        auto entry = std::make_shared<Entry>();
        entry->when = when;
        entry->priority = priority;
        entry->seq = _nextSeq++;
        entry->id = _nextId++;
        entry->cb = std::move(cb);
        _queue.push(entry);
        _pendingIndex.emplace(entry->id, entry);
        ++_liveEvents;
        return entry->id;
    }

    bool
    deschedule(std::uint64_t id)
    {
        auto it = _pendingIndex.find(id);
        if (it == _pendingIndex.end())
            return false;
        it->second->cancelled = true;
        _pendingIndex.erase(it);
        --_liveEvents;
        return true;
    }

    bool
    runNext()
    {
        while (!_queue.empty()) {
            auto entry = _queue.top();
            _queue.pop();
            if (entry->cancelled)
                continue;
            _curTick = entry->when;
            --_liveEvents;
            _pendingIndex.erase(entry->id);
            Callback cb = std::move(entry->cb);
            cb();
            return true;
        }
        return false;
    }

    void
    run()
    {
        while (runNext()) {
        }
    }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::uint64_t id;
        Callback cb;
        bool cancelled = false;
    };

    struct EntryCompare
    {
        bool
        operator()(const std::shared_ptr<Entry> &a,
                   const std::shared_ptr<Entry> &b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->priority != b->priority)
                return a->priority > b->priority;
            return a->seq > b->seq;
        }
    };

    std::priority_queue<std::shared_ptr<Entry>,
                        std::vector<std::shared_ptr<Entry>>,
                        EntryCompare> _queue;
    std::unordered_map<std::uint64_t, std::shared_ptr<Entry>>
        _pendingIndex;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _nextId = 1;
    std::uint64_t _liveEvents = 0;
};

} // namespace legacy

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One BM_EventQueueDispatch run on any engine type, events/s. */
template <typename Queue>
double
dispatchEventsPerSec(int events)
{
    Queue eq;
    long fired = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < events; ++i) {
        eq.schedule(static_cast<Tick>((i * 7919) % 100000),
                    [&fired] { ++fired; });
    }
    eq.run();
    const double secs = secondsSince(start);
    benchmark::DoNotOptimize(fired);
    return secs > 0.0 ? static_cast<double>(events) / secs : 0.0;
}

/** Cancel-heavy variant: every second event is descheduled. */
template <typename Queue>
double
cancelEventsPerSec(int events)
{
    Queue eq;
    long fired = 0;
    std::vector<std::uint64_t> ids;
    ids.reserve(static_cast<std::size_t>(events));
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < events; ++i) {
        ids.push_back(
            eq.schedule(static_cast<Tick>((i * 7919) % 100000),
                        [&fired] { ++fired; }));
    }
    for (int i = 0; i < events; i += 2)
        eq.deschedule(ids[static_cast<std::size_t>(i)]);
    eq.run();
    const double secs = secondsSince(start);
    benchmark::DoNotOptimize(fired);
    return secs > 0.0 ? static_cast<double>(events) / secs : 0.0;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Paired A/B: medians of both sides and of the per-pair ratios. */
struct PairedAb
{
    double before = 0.0;
    double after = 0.0;
    double speedup = 0.0;
};

/**
 * Run @p pairs (legacy, current) repetitions back to back, swapping
 * which side goes first every pair, after one unmeasured warm-up
 * pair. Each ratio compares two runs taken moments apart, so drift
 * of the host between repetitions cancels out of the median. On a
 * shared 4-vCPU host single ratios range from 1.3x to 3.8x while the
 * median of 41 stays within 2.07-2.45x.
 */
PairedAb
pairedAb(const std::function<double()> &legacy_run,
         const std::function<double()> &current_run, int pairs)
{
    legacy_run();
    current_run();
    std::vector<double> before, after, ratios;
    for (int r = 0; r < pairs; ++r) {
        double b = 0.0, a = 0.0;
        if (r % 2 == 0) {
            b = legacy_run();
            a = current_run();
        } else {
            a = current_run();
            b = legacy_run();
        }
        before.push_back(b);
        after.push_back(a);
        ratios.push_back(b > 0.0 ? a / b : 0.0);
    }
    return {median(before), median(after), median(ratios)};
}

// ---------------------------------------------------------------------
// Run-level parallelism: independent simulations on the worker pool.
// ---------------------------------------------------------------------

/** 64 Volta GPUs, every directed pair on its own link. */
PlatformSpec
pairwiseRing64()
{
    PlatformSpec ring = voltaPlatform().withGpuCount(64);
    ring.fabric.topology = FabricTopology::PairwiseLinks;
    return ring;
}

struct EndToEndPoint
{
    double seconds = 0.0;
    Tick ticks = 0;
    std::string digest;
};

/** Jacobi (ring halo exchange) set up for @p platform. */
std::unique_ptr<Workload>
makeJacobi(const PlatformSpec &platform)
{
    auto workload = makeWorkload("Jacobi", 2);
    workload->setup(platform.numGpus);
    return workload;
}

/**
 * One timing-only PROACT-decoupled run of @p workload on a fresh
 * system: the unit of work a sweep or bench grid repeats.
 */
EndToEndPoint
runEndToEnd(const PlatformSpec &platform, Workload &workload,
            const TransferConfig &config)
{
    MultiGpuSystem system(platform);
    system.setFunctional(false);
    ProactRuntime::Options options;
    options.config = config;
    ProactRuntime runtime(system, options);
    const auto start = std::chrono::steady_clock::now();
    const Tick ticks = runtime.run(workload);

    EndToEndPoint point;
    point.seconds = secondsSince(start);
    point.ticks = ticks;
    std::ostringstream digest;
    digest << "ticks=" << ticks << " tail=" << runtime.tailTicks()
           << "\n";
    runtime.stats().dump(digest);
    point.digest = digest.str();
    return point;
}

TransferConfig
defaultDecoupled()
{
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 64 * KiB;
    config.transferThreads = 2048;
    return config;
}

/** The pool's run list: a small profiler-style candidate grid. */
std::vector<TransferConfig>
poolCandidates()
{
    std::vector<TransferConfig> candidates;
    for (const auto mech :
         {TransferMechanism::Polling, TransferMechanism::Cdp}) {
        for (const std::uint64_t chunk : {64 * KiB, 128 * KiB}) {
            for (const std::uint32_t threads : {1024u, 2048u}) {
                TransferConfig config;
                config.mechanism = mech;
                config.chunkBytes = chunk;
                config.transferThreads = threads;
                candidates.push_back(config);
            }
        }
    }
    return candidates;
}

/**
 * Digests of every candidate run on @p workers, in index order. Each
 * run is independent end to end — it sets up its own workload, as
 * one point of a bench grid does.
 */
std::vector<std::string>
runPool(const std::vector<TransferConfig> &candidates, int workers)
{
    const PlatformSpec ring = pairwiseRing64();
    std::vector<std::string> digests(candidates.size());
    runIndexed(candidates.size(), workers, [&]() -> IndexTask {
        return [&](std::size_t i) {
            digests[i] = runEndToEnd(ring, *makeJacobi(ring),
                                     candidates[i])
                             .digest;
        };
    });
    return digests;
}

// ---------------------------------------------------------------------
// Original google-benchmark microbenches (run via --gbench).
// ---------------------------------------------------------------------

void
BM_EventQueueDispatch(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        long fired = 0;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule((i * 7919) % 100000, [&fired] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueDispatch)->Arg(1 << 10)->Arg(1 << 16);

void
BM_EventQueueCancel(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        long fired = 0;
        std::vector<EventId> ids;
        for (int i = 0; i < state.range(0); ++i)
            ids.push_back(eq.schedule((i * 7919) % 100000,
                                      [&fired] { ++fired; }));
        for (int i = 0; i < state.range(0); i += 2)
            eq.deschedule(ids[static_cast<std::size_t>(i)]);
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueCancel)->Arg(1 << 16);

void
BM_ChannelBooking(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        Channel ch(eq, "bench", 100.0e9);
        Tick last = 0;
        for (int i = 0; i < state.range(0); ++i)
            last = ch.submit(4096, 4096);
        eq.run();
        benchmark::DoNotOptimize(last);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelBooking)->Arg(1 << 14);

void
BM_RmatGeneration(benchmark::State &state)
{
    RmatParams params;
    params.numVertices = 1 << 14;
    params.numEdges = state.range(0);
    for (auto _ : state) {
        const Graph g = generateRmat(params);
        benchmark::DoNotOptimize(g.numEdges());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RmatGeneration)->Arg(1 << 17);

void
BM_TimingOnlyRun(benchmark::State &state)
{
    // Full 4-GPU PROACT-decoupled Pagerank iteration sweep in
    // timing-only mode — the profiler's unit of work.
    auto workload = makeWorkload("Pagerank", 4); // Scaled down 16x.
    workload->setup(4);
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 128 * KiB;
    config.transferThreads = 2048;

    for (auto _ : state) {
        MultiGpuSystem system(voltaPlatform());
        system.setFunctional(false);
        ProactRuntime::Options options;
        options.config = config;
        options.maxIterations = 2;
        ProactRuntime runtime(system, options);
        benchmark::DoNotOptimize(runtime.run(*workload));
    }
}
BENCHMARK(BM_TimingOnlyRun);

/**
 * Lines in the .cc and .hh files under @p dir of the source tree this
 * binary was built from (0 when that tree is gone).
 */
std::uint64_t
sourceLines(const char *dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::uint64_t lines = 0;
    for (fs::recursive_directory_iterator
             it(fs::path(PROACT_SOURCE_DIR) / dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::path &path = it->path();
        if (path.extension() != ".cc" && path.extension() != ".hh")
            continue;
        std::ifstream in(path);
        lines += static_cast<std::uint64_t>(
            std::count(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>(), '\n'));
    }
    return lines;
}

int
runDriver()
{
    const int events = 1 << 16;
    const int pairs = 41;

    std::cout << "Simulator performance trajectory\n\n";

    // 1. + 2. Serial core A/B on the BM_EventQueueDispatch workload.
    const PairedAb dispatch = pairedAb(
        [] { return dispatchEventsPerSec<legacy::EventQueue>(events); },
        [] { return dispatchEventsPerSec<EventQueue>(events); }, pairs);
    const PairedAb cancel = pairedAb(
        [] { return cancelEventsPerSec<legacy::EventQueue>(events); },
        [] { return cancelEventsPerSec<EventQueue>(events); }, pairs);

    std::cout << "BM_EventQueueDispatch (" << events << " events, "
              << pairs << " interleaved pairs, medians):\n"
              << "  before (shared_ptr heap + hash map): "
              << static_cast<std::uint64_t>(dispatch.before)
              << " events/s\n"
              << "  after  (slab + 4-ary heap):          "
              << static_cast<std::uint64_t>(dispatch.after)
              << " events/s\n"
              << "  speedup: " << dispatch.speedup
              << "x (gate: >= 2x)\n"
              << "cancel-heavy variant: " << cancel.speedup
              << "x\n\n";

    // 3. Run-level pool: the same independent runs serially, then on
    // min(4, cores) workers.
    const unsigned hw_cores = std::thread::hardware_concurrency();
    const int pool_workers =
        static_cast<int>(std::min(4u, std::max(hw_cores, 1u)));
    const std::vector<TransferConfig> candidates = poolCandidates();
    auto start = std::chrono::steady_clock::now();
    const std::vector<std::string> serial_digests =
        runPool(candidates, 1);
    const double serial_seconds = secondsSince(start);
    start = std::chrono::steady_clock::now();
    const std::vector<std::string> pool_digests =
        runPool(candidates, pool_workers);
    const double pool_seconds = secondsSince(start);
    const bool deterministic = serial_digests == pool_digests;
    const double pool_speedup =
        pool_seconds > 0.0 ? serial_seconds / pool_seconds : 0.0;
    std::cout << "run pool: " << candidates.size()
              << " independent 64-GPU Jacobi runs, serial "
              << serial_seconds << " s, " << pool_workers
              << " workers " << pool_seconds << " s (" << pool_speedup
              << "x), digests "
              << (deterministic ? "identical" : "DIVERGE") << "\n";

    // 4. Serial end-to-end datapoints (recorded, not gated).
    const PlatformSpec ring = pairwiseRing64();
    const PlatformSpec multi = multiNodePlatform(2, 16);
    const EndToEndPoint ring_point =
        runEndToEnd(ring, *makeJacobi(ring), defaultDecoupled());
    const EndToEndPoint multi_point =
        runEndToEnd(multi, *makeJacobi(multi), defaultDecoupled());
    std::cout << "end-to-end 64-GPU ring (PROACT Jacobi): "
              << ring_point.seconds << " s\n"
              << "end-to-end 2x16 (PROACT Jacobi): "
              << multi_point.seconds << " s\n";

    // 5. Workload setup: R-MAT generation at the registry's shift-3
    // Pagerank size (recorded, not gated).
    RmatParams rmat = PagerankWorkload::Params{}.graph;
    rmat.numVertices >>= 3;
    rmat.numEdges >>= 3;
    constexpr int rmat_runs = 5;
    std::vector<double> rmat_seconds;
    for (int run = 0; run < rmat_runs; ++run) {
        start = std::chrono::steady_clock::now();
        const Graph g = generateRmat(rmat);
        rmat_seconds.push_back(secondsSince(start));
    }
    const double rmat_median = median(rmat_seconds);
    const double rmat_edges_per_sec = rmat_median > 0.0
        ? static_cast<double>(rmat.numEdges) / rmat_median
        : 0.0;
    std::cout << "R-MAT generation (" << rmat.numVertices
              << " vertices, " << rmat.numEdges << " edges, median of "
              << rmat_runs << "): " << rmat_median << " s, "
              << static_cast<std::uint64_t>(rmat_edges_per_sec)
              << " edges/s\n";

    // The pool gate needs cores to run the workers on; on a starved
    // machine the datapoint is still recorded (and the determinism
    // check still binds) but speedup is not enforced.
    const bool pool_measurable = hw_cores >= 4;
    if (!pool_measurable) {
        std::cout << "(only " << hw_cores
                  << " core(s) available: run-pool speedup gate "
                     "not enforced)\n";
    }

#ifdef NDEBUG
    const bool gate_speedup = dispatch.speedup >= 2.0;
    const bool gate_pool = !pool_measurable || pool_speedup > 1.5;
#else
    // Debug builds carry bookkeeping asserts on the new engine's hot
    // path that the legacy copy lacks; the wall-clock gates only mean
    // something optimized.
    const bool gate_speedup = true;
    const bool gate_pool = true;
    std::cout << "\n(non-optimized build: wall-clock gates not "
                 "enforced)\n";
#endif
    const bool pass = gate_speedup && deterministic && gate_pool;

    auto datapoint = [](const PlatformSpec &platform,
                        const EndToEndPoint &point) {
        std::ostringstream os;
        os << "{\"platform\": \"" << platform.name
           << "\", \"gpus\": " << platform.numGpus
           << ", \"workload\": \"Jacobi\", \"ticks\": " << point.ticks
           << ", \"seconds\": " << point.seconds << "}";
        return os.str();
    };

    std::ostringstream json;
    json << "{\n  \"bm_event_queue_dispatch\": {\n"
         << "    \"events\": " << events << ",\n"
         << "    \"pairs\": " << pairs << ",\n"
         << "    \"before_events_per_sec\": " << dispatch.before
         << ",\n"
         << "    \"after_events_per_sec\": " << dispatch.after << ",\n"
         << "    \"speedup\": " << dispatch.speedup << ",\n"
         << "    \"cancel_before_events_per_sec\": " << cancel.before
         << ",\n"
         << "    \"cancel_after_events_per_sec\": " << cancel.after
         << ",\n"
         << "    \"cancel_speedup\": " << cancel.speedup << "\n"
         << "  },\n  \"run_pool\": {\n"
         << "    \"runs\": " << candidates.size() << ",\n"
         << "    \"workers\": " << pool_workers << ",\n"
         << "    \"serial_seconds\": " << serial_seconds << ",\n"
         << "    \"pool_seconds\": " << pool_seconds << ",\n"
         << "    \"speedup\": " << pool_speedup << ",\n"
         << "    \"speedup_enforced\": "
         << (pool_measurable ? "true" : "false") << ",\n"
         << "    \"deterministic\": "
         << (deterministic ? "true" : "false") << ",\n"
         << "    \"end_to_end_serial\": [\n      "
         << datapoint(ring, ring_point) << ",\n      "
         << datapoint(multi, multi_point) << "\n    ]\n"
         << "  },\n  \"rmat_generation\": {\n"
         << "    \"vertices\": " << rmat.numVertices << ",\n"
         << "    \"edges\": " << rmat.numEdges << ",\n"
         << "    \"runs\": " << rmat_runs << ",\n"
         << "    \"median_seconds\": " << rmat_median << ",\n"
         << "    \"edges_per_sec\": " << rmat_edges_per_sec << "\n"
         << "  },\n  \"code_lines\": {\n"
         << "    \"src\": " << sourceLines("src") << ",\n"
         << "    \"bench\": " << sourceLines("bench") << "\n"
         << "  },\n  \"acceptance\": {\n"
         << "    \"serial_speedup_ok\": "
         << (gate_speedup ? "true" : "false")
         << ",\n    \"deterministic\": "
         << (deterministic ? "true" : "false")
         << ",\n    \"run_pool_speedup_ok\": "
         << (gate_pool ? "true" : "false")
         << ",\n    \"pass\": " << (pass ? "true" : "false")
         << "\n  }\n}\n";

    const std::string path =
        bench::writeBenchJson("BENCH_simulator.json", json.str());
    std::cout << "\nJSON written to " << path << "\n";
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--gbench") == 0) {
        int gargc = argc - 1;
        std::vector<char *> gargv;
        gargv.push_back(argv[0]);
        for (int i = 2; i < argc; ++i)
            gargv.push_back(argv[i]);
        benchmark::Initialize(&gargc, gargv.data());
        benchmark::RunSpecifiedBenchmarks();
        return 0;
    }
    return runDriver();
}
