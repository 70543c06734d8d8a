/**
 * @file
 * The benchmark's three workloads, driven through the simulator's
 * public APIs only.
 *
 * Each workload is a fixed list of operations (one paradigm run or
 * one fleet job each). A pass builds every input per call, the way
 * the bench binaries do, and returns what the operations produced:
 * a digest of every simulated statistic per operation, per-layer
 * counters, and the workload's simulated end-to-end figures.
 */

#ifndef PERFBENCH_SCENARIOS_HH
#define PERFBENCH_SCENARIOS_HH

#include "tracer.hh"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/** The seed that reproduces the registry's and benches' built-in seeds. */
constexpr std::uint64_t defaultSeed = 0;

struct Settings
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    /** Shrink every input to smoke-test size. */
    bool tiny = false;
};

/** Outcome of one operation. */
struct OpRecord
{
    std::string label;
    std::uint64_t digest = 0;
    bool failed = false; ///< Caught error or failed verification.
    bool wrong = false;  ///< verify() returned false.
    std::string error;
    /**
     * Host seconds from the end of the previous operation (or the
     * start of the pass) to the end of this one: the operation plus
     * the shared work that led up to it, such as building an input
     * or a profiler sweep. A pass is the sum of these and tailSeconds.
     */
    double seconds = 0.0;
};

/** A simulated end-to-end figure. */
struct Figure
{
    double value = 0.0;
    std::string unit;
};

/** Everything one pass produced. */
struct PassResult
{
    std::vector<OpRecord> ops;
    /** Host seconds after the last operation ended. */
    double tailSeconds = 0.0;
    /** Per-layer counts (simulated statistics and call counts). */
    std::map<std::string, double> counts;
    /** Simulated end-to-end figures ("paper_gap_pct", ...). */
    std::map<std::string, Figure> fidelity;
    /** Keys of the distinct inputs the pass constructed. */
    std::set<std::string> inputs;
};

/** Names accepted by --workload. */
const std::vector<std::string> &workloadNames();

/**
 * Build the workload's platforms and one cold instance of each
 * distinct input, then drop them: the set-up cost a user pays before
 * the first operation.
 */
void setUp(const Settings &settings, Tracer &tracer);

/** Run every operation of the workload once. */
PassResult runPass(const Settings &settings, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_SCENARIOS_HH
