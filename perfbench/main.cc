/**
 * @file
 * perfbench: the simulator's end-to-end benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--size bench|tiny] [--trace-out <file>]
 *
 * Sets the workload up several times, each cold (median = setup_s),
 * then runs timed passes until --seconds have elapsed. A pass is cut
 * into segments, one per operation; wall_s adds up each segment's
 * fastest time over the untraced passes. With --trace 1 the passes
 * alternate untraced and traced; the traced passes give the
 * per-layer split, and the difference between the median traced and
 * untraced pass is the tracing overhead. Every pass must reproduce
 * the first pass's per-operation digests.
 *
 * Prints a human-readable report, then one JSON object as the last
 * line: {"correct", "attempted", "failed", "metrics"}. Refuses to run
 * when any PROACT_* variable is set: every option is passed here.
 */

#include "scenarios.hh"
#include "tracer.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

extern char **environ;

namespace {

using namespace perfbench;

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/**
 * One pass's host time with every segment (operation) at its fastest
 * over @p passes. Interference from the rest of the host only ever
 * adds time, and on a shared machine it comes and goes within a pass,
 * so the fastest time of each segment is a far steadier estimate of
 * what the pass costs than any whole-pass statistic.
 */
double
fastestPass(const std::vector<const PassResult *> &passes)
{
    const PassResult &first = *passes.front();
    double total = 0.0;
    for (std::size_t i = 0; i < first.ops.size(); ++i) {
        double best = first.ops[i].seconds;
        for (const PassResult *pass : passes)
            best = std::min(best, pass->ops[i].seconds);
        total += best;
    }
    double tail = first.tailSeconds;
    for (const PassResult *pass : passes)
        tail = std::min(tail, pass->tailSeconds);
    return total + tail;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    const char *kind; ///< "host" or "sim".
};

std::string
json(const std::vector<Metric> &metrics, bool correct,
     std::uint64_t attempted, std::uint64_t failed)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

/**
 * Run setUp() in a forked child and return its duration in seconds,
 * or a negative value when the child failed. The child inherits a
 * process that has not set anything up, so its set-up is cold.
 */
double
coldSetUpInChild(const Settings &settings)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return -1.0;
    }
    if (pid == 0) {
        close(fds[0]);
        double s = -1.0;
        try {
            Tracer quiet(false);
            const auto t0 = Clock::now();
            setUp(settings, quiet);
            s = secondsSince(t0);
        } catch (const std::exception &e) {
            std::cerr << "perfbench: set-up: " << e.what() << "\n";
        }
        const bool sent = write(fds[1], &s, sizeof s) ==
            static_cast<ssize_t>(sizeof s);
        _exit(sent && s >= 0.0 ? 0 : 1);
    }
    close(fds[1]);
    double s = -1.0;
    if (read(fds[0], &s, sizeof s) != static_cast<ssize_t>(sizeof s))
        s = -1.0;
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? s : -1.0;
}

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--size bench|tiny] "
                 "[--trace-out <file>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "PROACT_", 7) == 0) {
            std::cerr << "perfbench: refusing to run with " << *env
                      << " set; the benchmark passes every option "
                         "itself\n";
            return 2;
        }
    }

    Settings settings;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            settings.workload = value;
        else if (flag == "--seed")
            settings.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            trace = value == "1";
        else if (flag == "--size")
            settings.tiny = value == "tiny";
        else if (flag == "--trace-out")
            trace_out = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), settings.workload) ==
        names.end())
        return usage("unknown --workload");
    if (!(seconds > 0.0))
        return usage("--seconds must be positive");

    std::cout << "perfbench workload=" << settings.workload
              << " seed=" << settings.seed
              << " size=" << (settings.tiny ? "tiny" : "bench")
              << " seconds=" << seconds << " trace=" << trace
              << " build_type=" << PERFBENCH_BUILD_TYPE
              << " nproc=" << std::thread::hardware_concurrency() << "\n";

    Tracer tracer(trace);

    // Set-up, several times, every one cold: each builds the platforms
    // and one instance of every distinct input in a process that has
    // built nothing before. All but the last run in a forked child,
    // before this process has set anything up; the last runs here, so
    // the timed passes follow a set-up the way they would for a user.
    std::cout.flush();
    std::vector<double> setups;
    const auto setup_start = Clock::now();
    while (setups.size() + 1 < 3 ||
           (setups.size() + 1 < 9 && secondsSince(setup_start) < 2.0)) {
        const double s = coldSetUpInChild(settings);
        if (s < 0.0) {
            std::cerr << "perfbench: set-up failed in a child process\n";
            return 1;
        }
        setups.push_back(s);
    }
    {
        const auto t0 = Clock::now();
        setUp(settings, tracer);
        setups.push_back(secondsSince(t0));
    }

    // Timed passes until --seconds have elapsed. Under --trace 1 the
    // passes alternate untraced / traced, starting untraced.
    std::vector<double> walls;
    std::vector<double> traced_walls;
    std::vector<PassResult> passes;
    std::size_t first_traced_span = 0;
    const auto measure_start = Clock::now();
    while (passes.empty() || secondsSince(measure_start) < seconds ||
           (trace && passes.size() < 2)) {
        const bool traced_pass = trace && passes.size() % 2 == 1;
        if (traced_pass && traced_walls.empty())
            first_traced_span = tracer.spans().size();
        tracer.setEnabled(traced_pass);
        const auto t0 = Clock::now();
        passes.push_back(runPass(settings, tracer));
        const double wall = secondsSince(t0);
        (traced_pass ? traced_walls : walls).push_back(wall);
    }
    tracer.setEnabled(trace);

    // Correctness: every pass reproduces pass 0's digests. attempted
    // and failed count the workload's operations once each, not once
    // per pass, so they depend on the seed and not on how many passes
    // fit in --seconds: an operation failed if it failed in pass 0 or
    // if any later pass gave it another digest.
    const PassResult &ref = passes.front();
    bool correct = std::any_of(ref.ops.begin(), ref.ops.end(),
                               [](const OpRecord &op) { return !op.failed; });
    std::vector<bool> op_failed;
    for (const OpRecord &op : ref.ops) {
        op_failed.push_back(op.failed);
        if (op.wrong)
            correct = false;
    }
    std::uint64_t mismatched = 0;
    for (const PassResult &pass : passes) {
        if (pass.ops.size() != ref.ops.size()) {
            correct = false;
            ++mismatched;
            continue;
        }
        for (std::size_t i = 0; i < pass.ops.size(); ++i) {
            if (pass.ops[i].digest == ref.ops[i].digest)
                continue;
            correct = false;
            ++mismatched;
            op_failed[i] = true;
        }
    }
    const std::uint64_t attempted = ref.ops.size();
    const auto failed = static_cast<std::uint64_t>(
        std::count(op_failed.begin(), op_failed.end(), true));
    std::uint64_t digest = 1469598103934665603ULL;
    for (const OpRecord &op : ref.ops)
        digest = (digest ^ op.digest) * 1099511628211ULL;

    // Segments line up only between passes that ran the same
    // operations; a pass that did not has already made the result
    // incorrect. Pass 0 is untraced, so the list is never empty.
    std::vector<const PassResult *> untraced;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        if (!(trace && i % 2 == 1) &&
            passes[i].ops.size() == ref.ops.size())
            untraced.push_back(&passes[i]);
    }
    const double wall_s = fastestPass(untraced);
    const double wall_median_s = median(walls);
    const double setup_s = median(setups);
    const double failed_frac = static_cast<double>(failed) /
        static_cast<double>(std::max<std::uint64_t>(attempted, 1));
    const auto &counts = ref.counts;
    auto count = [&](const std::string &name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
    };
    auto share = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double events = count("sim.events");

    std::cout << "operations " << attempted << ", passes "
              << passes.size() << " (" << walls.size() << " untraced, "
              << traced_walls.size() << " traced), failed " << failed
              << " of " << attempted << ", digest mismatches "
              << mismatched << "\n";
    std::cout << "pass walls (s):";
    for (const double w : walls)
        std::cout << " " << std::setprecision(4) << w;
    std::cout << "\n";
    for (const OpRecord &op : ref.ops) {
        if (op.failed) {
            std::cout << "  failed op " << op.label << ": "
                      << (op.wrong ? "verify() false" : op.error) << "\n";
        }
    }
    std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));

    std::vector<Metric> e2e = {
        {"wall_s", wall_s, "s", "host"},
        {"setup_s", setup_s, "s", "host"},
        {"peak_rss_mb", peakRssMb(), "MB", "host"},
    };
    std::vector<Metric> report = e2e;
    report.push_back({"wall_median_s", wall_median_s, "s", "host"});
    report.push_back({"failed_frac", failed_frac, "ratio", "host"});
    if (events > 0.0) {
        report.push_back({"sim_events_per_s", share(events, wall_s), "1/s",
                          "host"});
    }
    for (const auto &[name, figure] : ref.fidelity)
        report.push_back({name, figure.value, figure.unit, "sim"});

    std::vector<Metric> layers;
    if (trace) {
        const auto self = tracer.selfTimes(first_traced_span);
        const double n = static_cast<double>(traced_walls.size());
        auto self_s = [&](const std::string &name) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0 : it->second / n;
        };
        double runtime_s = 0.0;
        for (const auto &[name, s] : self) {
            if (name.rfind("runtime.run.", 0) == 0)
                runtime_s += s / n;
        }
        std::vector<double> run_ms;
        for (const double d :
             tracer.durations("runtime.run.", first_traced_span))
            run_ms.push_back(d * 1e3);
        // Highest percentile with at least ten samples beyond it.
        const double tail_q = run_ms.size() >= 20
            ? 1.0 - 10.0 / static_cast<double>(run_ms.size())
            : 1.0;
        const double traced_wall = median(traced_walls);
        const double setup_calls = count("workloads.setup_calls");
        const double distinct = static_cast<double>(ref.inputs.size());
        const double candidates = count("proact.profile_candidates");
        const double requests = count("interconnect.plan_requests");
        const double elections =
            count("fleet.election_sweeps") + count("fleet.election_hits");
        auto fid = [&](const std::string &name) {
            const auto it = ref.fidelity.find(name);
            return it == ref.fidelity.end() ? 0.0 : it->second.value;
        };
        layers = {
            {"workloads.setup_s", self_s("workloads.setup"), "s", "host"},
            {"workloads.setup_calls", setup_calls, "count", "host"},
            {"workloads.distinct_inputs", distinct, "count", "host"},
            {"workloads.reuse_ratio", share(distinct, setup_calls), "ratio",
             "host"},
            {"workloads.verify_s", self_s("workloads.verify"), "s", "host"},
            {"proact.profile_s", self_s("proact.profile"), "s", "host"},
            {"proact.profile_candidates", candidates, "count", "sim"},
            {"proact.profile_ms_per_candidate",
             1e3 * share(self_s("proact.profile"), candidates), "ms",
             "host"},
            {"runtime.run_s.cudamemcpy", self_s("runtime.run.cudamemcpy"),
             "s", "host"},
            {"runtime.run_s.um", self_s("runtime.run.um"), "s", "host"},
            {"runtime.run_s.proact_inline",
             self_s("runtime.run.proact_inline"), "s", "host"},
            {"runtime.run_s.proact_decoupled",
             self_s("runtime.run.proact_decoupled"), "s", "host"},
            {"runtime.run_s.infinite_bw", self_s("runtime.run.infinite_bw"),
             "s", "host"},
            {"runtime.run_s.reference", self_s("runtime.run.reference"), "s",
             "host"},
            {"runtime.run_ms.p50", quantile(run_ms, 0.5), "ms", "host"},
            {"runtime.run_ms.tail", quantile(run_ms, tail_q), "ms", "host"},
            {"system.build_s", self_s("system.build"), "s", "host"},
            {"system.builds", count("system.builds"), "count", "host"},
            {"sim.events", events, "count", "sim"},
            {"sim.ns_per_event", 1e9 * share(runtime_s, events), "ns",
             "host"},
            {"sim.tombstone_ratio", share(count("sim.tombstones"), events),
             "ratio", "sim"},
            {"sim.events_per_s", share(events, wall_s), "1/s", "host"},
            {"interconnect.payload_bytes",
             count("interconnect.payload_bytes"), "B", "sim"},
            {"interconnect.wire_bytes", count("interconnect.wire_bytes"),
             "B", "sim"},
            {"interconnect.goodput",
             share(count("interconnect.payload_bytes"),
                   count("interconnect.wire_bytes")),
             "ratio", "sim"},
            {"interconnect.store_txns", count("interconnect.store_txns"),
             "count", "sim"},
            {"interconnect.dropped", count("interconnect.dropped"), "count",
             "sim"},
            {"interconnect.rebooked", count("interconnect.rebooked"),
             "count", "sim"},
            {"interconnect.plan_cache_hit_ratio",
             share(requests - count("interconnect.plan_computes"), requests),
             "ratio", "sim"},
            {"gpu.dma_copies", count("gpu.dma_copies"), "count", "sim"},
            {"gpu.dma_bytes", count("gpu.dma_bytes"), "B", "sim"},
            {"faults.retries", count("faults.retries"), "count", "sim"},
            {"faults.fallbacks", count("faults.fallbacks"), "count", "sim"},
            {"health.transitions", count("health.transitions"), "count",
             "sim"},
            {"health.congestion_events", count("health.congestion_events"),
             "count", "sim"},
            {"proact.reprofile_sweeps", count("proact.reprofile_sweeps"),
             "count", "sim"},
            {"fleet.serve_s", self_s("fleet.serve"), "s", "host"},
            {"fleet.election_sweeps", count("fleet.election_sweeps"),
             "count", "sim"},
            {"fleet.election_hit_ratio",
             share(count("fleet.election_hits"), elections), "ratio", "sim"},
            {"fleet.deferred_capacity", count("fleet.deferred_capacity"),
             "count", "sim"},
            {"fleet.deferred_congestion",
             count("fleet.deferred_congestion"), "count", "sim"},
            {"fleet.recoveries", count("fleet.recoveries"), "count", "sim"},
            {"fleet.lost_work_p95_us", count("fleet.lost_work_p95_us"), "us",
             "sim"},
            {"failed_frac", failed_frac, "ratio", "host"},
            {"paper_gap_pct", fid("paper_gap_pct"), "%", "sim"},
            {"sim.goodput_retained", fid("sim.goodput_retained"), "ratio",
             "sim"},
            {"sim.fleet_p95_ms", fid("sim.fleet_p95_ms"), "ms", "sim"},
            {"sim.fleet_jobs_per_s", fid("sim.fleet_jobs_per_s"), "1/s",
             "sim"},
            {"bench.unattributed_s", self_s("bench.pass"), "s", "host"},
            {"bench.trace_overhead_s", traced_wall - wall_median_s, "s",
             "host"},
        };

        // Per-layer self-time table: the layers account for the
        // traced pass; the benchmark's own code is the remainder.
        std::cout << "per-layer self time per traced pass (traced wall "
                  << traced_wall << " s, untraced " << wall_median_s
                  << " s, medians):\n";
        std::vector<std::pair<double, std::string>> rows;
        for (const auto &[name, s] : self)
            rows.push_back({s / n, name});
        std::sort(rows.rbegin(), rows.rend());
        double attributed = 0.0;
        for (const auto &[s, name] : rows) {
            if (name != "bench.pass")
                attributed += s;
            std::printf("  %-34s %10.4f s  %5.1f%%\n", name.c_str(), s,
                        100.0 * share(s, traced_wall));
        }
        std::printf("  attributed to layers %.4f s (%.1f%%), unattributed "
                    "%.4f s, tracing overhead %+.4f s\n",
                    attributed, 100.0 * share(attributed, traced_wall),
                    traced_wall - attributed, traced_wall - wall_median_s);
        if (!trace_out.empty()) {
            std::ofstream out(trace_out);
            tracer.writeChromeTrace(out);
            if (!out) {
                std::cerr << "perfbench: cannot write " << trace_out << "\n";
                return 1;
            }
            std::cout << "chrome trace written to " << trace_out << "\n";
        }
    }

    for (const Metric &m : report) {
        std::cout << "metric " << std::left << std::setw(28) << m.name
                  << " " << std::setprecision(6) << m.value << " " << m.unit
                  << " [" << m.kind << "]\n";
    }
    for (const Metric &m : layers) {
        std::cout << "layer  " << std::left << std::setw(34) << m.name
                  << " " << std::setprecision(6) << m.value << " " << m.unit
                  << " [" << m.kind << "]\n";
    }
    std::cout << json(trace ? layers : e2e, correct, attempted, failed)
              << std::endl;
    return 0;
}
