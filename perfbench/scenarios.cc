#include "scenarios.hh"

#include "baselines/runner.hh"
#include "bench/bench_common.hh"
#include "faults/fault_plan.hh"
#include "fleet/fleet_session.hh"
#include "fleet/job.hh"
#include "harness/paradigm.hh"
#include "proact/profiler.hh"
#include "proact/reprofiler.hh"
#include "proact/runtime.hh"
#include "sim/random.hh"
#include "system/multi_gpu_system.hh"
#include "system/platform.hh"
#include "workloads/als.hh"
#include "workloads/jacobi.hh"
#include "workloads/mbir.hh"
#include "workloads/pagerank.hh"
#include "workloads/registry.hh"
#include "workloads/sssp.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

namespace perfbench {

using namespace proact;

namespace {

// ---------------------------------------------------------------------
// Sizes. The paper grid's timing runs use the footprint scale the
// benches default to (16); the functional slice uses the scale shift
// the verify notes document (3). Everything else is sized so one pass
// takes a few host seconds on a 4-core machine.

constexpr std::uint64_t footprint = 16;

struct Sizes
{
    int gridShift;      ///< paper-grid timing inputs.
    int verifyShift;    ///< paper-grid functional slice.
    int scaleShift;     ///< scale-out clean inputs.
    int faultShift;     ///< scale-out faulted-slice inputs.
    int faultPlans;     ///< Seeded fault plans per faulted-slice point.
    int fleetJobs;      ///< fleet-serve job stream length.
    bool quickProfile;  ///< Smallest profiler sweep (smoke size).
};

Sizes
sizesFor(const Settings &settings)
{
    if (settings.tiny)
        return {8, 8, 6, 6, 1, 6, true};
    return {5, 3, 3, 6, 4, 120, false};
}

/** The platforms each workload runs on, in run order. */
std::vector<PlatformSpec>
platformsFor(const Settings &settings)
{
    const std::string &w = settings.workload;
    if (w == "paper-grid")
        return quadPlatforms();
    if (w == "fleet-serve")
        return {dgx2Platform()};
    std::vector<PlatformSpec> platforms = {dgx2Platform(),
                                           multiNodePlatform(2, 16)};
    if (!settings.tiny)
        platforms.push_back(multiNodePlatform(4, 16));
    return platforms;
}

/** The platforms of scale-out's faulted slice, in run order. */
std::vector<PlatformSpec>
faultPlatforms(const Settings &settings)
{
    if (settings.tiny)
        return {dgx2Platform()};
    return {dgx2Platform(), multiNodePlatform(2, 16)};
}

/** Every paradigm run uses this config unless it was profiled. */
TransferConfig
fixedConfig()
{
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 64 * KiB;
    config.transferThreads = 2048;
    return config;
}

// ---------------------------------------------------------------------
// Seeds. The default seed keeps every generator at the seed the
// registry and the bench binaries use, so default figures match
// EXPERIMENTS.md; any other seed derives one stream per generator.

std::uint64_t
pickSeed(const Settings &settings, std::uint64_t builtin,
         std::uint64_t stream)
{
    return settings.seed == defaultSeed
        ? builtin
        : deriveSeed(settings.seed, stream);
}

// ---------------------------------------------------------------------
// Digest: FNV-1a over the simulated statistics of an operation.

class Digest
{
  public:
    Digest &
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xffu;
            _h *= 1099511628211ULL;
        }
        return *this;
    }

    Digest &
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return add(bits);
    }

    Digest &
    add(const std::string &s)
    {
        for (const unsigned char c : s) {
            _h ^= c;
            _h *= 1099511628211ULL;
        }
        return add(static_cast<std::uint64_t>(s.size()));
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 1469598103934665603ULL;
};

std::string
paradigmKey(Paradigm p)
{
    switch (p) {
      case Paradigm::CudaMemcpy:
        return "cudamemcpy";
      case Paradigm::UnifiedMemory:
        return "um";
      case Paradigm::ProactInline:
        return "proact_inline";
      case Paradigm::ProactDecoupled:
        return "proact_decoupled";
      case Paradigm::InfiniteBw:
        return "infinite_bw";
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// One pass's state: the tracer, the counters and the operation log.

struct Ctx
{
    const Settings &settings;
    Sizes sizes;
    Tracer &tracer;
    PassResult result;
    int nextOp = 0;
    int currentOp = -1;
    /** When the previous operation ended (or the pass started). */
    Clock::time_point mark = Clock::now();

    Ctx(const Settings &s, Tracer &t)
        : settings(s), sizes(sizesFor(s)), tracer(t)
    {}

    /** Host seconds since the previous call (or the pass start). */
    double lap()
    {
        const Clock::time_point now = Clock::now();
        const std::chrono::duration<double> d = now - mark;
        mark = now;
        return d.count();
    }

    void count(const std::string &name, double v = 1.0)
    {
        result.counts[name] += v;
    }
};

/**
 * Run one operation, catching the simulator's errors: a caught
 * FatalError/PanicError (or any other exception) or a false
 * verification counts as a failed operation and the pass goes on.
 * @p body fills the digest and returns false when verify() failed.
 */
void
runOp(Ctx &ctx, const std::string &label,
      const std::function<bool(Digest &)> &body)
{
    OpRecord rec;
    rec.label = label;
    Digest digest;
    ctx.currentOp = ctx.nextOp++;
    try {
        rec.wrong = !body(digest);
        rec.failed = rec.wrong;
    } catch (const std::exception &e) {
        rec.failed = true;
        rec.error = e.what();
    }
    ctx.currentOp = -1;
    digest.add(label).add(rec.error).add(std::uint64_t(rec.wrong));
    rec.digest = digest.value();
    rec.seconds = ctx.lap();
    ctx.result.ops.push_back(std::move(rec));
}

/** Record a failure that prevented operations from running at all. */
void
failOps(Ctx &ctx, const std::vector<std::string> &labels,
        const std::string &error)
{
    for (const auto &label : labels) {
        runOp(ctx, label, [&](Digest &) -> bool {
            throw std::runtime_error(error);
        });
    }
}

// ---------------------------------------------------------------------
// Inputs: the registry's five applications at 2^-shift of standard
// size, built through their public constructors so the seed can be
// threaded into each generator.

struct Input
{
    std::string app;
    int shift = 0;
    int gpus = 1;
    std::uint64_t footprintScale = 1;
};

std::unique_ptr<Workload>
construct(const Settings &settings, const Input &in)
{
    const int s = std::clamp(in.shift, 0, 8);
    std::unique_ptr<Workload> w;
    if (in.app == "X-ray CT") {
        MbirWorkload::Params p;
        p.numPixels >>= s;
        p.seed = pickSeed(settings, p.seed, 1);
        w = std::make_unique<MbirWorkload>(p);
    } else if (in.app == "Jacobi") {
        JacobiWorkload::Params p;
        p.numUnknowns >>= s;
        p.seed = pickSeed(settings, p.seed, 2);
        w = std::make_unique<JacobiWorkload>(p);
    } else if (in.app == "Pagerank") {
        PagerankWorkload::Params p;
        p.graph.numVertices >>= s;
        p.graph.numEdges >>= s;
        p.graph.seed = pickSeed(settings, p.graph.seed, 3);
        w = std::make_unique<PagerankWorkload>(p);
    } else if (in.app == "SSSP") {
        SsspWorkload::Params p;
        p.graph.numVertices >>= s;
        p.graph.numEdges >>= s;
        p.graph.seed = pickSeed(settings, p.graph.seed, 4);
        w = std::make_unique<SsspWorkload>(p);
    } else if (in.app == "ALS") {
        AlsWorkload::Params p;
        p.numUsers >>= s;
        p.numItems >>= s;
        p.numRatings >>= s;
        p.seed = pickSeed(settings, p.seed, 5);
        w = std::make_unique<AlsWorkload>(p);
    } else {
        throw std::invalid_argument("unknown application " + in.app);
    }
    w->setFootprintScale(in.footprintScale);
    w->setup(in.gpus);
    return w;
}

std::string
inputKey(const Input &in)
{
    return in.app + "|s" + std::to_string(in.shift) + "|g" +
        std::to_string(in.gpus) + "|f" +
        std::to_string(in.footprintScale);
}

/** Construct + set up one input inside a workloads.setup span. */
std::unique_ptr<Workload>
makeInput(Ctx &ctx, const Input &in)
{
    Scope span(ctx.tracer, "workloads.setup", ctx.currentOp);
    ctx.count("workloads.setup_calls");
    ctx.result.inputs.insert(inputKey(in));
    return construct(ctx.settings, in);
}

bool
verifyInput(Ctx &ctx, const Workload &w)
{
    Scope span(ctx.tracer, "workloads.verify", ctx.currentOp);
    return w.verify();
}

// ---------------------------------------------------------------------
// One paradigm execution on a fresh system, with every counter the
// per-layer split and the digest need.

struct Arming
{
    FaultPlan faults;
    /** Health + rebooking + reroute + adaptive reprofiling. */
    bool adaptive = false;
    WorkloadFactory reprofileFactory;
};

/**
 * The adaptive runs' online sweep: three chunk sizes around the fixed
 * config at its thread count. The default window (25 candidates)
 * makes the re-profiling sweeps, whose number the fault plan decides,
 * nearly all of a faulted pass; this one keeps the faulted runs
 * themselves the bulk of it.
 */
AdaptiveReprofiler::Options
reprofileOptions()
{
    AdaptiveReprofiler::Options options;
    options.chunkSizes = {16 * KiB, 64 * KiB, 256 * KiB};
    options.threadCounts = {2048};
    return options;
}

Tick
simulate(Ctx &ctx, const PlatformSpec &platform, Workload &w,
         Paradigm paradigm, const TransferConfig &config,
         bool functional, const Arming *arming, Digest &digest,
         const std::string &runSpan)
{
    std::unique_ptr<MultiGpuSystem> system;
    std::unique_ptr<AdaptiveReprofiler> reprofiler;
    TransferConfig effective = config;
    {
        Scope span(ctx.tracer, "system.build", ctx.currentOp);
        ctx.count("system.builds");
        system = std::make_unique<MultiGpuSystem>(platform);
        system->setFunctional(functional);
        if (arming != nullptr) {
            system->installFaults(arming->faults);
            effective.retry.enabled = true;
            effective.retry.maxAttempts = 5;
            if (arming->adaptive) {
                effective.retry.rerouteAfterAttempts = 2;
                HealthPolicy health;
                health.transitionHoldoff = 50 * ticksPerMicrosecond;
                system->enableHealth(health);
                system->fabric().setRebooking(true);
                system->enableReroute();
                reprofiler = std::make_unique<AdaptiveReprofiler>(
                    *system, arming->reprofileFactory, effective,
                    reprofileOptions());
            }
        }
    }
    auto runtime = makeRuntime(paradigm, *system, effective,
                               reprofiler.get());
    Tick ticks = 0;
    {
        Scope span(ctx.tracer, runSpan, ctx.currentOp);
        ticks = runtime->run(w);
    }

    const EventQueue &eq = system->eventQueue();
    Interconnect &fabric = system->fabric();
    const double events = static_cast<double>(eq.dispatchedEvents());
    ctx.count("sim.events", events);
    ctx.count("sim.tombstones", static_cast<double>(eq.tombstones()));
    ctx.count("interconnect.payload_bytes",
              static_cast<double>(fabric.totalPayloadBytes()));
    ctx.count("interconnect.wire_bytes",
              static_cast<double>(fabric.totalWireBytes()));
    ctx.count("interconnect.store_txns",
              static_cast<double>(fabric.totalStoreTransactions()));
    ctx.count("interconnect.rebooked",
              static_cast<double>(fabric.rebookedDeliveries()));
    double dma_bytes = 0;
    for (int g = 0; g < system->numGpus(); ++g)
        dma_bytes += static_cast<double>(system->dma(g).bytesCopied());
    ctx.count("gpu.dma_bytes", dma_bytes);
    double copies = 0, retried = 0, fallbacks = 0, dropped = 0;
    double transitions = 0, congested = 0, requests = 0, computes = 0;
    double sweeps = 0;
    if (const auto *bulk =
            dynamic_cast<const BulkMemcpyRuntime *>(runtime.get()))
        copies = bulk->stats().get("memcpy_calls");
    if (const auto *pr = dynamic_cast<const ProactRuntime *>(runtime.get())) {
        retried = pr->stats().get("transfers.retried");
        fallbacks = pr->stats().get("fallback.activations");
    }
    if (const FaultInjector *faults = system->faults())
        dropped = faults->stats().get("faults.dropped");
    if (const LinkHealthMonitor *health = system->health()) {
        transitions = health->stats().get("health.transitions");
        congested = health->stats().get("health.to_congested");
    }
    if (const Rerouter *rr = system->rerouter()) {
        requests = rr->stats().get("reroute.plan_requests");
        computes = rr->stats().get("reroute.plan_computes");
    }
    if (reprofiler)
        sweeps = reprofiler->stats().get("reprofile.sweeps");
    ctx.count("gpu.dma_copies", copies);
    ctx.count("faults.retries", retried);
    ctx.count("faults.fallbacks", fallbacks);
    ctx.count("interconnect.dropped", dropped);
    ctx.count("health.transitions", transitions);
    ctx.count("health.congestion_events", congested);
    ctx.count("interconnect.plan_requests", requests);
    ctx.count("interconnect.plan_computes", computes);
    ctx.count("proact.reprofile_sweeps", sweeps);

    digest.add(std::uint64_t(ticks)).add(events)
        .add(static_cast<double>(fabric.totalPayloadBytes()))
        .add(static_cast<double>(fabric.totalWireBytes()))
        .add(static_cast<double>(fabric.totalStoreTransactions()))
        .add(static_cast<double>(fabric.rebookedDeliveries()))
        .add(dma_bytes).add(copies).add(retried).add(fallbacks)
        .add(dropped).add(transitions).add(congested).add(requests)
        .add(computes).add(sweeps);
    return ticks;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : xs)
        sum += std::log(x);
    return std::exp(sum / static_cast<double>(xs.size()));
}

double
ratio(Tick num, Tick den)
{
    return static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------
// paper-grid: Fig. 7 on the three quad platforms, plus the Sec. V-B
// ALS store-transaction ratio and a functional slice on 4x Volta.

Profiler::Options
profilerOptions(const Sizes &sizes)
{
    // The benches' default sweep. The PROACT_* variables that would
    // change it are never set here (main() refuses them).
    Profiler::Options options = bench::defaultProfilerOptions();
    if (sizes.quickProfile) {
        options.chunkSizes = {128 * KiB, 1 * MiB};
        options.threadCounts = {2048};
    }
    return options;
}

const std::vector<Paradigm> &
gridParadigms()
{
    static const std::vector<Paradigm> p = {
        Paradigm::UnifiedMemory, Paradigm::CudaMemcpy,
        Paradigm::ProactInline, Paradigm::ProactDecoupled,
        Paradigm::InfiniteBw};
    return p;
}

void
paperGrid(Ctx &ctx)
{
    const auto apps = standardWorkloadNames();
    const auto &paradigms = gridParadigms();
    const int shift = ctx.sizes.gridShift;

    // Per-paradigm speedups over every (platform, app) point that ran.
    std::map<Paradigm, std::vector<double>> speedups;
    std::vector<double> capture;
    for (const PlatformSpec &platform : platformsFor(ctx.settings)) {
        for (const auto &app : apps) {
            std::vector<std::string> labels;
            for (const Paradigm p : paradigms) {
                labels.push_back(platform.name + "/" + app + "/" +
                                 paradigmName(p));
            }
            Tick single = 0;
            std::unique_ptr<Workload> w;
            TransferConfig tuned;
            try {
                auto ref = makeInput(ctx, {app, shift, 1, footprint});
                Digest unused;
                single = simulate(ctx, platform.withGpuCount(1), *ref,
                                  Paradigm::InfiniteBw, {}, false,
                                  nullptr, unused,
                                  "runtime.run.reference");
                w = makeInput(ctx,
                              {app, shift, platform.numGpus, footprint});
                Scope span(ctx.tracer, "proact.profile");
                Profiler profiler(platform, profilerOptions(ctx.sizes));
                const ProfileResult prof = profiler.profile(*w);
                ctx.count("proact.profile_candidates",
                          static_cast<double>(prof.entries.size()));
                tuned = prof.bestDecoupled().config;
            } catch (const std::exception &e) {
                failOps(ctx, labels, e.what());
                continue;
            }

            std::map<Paradigm, double> point;
            for (std::size_t i = 0; i < paradigms.size(); ++i) {
                const Paradigm p = paradigms[i];
                runOp(ctx, labels[i], [&](Digest &d) {
                    const Tick t = simulate(ctx, platform, *w, p, tuned,
                                            false, nullptr, d,
                                            "runtime.run." +
                                                paradigmKey(p));
                    point[p] = ratio(single, t);
                    d.add(std::uint64_t(single)).add(tuned.toString());
                    return true;
                });
            }
            for (const auto &[p, s] : point)
                speedups[p].push_back(s);
            const auto inl = point.find(Paradigm::ProactInline);
            const auto dec = point.find(Paradigm::ProactDecoupled);
            const auto inf = point.find(Paradigm::InfiniteBw);
            if (inl != point.end() && dec != point.end() &&
                inf != point.end())
                capture.push_back(std::max(inl->second, dec->second) /
                                  inf->second);
        }
    }

    // Sec. V-B: ALS wire store transactions, inline vs decoupled.
    double inline_txns = 0.0, decoupled_txns = 0.0;
    {
        const PlatformSpec volta = voltaPlatform();
        std::unique_ptr<Workload> als;
        for (const auto mech :
             {TransferMechanism::Inline, TransferMechanism::Polling}) {
            const bool inl = mech == TransferMechanism::Inline;
            runOp(ctx,
                  std::string("4x Volta/ALS/store-txns/") +
                      (inl ? "inline" : "decoupled"),
                  [&](Digest &d) {
                      if (!als) {
                          als = makeInput(ctx, {"ALS", shift, 4,
                                                footprint});
                      }
                      TransferConfig config = fixedConfig();
                      config.mechanism = mech;
                      config.chunkBytes = 128 * KiB;
                      const Paradigm p = inl ? Paradigm::ProactInline
                                             : Paradigm::ProactDecoupled;
                      const double before =
                          ctx.result.counts["interconnect.store_txns"];
                      simulate(ctx, volta, *als, p, config, false,
                               nullptr, d, "runtime.run." + paradigmKey(p));
                      (inl ? inline_txns : decoupled_txns) =
                          ctx.result.counts["interconnect.store_txns"] -
                          before;
                      return true;
                  });
        }
    }

    // Functional slice: real math on 4x Volta, verified per run.
    {
        const PlatformSpec volta = voltaPlatform();
        for (const auto &app : apps) {
            for (const Paradigm p : paradigms) {
                runOp(ctx,
                      "verify/" + volta.name + "/" + app + "/" +
                          paradigmName(p),
                      [&](Digest &d) {
                          auto w = makeInput(
                              ctx, {app, ctx.sizes.verifyShift, 4, 1});
                          simulate(ctx, volta, *w, p, fixedConfig(), true,
                                   nullptr, d,
                                   "runtime.run." + paradigmKey(p));
                          return verifyInput(ctx, *w);
                      });
            }
        }
    }

    // Relative error against the values fig07_endtoend prints.
    std::vector<double> errors;
    auto gap = [&](double sim, double paper) {
        if (sim > 0.0)
            errors.push_back(std::fabs(sim - paper) / paper);
    };
    const double inf_geo = geomean(speedups[Paradigm::InfiniteBw]);
    const double memcpy_geo = geomean(speedups[Paradigm::CudaMemcpy]);
    const double capture_geo = geomean(capture);
    const double als_ratio =
        decoupled_txns > 0.0 ? inline_txns / decoupled_txns : 0.0;
    gap(inf_geo, 3.6);
    gap(capture_geo, 0.83);
    gap(memcpy_geo, 2.1);
    gap(als_ratio, 26.0);
    auto &fid = ctx.result.fidelity;
    fid["sim.infinite_bw_geomean"] = {inf_geo, "x"};
    fid["sim.proact_capture"] = {capture_geo, "ratio"};
    fid["sim.cudamemcpy_geomean"] = {memcpy_geo, "x"};
    fid["sim.als_store_ratio"] = {als_ratio, "x"};
    if (!errors.empty()) {
        double sum = 0.0;
        for (const double e : errors)
            sum += e;
        fid["paper_gap_pct"] = {
            100.0 * sum / static_cast<double>(errors.size()), "%"};
    }
}

// ---------------------------------------------------------------------
// scale-out: the two graph-free apps from one DGX-2 to 4x16 GPUs.

const std::vector<std::string> &
scaleOutApps()
{
    static const std::vector<std::string> apps = {"Jacobi", "X-ray CT"};
    return apps;
}

void
scaleOut(Ctx &ctx)
{
    const std::vector<Paradigm> paradigms = {Paradigm::CudaMemcpy,
                                             Paradigm::ProactInline,
                                             Paradigm::ProactDecoupled};
    for (const PlatformSpec &platform : platformsFor(ctx.settings)) {
        for (const auto &app : scaleOutApps()) {
            std::unique_ptr<Workload> w;
            for (const Paradigm p : paradigms) {
                runOp(ctx, platform.name + "/" + app + "/" + paradigmName(p),
                      [&](Digest &d) {
                          if (!w) {
                              w = makeInput(ctx, {app, ctx.sizes.scaleShift,
                                                  platform.numGpus,
                                                  footprint});
                          }
                          simulate(ctx, platform, *w, p, fixedConfig(),
                                   false, nullptr, d,
                                   "runtime.run." + paradigmKey(p));
                          return true;
                      });
            }
        }
    }
}

// ---------------------------------------------------------------------
// scale-out's faulted slice: the same apps on DGX-2 and 2x16 under
// seeded fault plans, run clean, retry-only and with the whole
// adaptive stack.

/**
 * Link degrade/down episodes plus MTBF flaps, placed inside the
 * clean run's makespan so every plan strikes mid-run. Each plan is
 * small and every point runs several, so how hard one plan happens
 * to hit averages out over a pass instead of setting its cost.
 */
FaultPlan
faultPlan(std::uint64_t seed, int gpus, Tick clean)
{
    RandomFaultOptions opts;
    opts.numEvents = 8;
    opts.earliestStart = clean / 10;
    opts.latestStart = clean / 2;
    opts.minDuration = std::max<Tick>(1, clean / 20);
    opts.maxDuration = std::max<Tick>(opts.minDuration, clean / 4);
    FaultPlan plan = randomFaultPlan(seed, gpus, opts);

    LinkLifecycleOptions flaps;
    flaps.mtbf = std::max<Tick>(1, clean / 3);
    flaps.mttr = std::max<Tick>(1, clean / 20);
    flaps.horizon = clean;
    const FaultPlan extra =
        mtbfFaultPlan(deriveSeed(seed, 1), gpus, 4, flaps);
    plan.episodes.insert(plan.episodes.end(), extra.episodes.begin(),
                         extra.episodes.end());
    // One link dies for good a quarter into the run. Without it about
    // half the plans never trip the health monitor, and the adaptive
    // run's host cost jumps ~20x between plans, i.e. between seeds.
    Rng pick(deriveSeed(seed, 2));
    const int src = static_cast<int>(pick.below(gpus));
    const int dst = (src + 1 + static_cast<int>(pick.below(gpus - 1))) % gpus;
    plan.downLink(clean / 4, maxTick, src, dst);
    plan.validate(gpus);
    return plan;
}

void
faultedSlice(Ctx &ctx)
{
    std::vector<double> retained, retained_retry;
    std::uint64_t point = 0;
    for (const PlatformSpec &platform : faultPlatforms(ctx.settings)) {
        for (const auto &app : scaleOutApps()) {
            ++point;
            const Input in{app, ctx.sizes.faultShift, platform.numGpus,
                           footprint};
            const std::string where = platform.name + "/" + app + "/";
            std::unique_ptr<Workload> w;
            Tick clean = 0;
            runOp(ctx, where + "clean", [&](Digest &d) {
                w = makeInput(ctx, in);
                clean = simulate(ctx, platform, *w,
                                 Paradigm::ProactDecoupled, fixedConfig(),
                                 false, nullptr, d,
                                 "runtime.run.proact_decoupled");
                return true;
            });
            for (int k = 0; k < ctx.sizes.faultPlans; ++k) {
                const std::string tag = where + "plan" + std::to_string(k);
                if (clean == 0) {
                    failOps(ctx, {tag + "/retry-only", tag + "/adaptive"},
                            "clean run failed");
                    continue;
                }
                const std::uint64_t stream = 100 * point + k;
                Arming arming;
                arming.faults = faultPlan(
                    pickSeed(ctx.settings, 2024 + stream, stream),
                    platform.numGpus, clean);
                Tick retry = 0, adaptive = 0;
                runOp(ctx, tag + "/retry-only", [&](Digest &d) {
                    retry = simulate(ctx, platform, *w,
                                     Paradigm::ProactDecoupled,
                                     fixedConfig(), false, &arming, d,
                                     "runtime.run.proact_decoupled");
                    return true;
                });
                arming.adaptive = true;
                arming.reprofileFactory = [&ctx, in](int gpus) {
                    Input sweep = in;
                    sweep.gpus = gpus;
                    return makeInput(ctx, sweep);
                };
                runOp(ctx, tag + "/adaptive", [&](Digest &d) {
                    adaptive = simulate(ctx, platform, *w,
                                        Paradigm::ProactDecoupled,
                                        fixedConfig(), false, &arming, d,
                                        "runtime.run.proact_decoupled");
                    return true;
                });
                if (adaptive > 0)
                    retained.push_back(ratio(clean, adaptive));
                if (retry > 0)
                    retained_retry.push_back(ratio(clean, retry));
            }
        }
    }
    if (!retained.empty()) {
        ctx.result.fidelity["sim.goodput_retained"] = {geomean(retained),
                                                       "ratio"};
    }
    if (!retained_retry.empty()) {
        ctx.result.fidelity["sim.goodput_retained_retry_only"] = {
            geomean(retained_retry), "ratio"};
    }
}

// ---------------------------------------------------------------------
// fleet-serve: one seeded mixed-registry job stream on a DGX-2 with
// recovery armed and a device-loss campaign.

/**
 * Every victimStride-th job loses a GPU on its first attempt. Lost
 * GPUs stay quarantined, so the stride keeps the campaign to a few
 * losses over the whole stream (bench/fault_recovery: 4 of 24 jobs).
 */
constexpr int victimStride = 24;

bool
isVictim(const fleet::JobSpec &job)
{
    return job.id % victimStride == 1;
}

/**
 * The seeded stream with its mix balanced: every (application, width)
 * pair the ArrivalModel can draw appears equally often, in an order
 * the seed shuffles, and the jobs that lose a GPU (every
 * victimStride-th) are one 4-GPU job of each application, in seeded
 * order. Arrivals, priorities and deadlines stay as generated.
 * Without the balancing the number of heavy jobs (ALS, 8-GPU) and the
 * kind of job that loses a GPU drift with the seed, and the pass time
 * with them.
 */
std::vector<fleet::JobSpec>
jobStream(const Settings &settings, const Sizes &sizes)
{
    fleet::ArrivalModel model;
    model.seed = pickSeed(settings, 7, 200);
    model.numJobs = sizes.fleetJobs;
    std::vector<fleet::JobSpec> jobs = fleet::generateJobStream(model);

    using Kind = std::pair<std::string, int>;
    std::vector<Kind> mix;
    for (const auto &app : standardWorkloadNames()) {
        for (const int gpus : model.gpuCounts)
            mix.push_back({app, gpus});
    }
    std::vector<Kind> order;
    while (order.size() < jobs.size())
        order.insert(order.end(), mix.begin(), mix.end());
    order.resize(jobs.size());

    // Take one 4-GPU job of each application out for the victims.
    const auto losses = static_cast<std::size_t>(
        std::count_if(jobs.begin(), jobs.end(), isVictim));
    std::vector<Kind> victims;
    for (const auto &app : standardWorkloadNames()) {
        const auto it = std::find(order.begin(), order.end(), Kind{app, 4});
        if (victims.size() == losses)
            break;
        if (it != order.end()) {
            victims.push_back(*it);
            order.erase(it);
        }
    }
    Rng shuffle(deriveSeed(model.seed, 202));
    auto permute = [&shuffle](std::vector<Kind> &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[shuffle.below(i)]);
    };
    permute(order);
    permute(victims);
    std::size_t next = 0, victim = 0;
    for (auto &job : jobs) {
        const Kind &kind = isVictim(job) && victim < victims.size()
            ? victims[victim++]
            : order[next++];
        job.workload = kind.first;
        job.gpus = kind.second;
    }
    return jobs;
}

void
fleetServe(Ctx &ctx)
{
    const PlatformSpec platform = platformsFor(ctx.settings).front();
    const auto jobs = jobStream(ctx.settings, ctx.sizes);
    const std::uint64_t loss_seed = pickSeed(ctx.settings, 9, 201);

    fleet::FleetSession::Options options;
    options.recovery.enabled = true;
    options.chargeElections = false;
    options.faultPlanFor = [loss_seed](const fleet::JobSpec &job,
                                       int attempt) {
        FaultPlan plan;
        if (attempt != 0 || !isVictim(job))
            return plan;
        // Shift-6 jobs serve for ~1-6 ms: a loss in [300, 600) us
        // lands mid-run.
        const Tick at = 300 * ticksPerMicrosecond +
            deriveSeed(loss_seed, static_cast<std::uint64_t>(job.id)) %
                (300 * ticksPerMicrosecond);
        plan.downGpu(at, maxTick, job.id % job.gpus);
        return plan;
    };

    fleet::FleetReport report;
    try {
        Scope span(ctx.tracer, "fleet.serve");
        fleet::FleetSession session(platform, options);
        report = session.serve(jobs);
    } catch (const std::exception &e) {
        std::vector<std::string> labels;
        for (const auto &job : jobs)
            labels.push_back("job" + std::to_string(job.id));
        failOps(ctx, labels, e.what());
        return;
    }

    std::map<int, const fleet::TenantRecord *> finished;
    for (const auto &t : report.tenants)
        finished[t.job.id] = &t;
    for (const auto &job : jobs) {
        runOp(ctx, "job" + std::to_string(job.id) + "/" + job.workload,
              [&](Digest &d) {
                  const auto it = finished.find(job.id);
                  if (it == finished.end())
                      throw std::runtime_error("job never completed");
                  const fleet::TenantRecord &t = *it->second;
                  if (t.run.aborted)
                      throw std::runtime_error("job aborted");
                  d.add(std::uint64_t(t.admitted))
                      .add(std::uint64_t(t.serviceTicks))
                      .add(std::uint64_t(t.latency))
                      .add(std::uint64_t(t.attempt))
                      .add(std::uint64_t(t.run.ticks))
                      .add(static_cast<double>(t.run.wireBytes))
                      .add(t.run.paradigm == Paradigm::ProactDecoupled
                               ? t.election.config.toString()
                               : paradigmName(t.run.paradigm));
                  return true;
              });
    }

    ctx.count("fleet.election_sweeps",
              static_cast<double>(report.electionSweeps));
    ctx.count("fleet.election_hits",
              static_cast<double>(report.electionCacheHits));
    ctx.count("fleet.deferred_capacity",
              static_cast<double>(report.deferredCapacity));
    ctx.count("fleet.deferred_congestion",
              static_cast<double>(report.deferredCongestion));
    ctx.count("fleet.recoveries",
              static_cast<double>(report.recoveries.size()));
    ctx.count("fleet.lost_work_p95_us",
              static_cast<double>(report.lostWorkP95) /
                  static_cast<double>(ticksPerMicrosecond));
    for (const auto &t : report.tenants) {
        ctx.count("interconnect.payload_bytes",
                  static_cast<double>(t.run.payloadBytes));
        ctx.count("interconnect.wire_bytes",
                  static_cast<double>(t.run.wireBytes));
        ctx.count("interconnect.store_txns",
                  static_cast<double>(t.run.storeTransactions));
        ctx.count("faults.retries", static_cast<double>(t.run.retries));
        ctx.count("faults.fallbacks",
                  static_cast<double>(t.run.fallbacks));
        ctx.count("health.transitions",
                  static_cast<double>(t.run.linkTransitions));
        ctx.count("health.congestion_events",
                  static_cast<double>(t.run.congestionEvents));
    }
    ctx.result.fidelity["sim.fleet_p95_ms"] = {
        static_cast<double>(report.p95) /
            static_cast<double>(ticksPerMillisecond),
        "ms"};
    ctx.result.fidelity["sim.fleet_jobs_per_s"] = {
        report.throughputJobsPerSec, "1/s"};
}

// ---------------------------------------------------------------------
// Distinct inputs per workload, for set-up.

std::vector<Input>
distinctInputs(const Settings &settings)
{
    const Sizes sizes = sizesFor(settings);
    std::vector<Input> inputs;
    if (settings.workload == "paper-grid") {
        for (const auto &app : standardWorkloadNames()) {
            inputs.push_back({app, sizes.gridShift, 1, footprint});
            inputs.push_back({app, sizes.gridShift, 4, footprint});
            inputs.push_back({app, sizes.verifyShift, 4, 1});
        }
    } else if (settings.workload == "scale-out") {
        for (const auto &platform : platformsFor(settings)) {
            for (const auto &app : scaleOutApps())
                inputs.push_back({app, sizes.scaleShift, platform.numGpus,
                                  footprint});
        }
        for (const auto &platform : faultPlatforms(settings)) {
            for (const auto &app : scaleOutApps())
                inputs.push_back({app, sizes.faultShift, platform.numGpus,
                                  footprint});
        }
    }
    return inputs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-grid", "scale-out", "fleet-serve"};
    return names;
}

void
setUp(const Settings &settings, Tracer &tracer)
{
    Ctx ctx(settings, tracer);
    {
        Scope span(tracer, "system.platforms");
        platformsFor(settings);
    }
    if (settings.workload == "fleet-serve") {
        // The fleet builds its inputs itself from the registry at
        // its default scale shift; set-up builds each distinct
        // (application, width) the stream asks for the same way.
        std::set<std::pair<std::string, int>> seen;
        for (const auto &job : jobStream(settings, ctx.sizes))
            seen.insert({job.workload, job.gpus});
        for (const auto &[app, gpus] : seen) {
            Scope span(tracer, "workloads.setup");
            auto w = makeWorkload(app,
                                  fleet::FleetSession::Options{}.scaleShift);
            w->setup(gpus);
        }
        return;
    }
    for (const Input &in : distinctInputs(settings))
        makeInput(ctx, in);
}

PassResult
runPass(const Settings &settings, Tracer &tracer)
{
    Ctx ctx(settings, tracer);
    Scope span(tracer, "bench.pass");
    if (settings.workload == "paper-grid")
        paperGrid(ctx);
    else if (settings.workload == "scale-out") {
        scaleOut(ctx);
        faultedSlice(ctx);
    }
    else if (settings.workload == "fleet-serve")
        fleetServe(ctx);
    else
        throw std::invalid_argument("unknown workload " + settings.workload);
    ctx.result.tailSeconds = ctx.lap();
    return std::move(ctx.result);
}

} // namespace perfbench
