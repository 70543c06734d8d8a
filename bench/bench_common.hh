/**
 * @file
 * Shared machinery for the paper-reproduction harnesses.
 *
 * Every bench binary regenerates one table or figure of the paper.
 * Runs execute in timing-only mode (kernels report footprints without
 * doing the math — timing is independent of data values by
 * construction), with workload footprints scaled by
 * PROACT_FOOTPRINT_SCALE (default 16) to reach the paper's
 * application scales; numerical correctness is covered by the test
 * suite instead. Paradigm construction comes from the harness
 * library (harness/paradigm.hh).
 */

#ifndef PROACT_BENCH_BENCH_COMMON_HH
#define PROACT_BENCH_BENCH_COMMON_HH

#include "harness/paradigm.hh"
#include "harness/session.hh"
#include "proact/profiler.hh"
#include "proact/runtime.hh"
#include "system/multi_gpu_system.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace proact::bench {

using proact::allParadigms;
using proact::Paradigm;
using proact::paradigmName;

/** Footprint scale from PROACT_FOOTPRINT_SCALE (default 16). */
std::uint64_t envFootprintScale();

/**
 * Execute @p workload on a fresh system for @p platform under the
 * given paradigm, timing-only.
 *
 * @param config Decoupled transfer config (ProactDecoupled only).
 * @return Simulated makespan in ticks.
 */
Tick runParadigm(const PlatformSpec &platform, Workload &workload,
                 Paradigm paradigm,
                 const TransferConfig &config = {});

/**
 * Single-GPU reference time for speedup normalization: the workload
 * set up for one GPU on the same GPU/fabric generation.
 */
Tick singleGpuReference(const PlatformSpec &platform,
                        const std::string &workload_name,
                        std::uint64_t footprint_scale);

/** Create a standard workload, set up and footprint-scaled. */
std::unique_ptr<Workload>
makeScaledWorkload(const std::string &name, int num_gpus,
                   std::uint64_t footprint_scale);

/** Reduced profiling options honouring PROACT_QUICK. */
Profiler::Options defaultProfilerOptions();

/**
 * Write a bench's machine-readable summary to $PROACT_BENCH_JSON, or
 * to @p default_name when that is unset or empty.
 *
 * @return The path written.
 */
std::string writeBenchJson(const std::string &default_name,
                           const std::string &json);

/** Print a right-aligned numeric cell. */
std::string cell(double value, int width = 8, int precision = 2);

} // namespace proact::bench

#endif // PROACT_BENCH_BENCH_COMMON_HH
