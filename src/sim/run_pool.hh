/**
 * @file
 * Deterministic run-level worker pool.
 *
 * A simulation is serial: one EventQueue drives one system. What
 * parallelizes is the work *around* simulations — a profiler sweep,
 * a bench grid, a batch of seeds — where every index is an
 * independent run on its own fresh system. runIndexed() fans such a
 * batch out over a few threads; callers write each run's result into
 * slot i of a pre-sized vector, so the outcome is identical to the
 * serial loop whatever the schedule.
 */

#ifndef PROACT_SIM_RUN_POOL_HH
#define PROACT_SIM_RUN_POOL_HH

#include <cstddef>
#include <functional>

namespace proact {

/**
 * Worker count requested by PROACT_SIM_SHARDS (0/unset/1 =
 * sequential, clamped to [0, 64]). It sizes the profiler's parallel
 * candidate sweep and defaults to off so plain runs stay serial.
 */
int envSimShards();

/** Work applied to each claimed index. */
using IndexTask = std::function<void(std::size_t index)>;

/**
 * Apply a task to every index in [0, @p count) on
 * min(@p workers, count) threads, the calling thread included
 * (workers <= 1 runs the plain serial loop). @p make_task runs once
 * per worker, on that worker's thread, and returns the task the
 * worker applies to each index it claims — per-worker state (a
 * private workload instance, say) lives in the task's captures.
 * Indices are claimed in ascending order. The first exception any
 * worker throws is rethrown once every thread has joined.
 */
void runIndexed(std::size_t count, int workers,
                const std::function<IndexTask()> &make_task);

} // namespace proact

#endif // PROACT_SIM_RUN_POOL_HH
