/**
 * @file
 * One-string digest of a ParadigmRun, for double-run determinism
 * checks: two runs of the same configuration must agree on every
 * field.
 */

#ifndef PROACT_TESTS_RUN_DIGEST_HH
#define PROACT_TESTS_RUN_DIGEST_HH

#include "harness/session.hh"

#include <sstream>
#include <string>

namespace proact::test {

/** Every ParadigmRun field (and the summary line) in one string. */
inline std::string
runDigest(const ParadigmRun &r)
{
    std::ostringstream os;
    os << paradigmName(r.paradigm) << " ticks=" << r.ticks
       << " speedup=" << r.speedup << " wire=" << r.wireBytes
       << " payload=" << r.payloadBytes
       << " stores=" << r.storeTransactions
       << " dropped=" << r.faultsDropped << " retries=" << r.retries
       << " fallbacks=" << r.fallbacks
       << " transitions=" << r.linkTransitions << "/"
       << r.wireTransitions << " congested=" << r.congestionEvents
       << " reroutes=" << r.reroutes << " swaps=" << r.configSwaps
       << " aborted=" << r.aborted << " lost=" << r.lostGpu
       << " iters=" << r.completedIterations
       << " ckpt=" << r.checkpointIteration << "/" << r.checkpoints
       << "/" << r.checkpointTicks
       << " refused=" << r.refusedDeliveries
       << " quiesced=" << r.quiescedFlights
       << " orphaned=" << r.orphanedTransfers
       << " sweeps=" << r.reprofileSweeps << " ["
       << r.faultSummary() << "]";
    return os.str();
}

} // namespace proact::test

#endif // PROACT_TESTS_RUN_DIGEST_HH
