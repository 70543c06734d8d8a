/**
 * @file
 * Topology-aware detours and route-splitting around unhealthy links.
 *
 * The Rerouter consults a LinkStateProvider (normally the
 * LinkHealthMonitor) before a transfer books wire time. A DOWN direct
 * link means the payload detours around it: the fan-out of healthy
 * single-relay candidates splits the payload proportionally to their
 * residual bandwidth (GPU0 -> GPUk -> GPU1 for several k when the
 * 0<->1 link died), and when no single relay survives — a whole
 * NVSwitch plane or baseboard down — a bounded shortest-path search
 * over the health-filtered topology finds a multi-relay chain. A
 * DEGRADED direct link splits the payload between the direct link and
 * the relay fan-out, proportionally to residual bandwidth. Relay
 * paths cost extra wire, so their score is discounted before
 * competing with the direct link.
 *
 * Plans are cached per (src, dst) and evicted by push: the owner
 * routes the health monitor's transition listener into
 * onLinkTransition(). A plan computed while the direct link was
 * HEALTHY (or CONGESTED) read only that link, so only that link's
 * wire transitions evict it; any other plan read the whole row/column
 * (relay scores), so a wire transition of a link leaving src or
 * entering dst evicts it too. On a 16-GPU DGX-2 under a dead
 * baseboard this means the 184 still-healthy pairs never recompute
 * while relay-loaded links flap, and a transition invalidates at most
 * 2n-1 of the n^2 plans; a lookup on a quiet fabric is one flag
 * check. A rerouter nobody wires to a listener keeps its first plan
 * per pair, which is right only for a provider that never changes.
 *
 * The rerouter never submits traffic itself: callers hand it a submit
 * functor (RetryingSender::send, Interconnect::transfer, ...) and the
 * rerouter decomposes the request into legs, forwarding each hop
 * through that functor. The original onComplete fires exactly once,
 * when the last leg has fully landed, so delivery accounting upstream
 * (e.g. ProactRuntime's expected-vs-seen counters) is preserved. All
 * decisions are pure functions of the health snapshot, so runs
 * replay tick-for-tick.
 */

#ifndef PROACT_INTERCONNECT_REROUTER_HH
#define PROACT_INTERCONNECT_REROUTER_HH

#include "interconnect/interconnect.hh"
#include "interconnect/link_state.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

#include <cstdint>
#include <functional>
#include <vector>

namespace proact {

/**
 * Plans alternate routes from the live link-health classification.
 *
 * Stats (read via stats()):
 *  - reroute.detours:          transfers moved entirely off a DOWN link
 *  - reroute.splits:           transfers split across multiple legs
 *  - reroute.relay_hops:       relay-hop submissions (one per via)
 *  - reroute.bytes_detoured:   payload bytes that avoided the direct link
 *  - reroute.no_path:          DOWN link with no usable route at all
 *                              (sent direct; the retry fallback
 *                              guarantees it)
 *  - reroute.plan_requests:    route lookups (one per send)
 *  - reroute.plan_computes:    lookups that had to compute the plan
 *  - reroute.plan_cache_hits:  lookups served from the cache
 *  - reroute.push_invalidations: wire transitions that evicted cache
 *                              entries via the monitor listener
 *  - reroute.push_ignored:     congestion-only transitions the push
 *                              listener left the cache alone for
 */
class Rerouter
{
  public:
    /**
     * One planned leg: a relay chain src -> vias... -> dst carrying a
     * fraction of the payload. An empty via list is the direct link.
     */
    struct Leg
    {
        std::vector<int> vias;
        double fraction = 1.0;

        bool direct() const { return vias.empty(); }

        /** First relay GPU, or -1 for the direct leg. */
        int via() const { return vias.empty() ? -1 : vias.front(); }
    };

    /** Functor that actually books a (single-link) transfer. */
    using Submit = std::function<Tick(const Interconnect::Request &)>;

    /**
     * Don't bother splitting when a leg would carry less than this
     * fraction of the payload (overhead beats benefit).
     */
    static constexpr double minSplitFraction = 0.15;

    /**
     * Longest detour the relay-chain fallback may plan, counted in
     * relay GPUs (a path src -> a -> b -> dst has two). Bounds
     * planning cost and keeps pathological detours off large fabrics.
     */
    static constexpr int maxRelayHops = 3;

    Rerouter(EventQueue &eq, Interconnect &fabric,
             const LinkStateProvider &health);

    /**
     * Current route decision for src -> dst: one direct leg when the
     * link is healthy (or nothing better exists), a relay fan-out
     * (or, failing that, one multi-relay chain) when it is DOWN, or a
     * proportional direct+relay split when it is DEGRADED.
     *
     * Served from the push-invalidated cache: the plan is recomputed
     * after a wire transition it read, and a relay plan otherwise at
     * most once per plan TTL while relay conditions drift. Split
     * fractions therefore reflect the residual bandwidth observed at
     * the last recompute, not the per-delivery EWMA drift in between.
     */
    const std::vector<Leg> &plan(int src, int dst) const;

    /**
     * Healthy single-relay candidates for src -> dst, best first.
     * Equal scores order by a deterministic per-pair rotation, so
     * different pairs spread their detours across different relays
     * instead of all hammering the lowest ids. Distinct relays are
     * vertex-disjoint detours by construction, so candidates.size()
     * counts the fabric's redundancy for this pair.
     */
    std::vector<int> relayCandidates(int src, int dst) const;

    /**
     * Decompose @p req along plan(src, dst) and forward every leg
     * through @p submit. The request's onComplete fires exactly once,
     * after all legs (including relay hops) have landed.
     *
     * @return Predicted delivery tick of the slowest first-hop leg —
     *         exact for direct routes, a lower bound when a relay's
     *         later hops extend past it.
     */
    Tick send(const Submit &submit, Interconnect::Request req);

    /**
     * Health-transition listener entry. Wire transitions
     * (DEGRADED/DOWN on either side) evict exactly the entries that
     * could have read the link: the pair itself, plus every non-
     * direct-only plan in row @p src or column @p dst. Congestion-
     * only flips (HEALTHY <-> CONGESTED) leave the cache alone —
     * that is what makes pure congestion produce zero recomputes.
     */
    void onLinkTransition(int src, int dst, LinkState from,
                          LinkState to);

    /** Rerouting statistics. */
    const StatSet &stats() const { return _stats; }

  private:
    EventQueue &_eq;
    Interconnect &_fabric;
    const LinkStateProvider &_health;
    mutable StatSet _stats;

    /**
     * Plan cache, indexed src * numGpus + dst. onLinkTransition()
     * clears _cacheValid; entries that read relay links also expire
     * after the plan TTL, counted from _cachedTicks.
     */
    mutable std::vector<std::vector<Leg>> _cachedPlans;
    mutable std::vector<Tick> _cachedTicks;
    mutable std::vector<char> _cacheDirectOnly;
    mutable std::vector<char> _cacheValid;

    /**
     * Which fabric tiers the cached plan read, as a bitmask of
     * kTierIntra / kTierInter. On a multi-node fabric an intra-node
     * pair whose plan never consulted a foreign-node relay carries
     * kTierIntra alone, so onLinkTransition() skips it when a
     * network-tier link flaps — cross-node flaps invalidate
     * independently of intra-node ones. Single-node fabrics always
     * read kTierIntra.
     */
    mutable std::vector<unsigned char> _cacheTierMask;

    static constexpr unsigned char kTierIntra = 1;
    static constexpr unsigned char kTierInter = 2;

    /** Tier bit of the (a, b) link on this fabric. */
    unsigned char tierBit(int a, int b) const;

    std::vector<Leg> computePlan(int src, int dst,
                                 unsigned char &tier_mask) const;

    /**
     * Score multiplier a leg pays for congestion on src -> dst: 1 on
     * a non-congested link, the flat congested-leg penalty otherwise.
     */
    double congestionWeight(int src, int dst) const;

    /**
     * Scored single-relay candidates (relay id, discounted score),
     * best first; empty when no relay has usable bandwidth on both
     * legs. Ties break by a deterministic per-pair rotation of the
     * relay ids (load spreading without randomness).
     *
     * On a multi-node fabric candidates are hierarchical: relays in
     * the endpoints' own nodes are scored first (one network hop for
     * a cross-node pair, zero for an intra-node one), and foreign-
     * node relays are consulted only when no endpoint-node relay has
     * usable bandwidth. @p used_foreign, when non-null, reports
     * whether foreign-node relays were consulted at all — even an
     * empty fallback read network-tier links, which widens the
     * plan's tier mask.
     */
    std::vector<std::pair<int, double>>
    scoredRelays(int src, int dst,
                 bool *used_foreign = nullptr) const;

    /**
     * Relay GPUs of the shortest src -> dst chain over non-DOWN
     * links, at most maxRelayHops of them; empty when the destination
     * is unreachable within the bound. Chains minimize network-tier
     * hops first, then edge count, so a detour never crosses a node
     * boundary more often than the surviving topology forces it to;
     * on a single node every chain has zero network hops and this is
     * the fewest-edges chain. Among equal chains each node keeps its
     * lowest-id predecessor.
     */
    std::vector<int> relayChain(int src, int dst) const;

    /**
     * Proportional fractions for weighted legs, collapsing legs below
     * minSplitFraction and renormalizing the survivors.
     */
    static std::vector<double>
    splitFractions(const std::vector<double> &weights);

    /** Submit one leg carrying @p bytes; joins via @p arrived. */
    Tick sendLeg(const Submit &submit,
                 const Interconnect::Request &base, const Leg &leg,
                 std::uint64_t bytes,
                 const std::function<void()> &arrived);
};

} // namespace proact

#endif // PROACT_INTERCONNECT_REROUTER_HH
