#include "interconnect/rerouter.hh"

#include <algorithm>
#include <limits>
#include <memory>

namespace proact {

namespace {

/** Don't split payloads smaller than this. */
constexpr std::uint64_t minSplitBytes = 4 * KiB;

/**
 * Relay paths consume wire on two links; a single relay's
 * residual-bandwidth score is multiplied by this once before it
 * competes with the direct link. Multi-relay chains are a last-resort
 * fallback and are not scored.
 */
constexpr double relayDiscount = 0.5;

/**
 * How many single-relay candidates a detour or split fans out
 * across. On a DGX-2 a dead pair leaves 14 healthy relays; spreading
 * the payload over several of them multiplies the detour bandwidth
 * instead of hammering one relay's wires.
 */
constexpr int maxRelayFanout = 4;

/**
 * A relay only joins a DEGRADED-link split when its discounted
 * bottleneck score beats the direct residual by this factor. A relay
 * leg consumes egress wire at the source AND at the relay, so a
 * marginal win is a real loss — notably when the whole fabric
 * degrades uniformly (a dead NVSwitch plane) and momentarily-healthy
 * relay legs would otherwise siphon payload onto equally-degraded
 * wires and congest them further. The split stays reserved for severe
 * degradation, where the direct link is nearly useless; DOWN-link
 * detours are unaffected.
 */
constexpr double relayAdvantage = 2.0;

/**
 * Staleness tolerance for cached relay plans. A wire transition a
 * plan read always evicts it (its shape may be wrong); drift in
 * *relay* conditions — endpoint congestion flapping links between
 * HEALTHY and CONGESTED — only re-weights split fractions, so a relay
 * plan tolerates it for up to this long before recomputing.
 */
constexpr Tick planTtl = 200 * ticksPerMicrosecond;

/**
 * Spread-don't-detour: a CONGESTED link is never by itself a reason
 * to leave the direct route (the backlog drains when the competing
 * flows do), but when a DOWN or DEGRADED link forces a relay fan-out,
 * each congested relay leg multiplies the relay's score by this
 * factor so payload spreads toward quiet relays first without
 * abandoning congested ones. 1.0 would make scoring congestion-blind.
 */
constexpr double congestedPenalty = 0.5;

static_assert(relayDiscount > 0.0 && relayDiscount <= 1.0);
static_assert(Rerouter::maxRelayHops >= 1);
static_assert(maxRelayFanout >= 1);
static_assert(congestedPenalty > 0.0 && congestedPenalty <= 1.0);
static_assert(planTtl > 0);

} // namespace

Rerouter::Rerouter(EventQueue &eq, Interconnect &fabric,
                   const LinkStateProvider &health)
    : _eq(eq), _fabric(fabric), _health(health)
{
    const std::size_t pairs =
        static_cast<std::size_t>(fabric.numGpus()) * fabric.numGpus();
    _cachedPlans.resize(pairs);
    _cachedTicks.assign(pairs, 0);
    _cacheDirectOnly.assign(pairs, 0);
    _cacheValid.assign(pairs, 0);
    _cacheTierMask.assign(pairs, 0);
}

unsigned char
Rerouter::tierBit(int a, int b) const
{
    return _fabric.interNodePair(a, b) ? kTierInter : kTierIntra;
}

double
Rerouter::congestionWeight(int src, int dst) const
{
    return _health.linkState(src, dst) == LinkState::Congested
        ? congestedPenalty
        : 1.0;
}

std::vector<std::pair<int, double>>
Rerouter::scoredRelays(int src, int dst, bool *used_foreign) const
{
    if (used_foreign)
        *used_foreign = false;

    const auto score = [this](int s, int k, int d) {
        double v = std::min(_health.residualFraction(s, k),
                            _health.residualFraction(k, d))
            * relayDiscount;
        // Spread-don't-detour: congested relay legs keep their full
        // residual (the wire is fine) but score lower, so the fan-out
        // leans toward quiet relays instead of piling onto a port
        // that is already backed up.
        v *= congestionWeight(s, k);
        v *= congestionWeight(k, d);
        return v;
    };

    const FabricSpec &spec = _fabric.spec();
    std::vector<std::pair<int, double>> relays;
    const auto collect = [&](bool endpoint_nodes) {
        for (int k = 0; k < _fabric.numGpus(); ++k) {
            if (k == src || k == dst)
                continue;
            const bool local = !spec.multiNode()
                || spec.sameNode(k, src) || spec.sameNode(k, dst);
            if (local != endpoint_nodes)
                continue;
            const double s = score(src, k, dst);
            if (s > 0.0)
                relays.emplace_back(k, s);
        }
    };

    // Hierarchical candidate classes: relays confined to the
    // endpoints' own nodes first. For a cross-node pair a relay in
    // either endpoint node keeps the detour at one network hop (the
    // same as the direct path), while a third-node relay pays the
    // network tier twice; for an intra-node pair a same-node relay
    // keeps the detour inside the chassis entirely. Foreign-node
    // relays are consulted only when no endpoint-node relay has
    // usable bandwidth — the health model justifying the boundary
    // crossing.
    collect(true);
    if (relays.empty() && spec.multiNode()) {
        // Reading foreign-node scores — even ones that come back
        // unusable — makes the resulting plan depend on network-tier
        // links, so the flag reports the consultation, not its yield.
        if (used_foreign)
            *used_foreign = true;
        collect(false);
    }

    // Equal-score ties order by a per-pair rotation of the relay id:
    // when a dead board leaves every pair the same healthy relay set,
    // different pairs still pick different relays first, spreading
    // detour load across the fabric instead of saturating the lowest
    // ids. Still a pure function of (src, dst, health) — replays are
    // tick-for-tick identical.
    const int n = _fabric.numGpus();
    const auto rotated = [n, src, dst](int id) {
        return (id + n - (src + dst) % n) % n;
    };
    std::sort(relays.begin(), relays.end(),
              [&rotated](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return rotated(a.first) < rotated(b.first);
              });
    return relays;
}

std::vector<int>
Rerouter::relayCandidates(int src, int dst) const
{
    std::vector<int> ids;
    for (const auto &[id, score] : scoredRelays(src, dst))
        ids.push_back(id);
    return ids;
}

std::vector<int>
Rerouter::relayChain(int src, int dst) const
{
    const int n = _fabric.numGpus();
    const int max_edges = maxRelayHops + 1;
    constexpr int unreachable = std::numeric_limits<int>::max();

    // Lexicographic (network hops, edges) shortest chain within the
    // edge bound: a chain that crosses the node boundary twice is
    // never preferred over one that crosses once, no matter how many
    // chassis hops the in-node portion takes. Layer e holds, per
    // node, the fewest network hops of any walk of exactly e edges
    // from src; the answer is the fewest-hops layer at dst, earliest
    // on ties. That walk is a simple chain (cutting a cycle would
    // drop edges without adding network hops). Layering, rather than
    // one best cost per node, keeps the bound exact: the fewest-hops
    // way into a node may be too long to still reach dst in time.
    // On a single node every hop count is 0 and this is the
    // fewest-edges chain. Each node keeps its lowest-id best
    // predecessor, so replays stay tick-for-tick identical.
    const auto at = [n](int e, int node) {
        return static_cast<std::size_t>(e) * n + node;
    };
    std::vector<int> hops(at(max_edges + 1, 0), unreachable);
    std::vector<int> parent(hops.size(), -1);
    hops[at(0, src)] = 0;
    int best = 0;
    for (int e = 1; e <= max_edges; ++e) {
        for (int u = 0; u < n; ++u) {
            if (hops[at(e - 1, u)] == unreachable)
                continue;
            for (int v = 0; v < n; ++v) {
                if (v == u ||
                    _health.linkState(u, v) == LinkState::Down) {
                    continue;
                }
                const int h = hops[at(e - 1, u)]
                    + (_fabric.interNodePair(u, v) ? 1 : 0);
                if (h < hops[at(e, v)]) {
                    hops[at(e, v)] = h;
                    parent[at(e, v)] = u;
                }
            }
        }
        if (hops[at(e, dst)] < hops[at(best, dst)])
            best = e;
        if (hops[at(best, dst)] == 0)
            break; // Nothing beats zero network hops.
    }
    if (best == 0)
        return {};
    std::vector<int> vias;
    for (int e = best, node = parent[at(best, dst)]; e > 1; --e) {
        vias.push_back(node);
        node = parent[at(e - 1, node)];
    }
    std::reverse(vias.begin(), vias.end());
    return vias;
}

std::vector<double>
Rerouter::splitFractions(const std::vector<double> &weights)
{
    std::vector<double> fractions(weights.size(), 0.0);
    double total = 0.0;
    for (const double w : weights)
        total += w;
    if (total <= 0.0)
        return fractions;

    // Collapse legs below the split floor and renormalize the
    // survivors; the heaviest leg always survives.
    std::vector<char> keep(weights.size(), 1);
    for (std::size_t i = 0; i < weights.size(); ++i)
        keep[i] = weights[i] / total >= minSplitFraction ? 1 : 0;
    const std::size_t heaviest = static_cast<std::size_t>(
        std::max_element(weights.begin(), weights.end())
        - weights.begin());
    keep[heaviest] = 1;

    double kept_total = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i)
        if (keep[i])
            kept_total += weights[i];
    for (std::size_t i = 0; i < weights.size(); ++i)
        if (keep[i])
            fractions[i] = weights[i] / kept_total;
    return fractions;
}

std::vector<Rerouter::Leg>
Rerouter::computePlan(int src, int dst,
                      unsigned char &tier_mask) const
{
    tier_mask = tierBit(src, dst);
    const LinkState direct = _health.linkState(src, dst);
    if (direct == LinkState::Healthy ||
        direct == LinkState::Congested) {
        // Congestion is never a reason to detour: the backlog is
        // other flows' traffic and drains with them, while a relay
        // would spend wire on two more ports to dodge it.
        return {Leg{{}, 1.0}};
    }

    const bool multi = _fabric.spec().multiNode();
    bool foreign = false;
    auto relays = scoredRelays(src, dst, &foreign);
    // A cross-node pair's relay legs each pair one chassis link with
    // one network link, and an intra-node pair that had to consult
    // foreign-node relays read the network tier too; either way the
    // plan now depends on both tiers.
    if (multi && (tier_mask == kTierInter || foreign))
        tier_mask = kTierIntra | kTierInter;
    if (static_cast<int>(relays.size()) > maxRelayFanout)
        relays.resize(static_cast<std::size_t>(maxRelayFanout));

    if (direct == LinkState::Down) {
        if (relays.empty()) {
            // No single relay survives (a dead plane can sever every
            // two-hop detour): fall back to the shortest multi-relay
            // chain the health-filtered topology still offers.
            if (multi) {
                // The search scans the whole health-filtered graph.
                tier_mask = kTierIntra | kTierInter;
            }
            std::vector<int> vias = relayChain(src, dst);
            if (vias.empty())
                return {Leg{{}, 1.0}}; // No path: direct + retry.
            return {Leg{std::move(vias), 1.0}};
        }
        std::vector<double> weights;
        for (const auto &[id, score] : relays)
            weights.push_back(score);
        const auto fractions = splitFractions(weights);
        std::vector<Leg> legs;
        for (std::size_t i = 0; i < relays.size(); ++i) {
            if (fractions[i] > 0.0)
                legs.push_back(Leg{{relays[i].first}, fractions[i]});
        }
        return legs;
    }

    // DEGRADED: split between the direct link and the relay fan-out,
    // proportionally to residual bandwidth (relays discounted for
    // their extra wire cost). A relay only joins when its discounted
    // bottleneck beats the direct residual by relayAdvantage — when
    // the whole fabric is degraded uniformly (a dead NVSwitch
    // plane), every detour pays double wire for the same bandwidth
    // and the plan stays direct.
    const double residual = _health.residualFraction(src, dst);
    while (!relays.empty() &&
           relays.back().second <= residual * relayAdvantage) {
        relays.pop_back();
    }
    if (relays.empty())
        return {Leg{{}, 1.0}};
    std::vector<double> weights{residual};
    for (const auto &[id, score] : relays)
        weights.push_back(score);
    const auto fractions = splitFractions(weights);

    std::vector<Leg> legs;
    if (fractions[0] > 0.0)
        legs.push_back(Leg{{}, fractions[0]});
    for (std::size_t i = 0; i < relays.size(); ++i) {
        if (fractions[i + 1] > 0.0)
            legs.push_back(Leg{{relays[i].first}, fractions[i + 1]});
    }
    if (legs.empty())
        return {Leg{{}, 1.0}};
    return legs;
}

const std::vector<Rerouter::Leg> &
Rerouter::plan(int src, int dst) const
{
    _stats.inc("reroute.plan_requests");

    const std::size_t idx =
        static_cast<std::size_t>(src) * _fabric.numGpus() + dst;

    // Wire transitions already evicted every plan they touched, so a
    // set valid flag is authoritative. Relay plans still refresh on
    // the TTL so split weights track slow drift (congestion flips
    // don't evict by design).
    bool valid = _cacheValid.at(idx);
    if (valid && !_cacheDirectOnly[idx])
        valid = _eq.curTick() - _cachedTicks[idx] < planTtl;

    if (valid) {
        _stats.inc("reroute.plan_cache_hits");
    } else {
        _stats.inc("reroute.plan_computes");
        unsigned char tier_mask = kTierIntra;
        _cachedPlans[idx] = computePlan(src, dst, tier_mask);
        _cacheTierMask[idx] = tier_mask;
        // A plan computed on a HEALTHY or CONGESTED direct link read
        // nothing but that link; marking it direct-only exempts it
        // from the TTL and from row/column eviction so relay flapping
        // elsewhere in its row/column can't evict it.
        const LinkState direct = _health.linkState(src, dst);
        _cacheDirectOnly[idx] = (direct == LinkState::Healthy ||
                                 direct == LinkState::Congested)
                                    ? 1
                                    : 0;
        _cachedTicks[idx] = _eq.curTick();
        _cacheValid[idx] = 1;
    }
    return _cachedPlans[idx];
}

void
Rerouter::onLinkTransition(int src, int dst, LinkState from,
                           LinkState to)
{
    if (!isWireTransition(from, to)) {
        // HEALTHY <-> CONGESTED: every cached plan is still the plan
        // we would compute (congestion never changes a plan's shape,
        // only relay tie-breaking weights, which the TTL refreshes).
        _stats.inc("reroute.push_ignored");
        return;
    }
    _stats.inc("reroute.push_invalidations");

    const int n = _fabric.numGpus();
    const std::size_t direct =
        static_cast<std::size_t>(src) * n + dst;
    _cacheValid.at(direct) = 0;
    // Any plan that read this link beyond its own direct entry is a
    // relay plan in row src (a leg leaving src) or column dst (a leg
    // entering dst); direct-only plans elsewhere never read it. The
    // tier mask narrows that further on multi-node fabrics: a relay
    // plan that never read the transitioned link's tier (an in-node
    // detour vs a network-tier flap, or vice versa) kept no stale
    // state, so cross-node flaps invalidate independently of
    // intra-node ones.
    const unsigned char bit = tierBit(src, dst);
    for (int d = 0; d < n; ++d) {
        const std::size_t i = static_cast<std::size_t>(src) * n + d;
        if (!_cacheDirectOnly[i] && (_cacheTierMask[i] & bit))
            _cacheValid[i] = 0;
    }
    for (int s = 0; s < n; ++s) {
        const std::size_t i = static_cast<std::size_t>(s) * n + dst;
        if (!_cacheDirectOnly[i] && (_cacheTierMask[i] & bit))
            _cacheValid[i] = 0;
    }
}

Tick
Rerouter::sendLeg(const Submit &submit,
                  const Interconnect::Request &base, const Leg &leg,
                  std::uint64_t bytes,
                  const std::function<void()> &arrived)
{
    Interconnect::Request req = base;
    req.bytes = bytes;

    if (leg.direct()) {
        req.onComplete = arrived;
        return submit(req);
    }

    _stats.inc("reroute.relay_hops",
               static_cast<double>(leg.vias.size()));
    _stats.inc("reroute.bytes_detoured", bytes);

    // Node sequence src -> vias... -> dst; every hop after the first
    // is submitted on the previous hop's delivery, and only the final
    // hop's delivery counts as arrival. Build the chain back to
    // front.
    std::vector<int> nodes;
    nodes.push_back(req.src);
    for (const int via : leg.vias)
        nodes.push_back(via);
    nodes.push_back(req.dst);

    std::function<void()> tail = arrived;
    for (std::size_t i = nodes.size() - 1; i >= 2; --i) {
        Interconnect::Request hop = req;
        hop.src = nodes[i - 1];
        hop.dst = nodes[i];
        hop.notBefore = 0;
        hop.onComplete = tail;
        tail = [submit, hop] { submit(hop); };
    }

    Interconnect::Request first = req;
    first.dst = nodes[1];
    first.onComplete = tail;
    return submit(first);
}

Tick
Rerouter::send(const Submit &submit, Interconnect::Request req)
{
    std::vector<Leg> legs = plan(req.src, req.dst);

    // Payloads too small to split ride the best single leg whole:
    // the direct link on a DEGRADED split (legs[0]), the best relay
    // on a DOWN fan-out.
    if (legs.size() > 1 && req.bytes < minSplitBytes)
        legs = {Leg{legs[0].vias, 1.0}};

    if (legs.size() == 1 && legs[0].direct()) {
        if (_health.linkState(req.src, req.dst) == LinkState::Down)
            _stats.inc("reroute.no_path");
        return submit(req); // Healthy or no better route: unchanged.
    }

    if (legs.size() == 1) {
        _stats.inc("reroute.detours");
    } else {
        _stats.inc("reroute.splits");
    }

    // Join: the original completion fires once, at the last arrival.
    auto remaining = std::make_shared<int>(
        static_cast<int>(legs.size()));
    const EventQueue::Callback on_complete = req.onComplete;
    const std::function<void()> arrived =
        [remaining, on_complete] {
            if (--*remaining == 0 && on_complete)
                on_complete();
        };

    // Byte split: integer shares, remainder on the first leg; a leg
    // rounded to zero bytes still submits (zero-byte transfers
    // complete immediately) so the join count stays exact.
    std::vector<std::uint64_t> shares(legs.size(), 0);
    std::uint64_t assigned = 0;
    for (std::size_t i = 1; i < legs.size(); ++i) {
        shares[i] = static_cast<std::uint64_t>(
            static_cast<double>(req.bytes) * legs[i].fraction);
        assigned += shares[i];
    }
    shares[0] = req.bytes - assigned;

    Tick predicted = 0;
    for (std::size_t i = 0; i < legs.size(); ++i) {
        predicted = std::max(
            predicted,
            sendLeg(submit, req, legs[i], shares[i], arrived));
    }
    return predicted;
}

} // namespace proact
