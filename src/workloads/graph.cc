#include "workloads/graph.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <bit>
#include <numeric>

namespace proact {

namespace {

/** The even-position bits of @p x (bits 0, 2, 4, ...), packed. */
std::uint32_t
evenBits(std::uint64_t x)
{
    x &= 0x5555555555555555ULL;
    x = (x | (x >> 1)) & 0x3333333333333333ULL;
    x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0fULL;
    x = (x | (x >> 4)) & 0x00ff00ff00ff00ffULL;
    x = (x | (x >> 8)) & 0x0000ffff0000ffffULL;
    x = (x | (x >> 16)) & 0x00000000ffffffffULL;
    return static_cast<std::uint32_t>(x);
}

/**
 * Draw srcs.size() R-MAT edges by recursive quadrant descent, one
 * uniform() draw r per level, most significant bit first: top-left
 * when r < a, top-right when r < a + b, bottom-left when
 * r < a + b + c, bottom-right otherwise. With exact integer
 * thresholds (Rng::uniformThreshold) the quadrant index
 * q = [r >= a] + [r >= a+b] + [r >= a+b+c] is the (src, dst) bit
 * pair, so each level costs three compares and no branch. The pairs
 * are appended to one word and split once per edge.
 */
void
drawEdges(Rng &rng, int scale, const RmatParams &params,
          std::vector<std::int32_t> &srcs,
          std::vector<std::int32_t> &dsts)
{
    const std::uint64_t t_a = Rng::uniformThreshold(params.a);
    const std::uint64_t t_ab =
        Rng::uniformThreshold(params.a + params.b);
    const std::uint64_t t_abc =
        Rng::uniformThreshold(params.a + params.b + params.c);

    // A local copy lets the compiler keep the state in registers.
    Rng local = rng;
    const std::size_t num_edges = srcs.size();
    for (std::size_t e = 0; e < num_edges; ++e) {
        std::uint64_t pairs = 0;
        for (int level = 0; level < scale; ++level) {
            const std::uint64_t m = local() >> 11;
            pairs = (pairs << 2) + (m >= t_a) + (m >= t_ab)
                + (m >= t_abc);
        }
        srcs[e] = static_cast<std::int32_t>(evenBits(pairs >> 1));
        dsts[e] = static_cast<std::int32_t>(evenBits(pairs));
    }
    rng = local;
}

/**
 * Incoming-edge CSR of the edges (srcs[e], dsts[e]). Each
 * destination's edges keep their order in the arrays, and one weight
 * in [1, max_weight] is drawn per edge in that order.
 */
Graph
buildCsr(std::int64_t num_vertices,
         const std::vector<std::int32_t> &srcs,
         const std::vector<std::int32_t> &dsts, Rng &rng,
         std::int32_t max_weight)
{
    Graph g;
    g.numVertices = num_vertices;
    g.outDegree.assign(num_vertices, 0);
    g.inOffsets.assign(num_vertices + 1, 0);

    const std::size_t num_edges = srcs.size();
    for (std::size_t e = 0; e < num_edges; ++e) {
        ++g.outDegree[srcs[e]];
        ++g.inOffsets[dsts[e] + 1];
    }
    for (std::int64_t v = 0; v < num_vertices; ++v)
        g.inOffsets[v + 1] += g.inOffsets[v];

    g.inNeighbors.resize(num_edges);
    g.inWeights.resize(num_edges);

    // Scatter in edge order with inOffsets[v] as v's fill cursor:
    // afterwards it holds the old inOffsets[v + 1], and one shift
    // restores the offsets. The writes land at random; prefetching
    // the slots a few edges ahead hides most of the cache misses.
    constexpr std::size_t prefetch_distance = 16;
    const auto bound = static_cast<std::uint64_t>(max_weight);
    Rng local = rng;
    for (std::size_t e = 0; e < num_edges; ++e) {
        if (e + prefetch_distance < num_edges) {
            const std::int64_t ahead =
                g.inOffsets[dsts[e + prefetch_distance]];
            __builtin_prefetch(&g.inNeighbors[ahead], 1);
            __builtin_prefetch(&g.inWeights[ahead], 1);
        }
        const std::int64_t slot = g.inOffsets[dsts[e]]++;
        g.inNeighbors[slot] = srcs[e];
        g.inWeights[slot] = static_cast<float>(1 + local.below(bound));
    }
    rng = local;
    for (std::int64_t v = num_vertices; v > 0; --v)
        g.inOffsets[v] = g.inOffsets[v - 1];
    g.inOffsets[0] = 0;
    return g;
}

} // namespace

Graph
generateRmat(const RmatParams &params)
{
    if (params.numVertices <= 0 || params.numEdges <= 0)
        fatalError("generateRmat: empty graph requested");
    if (std::popcount(
            static_cast<std::uint64_t>(params.numVertices)) != 1) {
        fatalError("generateRmat: vertex count must be a power of 2, "
                   "got ", params.numVertices);
    }
    const int scale = std::bit_width(
        static_cast<std::uint64_t>(params.numVertices)) - 1;
    if (scale > 31) {
        fatalError("generateRmat: vertex ids must fit in 32 bits, "
                   "got ", params.numVertices, " vertices");
    }
    // The branchless descent needs ordered thresholds (NaN fails).
    if (!(params.a >= 0.0 && params.b >= 0.0 && params.c >= 0.0))
        fatalError("generateRmat: quadrant probabilities must be "
                   "non-negative");
    const double sum = params.a + params.b + params.c;
    if (sum >= 1.0)
        fatalError("generateRmat: quadrant probabilities exceed 1");

    // Stream contract (DESIGN.md): all edges level by level, then
    // the vertex permutation, then one weight per edge in generation
    // order. Changing it changes every graph.
    Rng rng(params.seed);
    std::vector<std::int32_t> srcs(params.numEdges);
    std::vector<std::int32_t> dsts(params.numEdges);
    drawEdges(rng, scale, params, srcs, dsts);

    if (params.shuffleVertices) {
        // Fisher-Yates permutation of vertex labels.
        std::vector<std::int32_t> perm(params.numVertices);
        std::iota(perm.begin(), perm.end(), 0);
        for (std::int64_t v = params.numVertices - 1; v > 0; --v) {
            const auto j = static_cast<std::int64_t>(
                rng.below(static_cast<std::uint64_t>(v + 1)));
            std::swap(perm[v], perm[j]);
        }
        for (std::size_t e = 0; e < srcs.size(); ++e) {
            srcs[e] = perm[srcs[e]];
            dsts[e] = perm[dsts[e]];
        }
    }

    return buildCsr(params.numVertices, srcs, dsts, rng,
                    params.maxWeight);
}

Graph
generateRing(std::int64_t num_vertices, int degree)
{
    if (num_vertices <= 0 || degree <= 0 ||
        degree >= num_vertices) {
        fatalError("generateRing: invalid shape (", num_vertices,
                   " vertices, degree ", degree, ")");
    }

    std::vector<std::int32_t> srcs, dsts;
    srcs.reserve(num_vertices * degree);
    dsts.reserve(num_vertices * degree);
    for (std::int64_t v = 0; v < num_vertices; ++v) {
        for (int k = 1; k <= degree; ++k) {
            srcs.push_back(static_cast<std::int32_t>(
                (v - k + num_vertices) % num_vertices));
            dsts.push_back(static_cast<std::int32_t>(v));
        }
    }
    Rng rng(7);
    return buildCsr(num_vertices, srcs, dsts, rng, 1);
}

std::vector<std::int64_t>
partitionByEdges(const Graph &graph, int num_parts)
{
    if (num_parts <= 0)
        fatalError("partitionByEdges: need at least one part");

    std::vector<std::int64_t> bounds(num_parts + 1, 0);
    const std::int64_t total = graph.numEdges();
    std::int64_t v = 0;
    for (int p = 1; p < num_parts; ++p) {
        const std::int64_t target = total * p / num_parts;
        while (v < graph.numVertices && graph.inOffsets[v] < target)
            ++v;
        bounds[p] = v;
    }
    bounds[num_parts] = graph.numVertices;

    // Guarantee monotone non-decreasing boundaries even for highly
    // skewed graphs (a part may be empty, which callers tolerate).
    for (int p = 1; p <= num_parts; ++p)
        bounds[p] = std::max(bounds[p], bounds[p - 1]);
    return bounds;
}

std::vector<std::int64_t>
balanceByWeight(const std::vector<std::int64_t> &offsets,
                std::int64_t lo, std::int64_t hi,
                std::int64_t target_weight, std::int64_t max_rows)
{
    if (lo < 0 || hi < lo ||
        hi >= static_cast<std::int64_t>(offsets.size())) {
        fatalError("balanceByWeight: bad row range [", lo, ", ", hi,
                   ")");
    }
    target_weight = std::max<std::int64_t>(1, target_weight);
    max_rows = std::max<std::int64_t>(1, max_rows);

    std::vector<std::int64_t> bounds{lo};
    std::int64_t row = lo;
    while (row < hi) {
        const std::int64_t weight_cap = offsets[row] + target_weight;
        std::int64_t next = row;
        while (next < hi && next - row < max_rows &&
               offsets[next + 1] <= weight_cap) {
            ++next;
        }
        // Always take at least one row so hubs heavier than the
        // target still make progress.
        if (next == row)
            ++next;
        bounds.push_back(next);
        row = next;
    }
    if (bounds.back() != hi || bounds.size() == 1)
        bounds.push_back(hi);
    return bounds;
}

} // namespace proact
