/**
 * @file
 * Unit and property tests for the graph substrate.
 */

#include "workloads/graph.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

using namespace proact;

namespace {

/** FNV-1a over the raw bytes of @p values. */
template <typename T>
std::uint64_t
fnv1a(const std::vector<T> &values)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(values.data());
    for (std::size_t i = 0; i < values.size() * sizeof(T); ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** The registry's R-MAT input (Pagerank/SSSP) at a scale shift. */
RmatParams
registryGraph(int shift, std::uint64_t seed)
{
    return RmatParams{std::int64_t(1) << (19 - shift),
                      std::int64_t(1) << (24 - shift), 0.57, 0.19,
                      0.19, seed, 16};
}

struct GoldenGraph
{
    std::string name;
    RmatParams params;
    /** FNV-1a of inOffsets, inNeighbors, inWeights, outDegree. */
    std::uint64_t hashes[4];
};

std::vector<GoldenGraph>
goldenGraphs()
{
    RmatParams unshuffled = registryGraph(6, 42);
    unshuffled.shuffleVertices = false;
    RmatParams flatter = registryGraph(6, 42);
    flatter.a = 0.45;
    flatter.b = 0.15;
    flatter.c = 0.15;
    RmatParams unweighted = registryGraph(6, 97);
    unweighted.maxWeight = 1;
    RmatParams odd_weights = registryGraph(6, 5);
    odd_weights.maxWeight = 7;

    return {
        {"shift3_seed42", registryGraph(3, 42),
         {0x558b6ce95ad74ba7ULL, 0xc3cb66fff8d7ea62ULL,
          0x0435abf43f681c28ULL, 0x804afee313b6a53dULL}},
        {"shift3_seed97", registryGraph(3, 97),
         {0x09f443e218f900bcULL, 0x348a92af273c474dULL,
          0x989ab7544d213348ULL, 0x4490d2b36b016d95ULL}},
        {"shift5_seed42", registryGraph(5, 42),
         {0x70b9bc8024e9b4c9ULL, 0x5052cfdbf12c64eaULL,
          0x6ee29ac792add895ULL, 0xdfc93f70bedb3d9fULL}},
        {"shift5_seed97", registryGraph(5, 97),
         {0x5ed5d5d90ff03979ULL, 0x892b286011033d7eULL,
          0x6448040dc4a2e2a2ULL, 0xc74743e66acbf6f3ULL}},
        {"shift6_seed42", registryGraph(6, 42),
         {0x99d3b539b1566e43ULL, 0x368a06a021e8344eULL,
          0xfbc78c283579cf68ULL, 0x7e38a46add348deeULL}},
        {"shift6_seed97", registryGraph(6, 97),
         {0x798bc6875bbdf143ULL, 0xb8c4f6d09c560efeULL,
          0x7cf8bb7151c50e45ULL, 0xc60b1b51e46acdd8ULL}},
        {"unshuffled", unshuffled,
         {0xd2a93f0b5f4a3108ULL, 0x76751d3bbe9bf1f7ULL,
          0x90e83ff9a9d19682ULL, 0xd48d7a6f18feeb12ULL}},
        {"a45_b15_c15", flatter,
         {0xc8901201bdeab3a6ULL, 0x23a5483717694132ULL,
          0x8f5fe4b5cb359338ULL, 0xd41ccfe3769450ffULL}},
        {"max_weight_1", unweighted,
         {0x798bc6875bbdf143ULL, 0xb8c4f6d09c560efeULL,
          0xfb90d2a498c22325ULL, 0xc60b1b51e46acdd8ULL}},
        {"max_weight_7", odd_weights,
         {0x62cf434c5fc88b5cULL, 0xc0399b662af40381ULL,
          0x3df858848035e2a5ULL, 0x85ae526fc555045aULL}},
        {"one_vertex", RmatParams{1, 5, 0.57, 0.19, 0.19, 3, 16},
         {0xed3a3c8c2a52f1c0ULL, 0xee85fafd354b0935ULL,
          0x6573af71f6886d02ULL, 0x2d401a55eec16520ULL}},
        {"two_vertices", RmatParams{2, 9, 0.57, 0.19, 0.19, 3, 16},
         {0xe7a154f075bad66fULL, 0xa8e50c5939e1e835ULL,
          0x0f01535c1cc39105ULL, 0x89a2916bced8d42cULL}},
    };
}

} // namespace

// The hashes were taken from the reference generator (one double
// uniform() per level compared against a, a+b, a+b+c; 64-bit edge
// pairs), so any change to the RNG stream or its use fails here.
TEST(Graph, RmatMatchesGoldenHashes)
{
    for (const GoldenGraph &golden : goldenGraphs()) {
        SCOPED_TRACE(golden.name);
        const Graph g = generateRmat(golden.params);
        EXPECT_EQ(g.numVertices, golden.params.numVertices);
        EXPECT_EQ(fnv1a(g.inOffsets), golden.hashes[0]);
        EXPECT_EQ(fnv1a(g.inNeighbors), golden.hashes[1]);
        EXPECT_EQ(fnv1a(g.inWeights), golden.hashes[2]);
        EXPECT_EQ(fnv1a(g.outDegree), golden.hashes[3]);
    }
}

// The integer quadrant test agrees with `uniform() < t` exactly,
// including the mantissas on either side of each threshold.
TEST(Graph, UniformThresholdMatchesDoubleCompare)
{
    std::vector<double> thresholds = {
        0.0, 1e-300, 0x1.0p-53, 0.5, 0.75, 1.0 - 0x1.0p-53, 1.0, 2.0};
    for (const RmatParams &p :
         {RmatParams{}, RmatParams{1, 1, 0.45, 0.15, 0.15},
          RmatParams{1, 1, 0.1, 0.2, 0.3},
          RmatParams{1, 1, 1.0 / 3, 1.0 / 3, 0.2}}) {
        thresholds.push_back(p.a);
        thresholds.push_back(p.a + p.b);
        thresholds.push_back(p.a + p.b + p.c);
    }
    for (const double t : thresholds) {
        SCOPED_TRACE(t);
        const std::uint64_t limit = Rng::uniformThreshold(t);
        ASSERT_LE(limit, std::uint64_t(1) << 53);
        for (const std::uint64_t m : {limit - 1, limit, limit + 1}) {
            if (m >= (std::uint64_t(1) << 53))
                continue; // Not a 53-bit mantissa (includes 0 - 1).
            const double u = static_cast<double>(m) * 0x1.0p-53;
            EXPECT_EQ(m < limit, u < t) << "mantissa " << m;
        }
    }
    EXPECT_EQ(Rng::uniformThreshold(std::nan("")), 0u);
    EXPECT_EQ(Rng::uniformThreshold(-0.5), 0u);

    // And on the raw stream, through Rng::uniform() itself.
    const std::uint64_t limit = Rng::uniformThreshold(0.57);
    Rng a(11), b(11);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ((a() >> 11) < limit, b.uniform() < 0.57);
}

TEST(Graph, RingStructure)
{
    const Graph g = generateRing(10, 2);
    EXPECT_EQ(g.numVertices, 10);
    EXPECT_EQ(g.numEdges(), 20);
    for (std::int64_t v = 0; v < 10; ++v) {
        EXPECT_EQ(g.inDegree(v), 2);
        EXPECT_EQ(g.outDegree[v], 2);
    }
    // Vertex 0 receives edges from 8 and 9.
    std::vector<int> sources(g.inNeighbors.begin() + g.inOffsets[0],
                             g.inNeighbors.begin() + g.inOffsets[1]);
    std::sort(sources.begin(), sources.end());
    EXPECT_EQ(sources, (std::vector<int>{8, 9}));
}

TEST(Graph, RingRejectsBadShapes)
{
    EXPECT_THROW(generateRing(0, 1), FatalError);
    EXPECT_THROW(generateRing(4, 0), FatalError);
    EXPECT_THROW(generateRing(4, 4), FatalError);
}

TEST(Graph, RmatShapeAndConservation)
{
    RmatParams params;
    params.numVertices = 1 << 12;
    params.numEdges = 1 << 15;
    const Graph g = generateRmat(params);

    EXPECT_EQ(g.numVertices, params.numVertices);
    EXPECT_EQ(g.numEdges(), params.numEdges);
    // In-degrees and out-degrees both sum to the edge count.
    EXPECT_EQ(g.inOffsets.back(), params.numEdges);
    EXPECT_EQ(std::accumulate(g.outDegree.begin(), g.outDegree.end(),
                              std::int64_t(0)),
              params.numEdges);
    // Weights within the configured range.
    for (const float w : g.inWeights) {
        EXPECT_GE(w, 1.0f);
        EXPECT_LE(w, static_cast<float>(params.maxWeight));
    }
}

TEST(Graph, RmatDeterministicForSeed)
{
    RmatParams params;
    params.numVertices = 1 << 10;
    params.numEdges = 1 << 13;
    const Graph a = generateRmat(params);
    const Graph b = generateRmat(params);
    EXPECT_EQ(a.inOffsets, b.inOffsets);
    EXPECT_EQ(a.inNeighbors, b.inNeighbors);
    EXPECT_EQ(a.inWeights, b.inWeights);

    params.seed = 43;
    const Graph c = generateRmat(params);
    EXPECT_NE(a.inNeighbors, c.inNeighbors);
}

TEST(Graph, RmatIsSkewed)
{
    RmatParams params;
    params.numVertices = 1 << 14;
    params.numEdges = 1 << 17;
    params.shuffleVertices = false;
    const Graph g = generateRmat(params);
    std::int64_t max_deg = 0;
    for (std::int64_t v = 0; v < g.numVertices; ++v)
        max_deg = std::max(max_deg, g.inDegree(v));
    const double mean_deg = static_cast<double>(g.numEdges())
        / static_cast<double>(g.numVertices);
    EXPECT_GT(static_cast<double>(max_deg), 20.0 * mean_deg);
}

TEST(Graph, ShufflingBalancesContiguousRanges)
{
    RmatParams params;
    params.numVertices = 1 << 14;
    params.numEdges = 1 << 17;

    auto quarter_imbalance = [](const Graph &g) {
        const std::int64_t q = g.numVertices / 4;
        std::int64_t max_edges = 0;
        for (int p = 0; p < 4; ++p) {
            max_edges = std::max(
                max_edges, g.edgesInRange(p * q, (p + 1) * q));
        }
        return static_cast<double>(max_edges)
            / (static_cast<double>(g.numEdges()) / 4.0);
    };

    params.shuffleVertices = false;
    const double skewed = quarter_imbalance(generateRmat(params));
    params.shuffleVertices = true;
    const double shuffled = quarter_imbalance(generateRmat(params));
    EXPECT_LT(shuffled, skewed);
    EXPECT_LT(shuffled, 1.2);
}

TEST(Graph, RmatRejectsInvalidParams)
{
    RmatParams params;
    params.numVertices = 1000; // Not a power of two.
    EXPECT_THROW(generateRmat(params), FatalError);
    params.numVertices = 1024;
    params.numEdges = 0;
    EXPECT_THROW(generateRmat(params), FatalError);
    params.numEdges = 100;
    params.a = 0.5;
    params.b = 0.3;
    params.c = 0.3;
    EXPECT_THROW(generateRmat(params), FatalError);
    params.b = -0.1; // Sums below 1, but not a probability.
    EXPECT_THROW(generateRmat(params), FatalError);
    params.b = 0.1;
    params.c = std::nan("");
    EXPECT_THROW(generateRmat(params), FatalError);
}

TEST(Graph, PartitionByEdgesBalances)
{
    RmatParams params;
    params.numVertices = 1 << 13;
    params.numEdges = 1 << 16;
    const Graph g = generateRmat(params);
    const auto bounds = partitionByEdges(g, 4);

    ASSERT_EQ(bounds.size(), 5u);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), g.numVertices);
    for (int p = 0; p < 4; ++p) {
        ASSERT_LE(bounds[p], bounds[p + 1]);
        const double share = static_cast<double>(
            g.edgesInRange(bounds[p], bounds[p + 1]));
        EXPECT_NEAR(share / static_cast<double>(g.numEdges()), 0.25,
                    0.08);
    }
}

TEST(Graph, PartitionSinglePart)
{
    const Graph g = generateRing(100, 2);
    const auto bounds = partitionByEdges(g, 1);
    EXPECT_EQ(bounds, (std::vector<std::int64_t>{0, 100}));
    EXPECT_THROW(partitionByEdges(g, 0), FatalError);
}

TEST(Graph, BalanceByWeightRespectsTargets)
{
    const Graph g = generateRing(1000, 4); // Uniform weight 4/row.
    const auto bounds =
        balanceByWeight(g.inOffsets, 0, 1000, 40, 100);
    // 40 weight / 4 per row = 10 rows per CTA.
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), 1000);
    for (std::size_t i = 1; i + 1 < bounds.size(); ++i)
        EXPECT_EQ(bounds[i] - bounds[i - 1], 10);
}

TEST(Graph, BalanceByWeightCapsRows)
{
    std::vector<std::int64_t> offsets(101, 0); // All-zero weights.
    const auto bounds = balanceByWeight(offsets, 0, 100, 1000, 25);
    // Weight never binds; the row cap does.
    ASSERT_EQ(bounds.size(), 5u);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_EQ(bounds[i] - bounds[i - 1], 25);
}

TEST(Graph, BalanceByWeightHandlesHeavyRows)
{
    // One row heavier than the target still forms its own CTA.
    std::vector<std::int64_t> offsets = {0, 1000, 1001, 1002};
    const auto bounds = balanceByWeight(offsets, 0, 3, 10, 100);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), 3);
    EXPECT_EQ(bounds[1], 1); // Heavy row isolated.
}

TEST(Graph, BalanceByWeightEmptyRange)
{
    std::vector<std::int64_t> offsets = {0, 1, 2};
    const auto bounds = balanceByWeight(offsets, 1, 1, 10, 10);
    ASSERT_EQ(bounds.size(), 2u);
    EXPECT_EQ(bounds[0], 1);
    EXPECT_EQ(bounds[1], 1);
    EXPECT_THROW(balanceByWeight(offsets, 2, 1, 10, 10), FatalError);
}
