#include "flow/solver.hpp"

#include <gtest/gtest.h>

#include "gen/game_gen.hpp"
#include "util/rng.hpp"

namespace musketeer::flow {
namespace {

TEST(NetworkSimplexTest, EmptyGraph) {
  Graph g(4);
  EXPECT_EQ(
      total_volume(solve_max_welfare(g, SolverKind::kNetworkSimplex)), 0);
}

TEST(NetworkSimplexTest, SaturatesProfitableCycle) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  const Circulation f = solve_max_welfare(g, SolverKind::kNetworkSimplex);
  EXPECT_EQ(f, (Circulation{7, 7, 7}));
  EXPECT_TRUE(is_optimal(g, f));
}

TEST(NetworkSimplexTest, LeavesUnprofitableCyclesAlone) {
  Graph g(3);
  g.add_edge(0, 1, 5, 0.01);
  g.add_edge(1, 2, 5, -0.02);
  g.add_edge(2, 0, 5, 0.0);
  EXPECT_EQ(
      total_volume(solve_max_welfare(g, SolverKind::kNetworkSimplex)), 0);
}

TEST(NetworkSimplexTest, CompetingBuyersResolvedByBid) {
  Graph g(4);
  const EdgeId shared = g.add_edge(2, 3, 5, 0.0);
  const EdgeId buyer_a = g.add_edge(3, 0, 10, 0.04);
  g.add_edge(0, 2, 10, 0.0);
  const EdgeId buyer_b = g.add_edge(3, 1, 10, 0.01);
  g.add_edge(1, 2, 10, 0.0);
  const Circulation f = solve_max_welfare(g, SolverKind::kNetworkSimplex);
  EXPECT_EQ(f[static_cast<std::size_t>(shared)], 5);
  EXPECT_EQ(f[static_cast<std::size_t>(buyer_a)], 5);
  EXPECT_EQ(f[static_cast<std::size_t>(buyer_b)], 0);
}

TEST(NetworkSimplexTest, ReportsPivotStats) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  SolveStats stats;
  solve_max_welfare(g, SolverKind::kNetworkSimplex, &stats);
  EXPECT_GE(stats.cycles_cancelled, 1);
}

TEST(NetworkSimplexTest, ViaSolverKindDispatch) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  const Circulation f = solve_max_welfare(g, SolverKind::kNetworkSimplex);
  EXPECT_TRUE(is_optimal(g, f));
}

// The decisive suite: exact agreement with the proven cancelling solver
// on a broad family of random instances, with optimality certificates.
class NetworkSimplexRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkSimplexRandomTest, AgreesWithBellmanFordExactly) {
  util::Rng rng(GetParam());
  const auto n = static_cast<NodeId>(rng.uniform_int(3, 20));
  Graph g(n);
  const int m = static_cast<int>(rng.uniform_int(n, 5 * n));
  for (int e = 0; e < m; ++e) {
    const auto u = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) v = static_cast<NodeId>((v + 1) % n);
    g.add_edge(u, v, rng.uniform_int(1, 30), rng.uniform_real(-0.05, 0.05));
  }
  const Circulation f_ns = solve_max_welfare(g, SolverKind::kNetworkSimplex);
  const Circulation f_bf = solve_max_welfare(g, SolverKind::kBellmanFord);
  ASSERT_TRUE(is_feasible(g, f_ns));
  EXPECT_TRUE(is_optimal(g, f_ns)) << "no exact optimality certificate";
  EXPECT_EQ(scaled_welfare(g, f_ns), scaled_welfare(g, f_bf));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, NetworkSimplexRandomTest,
                         ::testing::Range<std::uint64_t>(2000, 2080));

TEST(NetworkSimplexTest, LightningScaleGameSolves) {
  util::Rng rng(4096);
  gen::GameConfig config;
  config.depleted_share = 0.3;
  const core::Game game = gen::random_ba_game(256, 2, config, rng);
  const Graph g = game.build_graph(game.truthful_bids());
  const Circulation f = solve_max_welfare(g, SolverKind::kNetworkSimplex);
  EXPECT_TRUE(is_optimal(g, f));
}

TEST(NetworkSimplexTest, DegenerateManyZeroCapacityEdges) {
  Graph g(4);
  g.add_edge(0, 1, 0, 0.05);
  g.add_edge(1, 2, 0, 0.05);
  g.add_edge(2, 0, 0, 0.05);
  g.add_edge(0, 3, 5, 0.02);
  g.add_edge(3, 0, 5, 0.0);
  const Circulation f = solve_max_welfare(g, SolverKind::kNetworkSimplex);
  EXPECT_TRUE(is_optimal(g, f));
  EXPECT_EQ(f[3], 5);
  EXPECT_EQ(f[4], 5);
}

}  // namespace
}  // namespace musketeer::flow
