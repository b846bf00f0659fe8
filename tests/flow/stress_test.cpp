// Larger randomized invariant sweeps: the solver pipeline at sizes the
// unit tests don't reach, checking only cheap exact invariants.
#include <gtest/gtest.h>

#include "flow/decompose.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"

namespace musketeer::flow {
namespace {

class FlowStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowStressTest, FullPipelineInvariantsAtScale) {
  util::Rng rng(GetParam());
  gen::GameConfig config;
  config.depleted_share = 0.3;
  const core::Game game = gen::random_ba_game(64, 2, config, rng);
  const Graph g = game.build_graph(game.truthful_bids());

  const Circulation f = solve_max_welfare(g);
  ASSERT_TRUE(is_feasible(g, f));
  ASSERT_TRUE(is_optimal(g, f));  // exact certificate
  EXPECT_GE(scaled_welfare(g, f), 0);

  const auto cycles = decompose_sign_consistent(g, f);
  EXPECT_TRUE(is_valid_decomposition(g, f, cycles));
  EXPECT_LE(cycles.size(), static_cast<std::size_t>(g.num_edges()));
  for (const CycleFlow& cycle : cycles) {
    EXPECT_GE(scaled_cycle_welfare(g, cycle), 0);
    EXPECT_GE(cycle.length(), 2);
    EXPECT_LE(cycle.length(), g.num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowStressTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(FlowStressTest, HighCapacityNoOverflow) {
  // Capacities near 1e12 with max bids: scaled welfare must stay exact
  // (int128 accumulation) and both solvers must still terminate.
  Graph g(3);
  const Amount big = 1'000'000'000'000LL;
  g.add_edge(0, 1, big, 0.09);
  g.add_edge(1, 2, big, -0.005);
  g.add_edge(2, 0, big, 0.0);
  for (const SolverKind kind :
       {SolverKind::kBellmanFord, SolverKind::kNetworkSimplex}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Circulation f = solve_max_welfare(g, kind);
    EXPECT_EQ(f, (Circulation{big, big, big}));
    // 1e12 * 0.085 = 8.5e10 coins of welfare, exactly.
    EXPECT_EQ(scaled_welfare(g, f),
              static_cast<__int128>(big) * scale_gain(0.085));
  }
}

TEST(FlowStressTest, CoinScaleBaGameSolversAgree) {
  // Coin-scale channels (capacities up to 1e11): the network simplex's
  // big-M artificial costs and both solvers' residual arithmetic must
  // stay exact, so the two must agree on the optimum to the last unit.
  util::Rng rng(1011);
  gen::GameConfig config;
  config.depleted_share = 0.3;
  config.capacity_max = 100'000'000'000LL;
  const core::Game game = gen::random_ba_game(64, 2, config, rng);
  const Graph g = game.build_graph(game.truthful_bids());

  const Circulation f_bf = solve_max_welfare(g, SolverKind::kBellmanFord);
  const Circulation f_ns = solve_max_welfare(g, SolverKind::kNetworkSimplex);
  EXPECT_GT(scaled_welfare(g, f_bf), 0);
  EXPECT_EQ(scaled_welfare(g, f_bf), scaled_welfare(g, f_ns));
  EXPECT_TRUE(is_optimal(g, f_bf));
  EXPECT_TRUE(is_optimal(g, f_ns));
}

TEST(FlowStressTest, ManyParallelEdgesHandled) {
  Graph g(2);
  for (int i = 0; i < 50; ++i) {
    g.add_edge(0, 1, 5, 0.01 + 1e-4 * i);
    g.add_edge(1, 0, 5, -0.001);
  }
  const Circulation f = solve_max_welfare(g);
  EXPECT_TRUE(is_feasible(g, f));
  EXPECT_TRUE(is_optimal(g, f));
  // Total forward flow capped by total backward capacity (conservation).
  Amount fwd = 0, bwd = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    (g.edge(e).from == 0 ? fwd : bwd) += f[static_cast<std::size_t>(e)];
  }
  EXPECT_EQ(fwd, bwd);
  EXPECT_EQ(fwd, 250);  // every profitable pairing saturates
}

TEST(FlowStressTest, DisconnectedComponentsSolvedIndependently) {
  Graph g(6);
  g.add_edge(0, 1, 5, 0.02);
  g.add_edge(1, 2, 5, 0.0);
  g.add_edge(2, 0, 5, 0.0);
  g.add_edge(3, 4, 7, 0.03);
  g.add_edge(4, 5, 7, 0.0);
  g.add_edge(5, 3, 7, 0.0);
  const Circulation f = solve_max_welfare(g);
  EXPECT_EQ(f, (Circulation{5, 5, 5, 7, 7, 7}));
}

}  // namespace
}  // namespace musketeer::flow
