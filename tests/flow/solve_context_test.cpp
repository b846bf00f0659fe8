// Workspace-reuse equivalence: one SolveContext driven through many
// randomized games must return bit-identical circulations and
// decompositions versus fresh per-solve graphs and workspaces, with
// exact rebuild accounting.
#include "flow/solve_context.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "flow/decompose.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"

namespace musketeer::flow {
namespace {

void expect_same_cycles(const std::vector<CycleFlow>& got,
                        const std::vector<CycleFlow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].edges, want[i].edges);
    EXPECT_EQ(got[i].amount, want[i].amount);
  }
}

class SolveContextEquivalenceTest
    : public ::testing::TestWithParam<SolverKind> {};

// The headline satellite: 100 randomized games of varying size through
// ONE reused context, each checked bit-for-bit against a fresh solve.
TEST_P(SolveContextEquivalenceTest, HundredRandomGamesBitIdentical) {
  const SolverKind kind = GetParam();
  util::Rng rng(0xC0FFEE);
  SolveContext ctx;
  long long builds = 0;
  int build_rounds = 0;
  for (int round = 0; round < 100; ++round) {
    gen::GameConfig config;
    config.depleted_share = 0.2 + 0.2 * (round % 3);
    const NodeId n = 8 + 4 * (round % 7);  // varying sizes force rebuilds
    const core::Game game = gen::random_ba_game(n, 2, config, rng);
    const core::BidVector bids = game.truthful_bids();

    const Graph fresh = game.build_graph(bids);
    SolveStats fresh_stats;
    const Circulation f_fresh = solve_max_welfare(fresh, kind, &fresh_stats);
    const auto cycles_fresh = decompose_sign_consistent(fresh, f_fresh);

    const long long rebinds_before = ctx.stats().rebinds;
    game.bind_graph(ctx, bids);
    const bool rebound = ctx.stats().rebinds > rebinds_before;
    SolveStats ctx_stats;
    const Circulation f_ctx = ctx.solve(kind, &ctx_stats);
    // A structure build constructs the bound graph plus one subgraph per
    // component; a rebind constructs nothing.
    EXPECT_EQ(ctx_stats.graph_rebuilds,
              rebound ? 0 : 1 + ctx.last_component_count())
        << "round " << round;
    builds += ctx_stats.graph_rebuilds;
    if (!rebound) ++build_rounds;

    EXPECT_EQ(f_ctx, f_fresh) << "round " << round;
    EXPECT_EQ(ctx_stats.cycles_cancelled, fresh_stats.cycles_cancelled);
    EXPECT_EQ(ctx_stats.units_pushed, fresh_stats.units_pushed);
    EXPECT_EQ(ctx_stats.fallbacks, fresh_stats.fallbacks);
    expect_same_cycles(ctx.decompose(f_ctx), cycles_fresh);
  }
  // Every round either rebuilt or rebound, never both, and the context's
  // lifetime count is exactly the per-solve reports summed.
  EXPECT_EQ(build_rounds + ctx.stats().rebinds, 100);
  EXPECT_EQ(ctx.stats().structure_builds, builds);
  EXPECT_EQ(ctx.stats().solves, 100);
}

// Same topology, fresh bids each round: after the first build every
// bind must take the in-place rebind path and report zero rebuilds.
TEST_P(SolveContextEquivalenceTest, StableTopologyRebindsOnly) {
  const SolverKind kind = GetParam();
  util::Rng rng(42);
  gen::GameConfig config;
  const gen::Topology topology = gen::barabasi_albert(24, 2, rng);
  SolveContext ctx;
  for (int round = 0; round < 20; ++round) {
    const core::Game game = gen::random_game(24, topology, config, rng);
    const core::BidVector bids = game.truthful_bids();
    game.bind_graph(ctx, bids);
    SolveStats stats;
    const Circulation f_ctx = ctx.solve(kind, &stats);
    // The first bind builds the graph and one subgraph per component.
    EXPECT_EQ(stats.graph_rebuilds,
              round == 0 ? 1 + ctx.last_component_count() : 0)
        << "round " << round;

    const Graph fresh = game.build_graph(bids);
    EXPECT_EQ(f_ctx, solve_max_welfare(fresh, kind)) << "round " << round;
  }
  EXPECT_EQ(ctx.stats().structure_builds, 1 + ctx.last_component_count());
  EXPECT_EQ(ctx.stats().rebinds, 19);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolveContextEquivalenceTest,
                         ::testing::Values(SolverKind::kBellmanFord,
                                           SolverKind::kNetworkSimplex));

TEST(SolveContextTest, SolveBeforeBindDies) {
  SolveContext ctx;
  EXPECT_DEATH(ctx.solve(), "before bind");
}

TEST(SolveContextTest, LocalContextIsPerThreadSingleton) {
  SolveContext& a = local_context();
  SolveContext& b = local_context();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace musketeer::flow
