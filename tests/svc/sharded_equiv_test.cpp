// The headline invariant of the component-sharded solve pipeline: the
// per-component solve, at any thread count, is BIT-identical to the
// whole-graph oracle (tests/whole_graph_oracle.hpp: one solve of the full
// graph, one of each G_{-v}) — circulations, cycles, VCG prices
// (compared at the bit level, not within a tolerance) and SolveStats
// counters — and every mechanism's priced outcome and the end-to-end
// settled-network digests do not depend on the thread count. Covers
// every mechanism and solver kind at 1, 2 and 8 threads. Lives in the
// svc suite (labelled svc) so the tsan CI preset races the executor's
// worker pool.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/m1_fixed_fee.hpp"
#include "core/m2_minfee.hpp"
#include "core/m2_vcg.hpp"
#include "core/m3_double_auction.hpp"
#include "core/m4_delayed.hpp"
#include "core/mechanism_factory.hpp"
#include "flow/decompose.hpp"
#include "flow/solve_context.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"
#include "sim/engine.hpp"
#include "svc/executor.hpp"
#include "svc/sim_backend.hpp"
#include "svc_test_util.hpp"
#include "util/rng.hpp"
#include "whole_graph_oracle.hpp"

namespace musketeer::svc {
namespace {

/// Exact double equality: same bit pattern, not "close enough". The
/// sharded path promises the identical float operations in the identical
/// order, so nothing weaker is acceptable.
void expect_bits_equal(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

void expect_outcomes_identical(const core::Outcome& got,
                               const core::Outcome& want,
                               const std::string& what) {
  EXPECT_EQ(got.circulation, want.circulation) << what;
  ASSERT_EQ(got.cycles.size(), want.cycles.size()) << what;
  for (std::size_t i = 0; i < got.cycles.size(); ++i) {
    const core::PricedCycle& g = got.cycles[i];
    const core::PricedCycle& w = want.cycles[i];
    const std::string where = what + " cycle " + std::to_string(i);
    EXPECT_EQ(g.cycle.edges, w.cycle.edges) << where;
    EXPECT_EQ(g.cycle.amount, w.cycle.amount) << where;
    expect_bits_equal(g.release_time, w.release_time, where);
    expect_bits_equal(g.delay_bonus, w.delay_bonus, where);
    ASSERT_EQ(g.prices.size(), w.prices.size()) << where;
    for (std::size_t j = 0; j < g.prices.size(); ++j) {
      EXPECT_EQ(g.prices[j].player, w.prices[j].player) << where;
      expect_bits_equal(g.prices[j].price, w.prices[j].price, where);
    }
  }
}

/// `got`'s circulation and cycles against the oracle: `want` (a
/// whole-graph solve of `graph`) and its whole-graph peel.
void expect_matches_oracle(const core::Outcome& got, const flow::Graph& graph,
                           const flow::Circulation& want,
                           const std::string& what) {
  EXPECT_EQ(got.circulation, want) << what;
  const std::vector<flow::CycleFlow> cycles =
      flow::decompose_sign_consistent(graph, want);
  ASSERT_EQ(got.cycles.size(), cycles.size()) << what;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    EXPECT_EQ(got.cycles[i].cycle.edges, cycles[i].edges) << what;
    EXPECT_EQ(got.cycles[i].cycle.amount, cycles[i].amount) << what;
  }
}

/// `clusters` disjoint BA games glued into one Game with node offsets:
/// the partitioner must split it back into exactly `clusters` weakly
/// connected components.
core::Game clustered_game(int clusters, flow::NodeId nodes_per_cluster,
                          util::Rng& rng) {
  core::Game merged(clusters * nodes_per_cluster);
  for (int c = 0; c < clusters; ++c) {
    gen::GameConfig config;
    config.depleted_share = 0.3;
    const core::Game part =
        gen::random_ba_game(nodes_per_cluster, 2, config, rng);
    const flow::NodeId offset = c * nodes_per_cluster;
    for (core::EdgeId e = 0; e < part.num_edges(); ++e) {
      const core::GameEdge& edge = part.edge(e);
      merged.add_edge(edge.from + offset, edge.to + offset, edge.capacity,
                      edge.tail_valuation, edge.head_valuation);
    }
  }
  return merged;
}

class ShardedEquivalenceTest : public ::testing::TestWithParam<int> {};

// 100 seeded games (a mix of connected and multi-component) through M3
// with the Bellman-Ford solver: the run at the parameterized thread
// count must reproduce the oracle's circulation and cycles, and the
// inline run's priced outcome, bit for bit.
TEST_P(ShardedEquivalenceTest, HundredGamesBitIdenticalM3) {
  const int threads = GetParam();
  ParallelExecutor executor(threads);
  const core::M3DoubleAuction mechanism;
  flow::SolveContext sharded;
  sharded.set_executor(&executor);
  flow::SolveContext serial;
  util::Rng rng(0x5EED5);
  for (int round = 0; round < 100; ++round) {
    core::Game game = (round % 2 == 0)
                          ? clustered_game(1 + round % 5, 10, rng)
                          : gen::random_ba_game(
                                12 + 4 * (round % 5), 2,
                                gen::GameConfig{}, rng);
    const std::string what = "round " + std::to_string(round) + " threads " +
                             std::to_string(threads);
    const core::BidVector bids = game.truthful_bids();
    const core::Outcome got = mechanism.run(sharded, game, bids);
    expect_matches_oracle(
        got, game.build_graph(bids),
        oracle::circulation(game, bids, flow::SolverKind::kBellmanFord), what);
    expect_outcomes_identical(got, mechanism.run(serial, game, bids), what);
  }
}

// Cross-mechanism, cross-solver matrix on a 4-component game: every
// mechanism the service can run, under every solver kind, against a
// whole-graph solve of the graph the mechanism bound, and against the
// inline run. M2-MinFee drops the cycles that cannot fund its fee floor
// from M2's optimum, so its circulation is checked through M2 alone.
TEST_P(ShardedEquivalenceTest, AllMechanismsAllSolversBitIdentical) {
  const int threads = GetParam();
  ParallelExecutor executor(threads);
  util::Rng rng(0xFACADE);
  const core::Game game = clustered_game(4, 12, rng);

  const flow::SolverKind kinds[] = {flow::SolverKind::kBellmanFord,
                                    flow::SolverKind::kNetworkSimplex};
  for (const flow::SolverKind kind : kinds) {
    std::vector<std::unique_ptr<core::Mechanism>> mechanisms;
    mechanisms.push_back(std::make_unique<core::M1FixedFee>(0.001, 3.0, kind));
    mechanisms.push_back(std::make_unique<core::M2Vcg>(kind));
    mechanisms.push_back(std::make_unique<core::M2MinFee>(0.001, kind));
    mechanisms.push_back(std::make_unique<core::M3DoubleAuction>(kind));
    mechanisms.push_back(std::make_unique<core::M4DelayedAuction>(1.0, kind));
    for (const auto& mechanism : mechanisms) {
      flow::SolveContext sharded;
      sharded.set_executor(&executor);
      flow::SolveContext serial;
      const std::string what = std::string(mechanism->name()) + " solver " +
                               std::to_string(static_cast<int>(kind)) +
                               " threads " + std::to_string(threads);
      const core::Outcome got = mechanism->run_truthful(sharded, game);
      if (mechanism->name() != "M2-minfee") {
        expect_matches_oracle(got, sharded.graph(),
                              flow::solve_max_welfare(sharded.graph(), kind),
                              what);
      }
      expect_outcomes_identical(got, mechanism->run_truthful(serial, game),
                                what);
    }
  }
}

// VCG prices (the O(own-component) reprice path) against the oracle's
// whole-graph G_{-v} solves, for every solver kind.
TEST_P(ShardedEquivalenceTest, VcgPricesBitIdentical) {
  const int threads = GetParam();
  ParallelExecutor executor(threads);
  util::Rng rng(0xABCD);
  const flow::SolverKind kinds[] = {flow::SolverKind::kBellmanFord,
                                    flow::SolverKind::kNetworkSimplex};
  for (int round = 0; round < 10; ++round) {
    const core::Game game = clustered_game(1 + round % 4, 10, rng);
    const core::BidVector bids = game.truthful_bids();
    for (const flow::SolverKind kind : kinds) {
      const core::M2Vcg mechanism(kind);
      flow::SolveContext sharded;
      sharded.set_executor(&executor);
      const std::vector<double> got = mechanism.vcg_prices(sharded, game, bids);
      const std::vector<double> want = oracle::vcg_prices(game, bids, kind);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t v = 0; v < got.size(); ++v) {
        expect_bits_equal(got[v], want[v],
                          "round " + std::to_string(round) + " solver " +
                              std::to_string(static_cast<int>(kind)) +
                              " player " + std::to_string(v));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ShardedEquivalenceTest,
                         ::testing::Values(1, 2, 8));

// SolveStats counters on the component path must SUM across components
// to the whole-graph solve's — the bug class where a stats struct
// reports only the last component solved. graph_rebuilds likewise sums
// the per-component pool builds.
TEST(ShardedStatsTest, CountersSumAcrossComponents) {
  util::Rng rng(0x57A75);
  const core::Game game = clustered_game(5, 10, rng);
  const core::BidVector bids = game.truthful_bids();

  flow::SolveStats want;
  const flow::Circulation f_whole = flow::solve_max_welfare(
      game.build_graph(bids), flow::SolverKind::kBellmanFord, &want);

  ParallelExecutor executor(4);
  flow::SolveContext sharded;
  sharded.set_executor(&executor);
  game.bind_graph(sharded, bids);
  flow::SolveStats got;
  const flow::Circulation f_sharded =
      sharded.solve(flow::SolverKind::kBellmanFord, &got);

  EXPECT_EQ(f_sharded, f_whole);
  ASSERT_TRUE(sharded.shards_ready());
  EXPECT_EQ(sharded.num_components(), 5);
  // A 5-component game has cycles in more than one component, so a
  // "last component wins" regression would under-report here.
  EXPECT_GT(want.cycles_cancelled, 0);
  EXPECT_EQ(got.cycles_cancelled, want.cycles_cancelled);
  EXPECT_EQ(got.units_pushed, want.units_pushed);
  EXPECT_EQ(got.fallbacks, want.fallbacks);
  // The sharded context built the bound graph once plus one subgraph per
  // component; the caller-visible delta covers all of them (summed, not
  // sampled).
  EXPECT_EQ(got.graph_rebuilds, 1 + 5);
}

// End-to-end: a service-backed simulation at 8 threads settles the same
// network, epoch by epoch (digest equality), as the same run at 1
// thread.
TEST(ShardedServiceTest, NetworkDigestsMatchAcrossThreadCounts) {
  const auto mechanism =
      core::make_mechanism("m3", core::MechanismOptions{});
  ASSERT_NE(mechanism, nullptr);

  sim::SimulationConfig config = testutil::small_config(/*seed=*/11);
  config.epochs = 5;
  config.payments_per_epoch = 100;

  ServiceBackend single(*mechanism, 1024, /*threads=*/1);
  pcn::Network net_single(0);
  sim::run_simulation(config, &single, &net_single);

  ServiceBackend sharded(*mechanism, 1024, /*threads=*/8);
  pcn::Network net_sharded(0);
  sim::run_simulation(config, &sharded, &net_sharded);

  testutil::expect_networks_equal(net_single, net_sharded);
  const std::vector<EpochReport> reports_single = single.service()->reports();
  const std::vector<EpochReport> reports_sharded =
      sharded.service()->reports();
  ASSERT_EQ(reports_single.size(), reports_sharded.size());
  for (std::size_t i = 0; i < reports_single.size(); ++i) {
    EXPECT_EQ(reports_sharded[i].network_digest,
              reports_single[i].network_digest)
        << "epoch " << i;
    // Both thread counts solve the same components.
    EXPECT_EQ(reports_sharded[i].solve_components,
              reports_single[i].solve_components)
        << "epoch " << i;
    EXPECT_EQ(reports_sharded[i].largest_component,
              reports_single[i].largest_component)
        << "epoch " << i;
  }
}

}  // namespace
}  // namespace musketeer::svc
