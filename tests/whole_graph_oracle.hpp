// The whole-graph reference that SolveContext's per-component solve and
// M2Vcg's per-component VCG sweep are checked against: one
// flow::solve_max_welfare call on the game's full bid graph, and for VCG
// prices one more on G_{-v} (Game::build_graph_without) per buyer. Slow
// and plain on purpose — it shares no code with the slot pool, the
// partitioner or the executor, so agreeing with it bit for bit means
// something.
#pragma once

#include <cstddef>
#include <vector>

#include "core/game.hpp"
#include "flow/solver.hpp"

namespace musketeer::oracle {

/// The welfare-maximizing circulation of the game's whole bid graph.
inline flow::Circulation circulation(const core::Game& game,
                                     const core::BidVector& bids,
                                     flow::SolverKind kind) {
  return flow::solve_max_welfare(game.build_graph(bids), kind);
}

/// M2's aggregate VCG pivot prices, p(v) = SW(b_{-v}, f_{-v}) -
/// SW(b_{-v}, f), with tail bids zeroed as M2 does and f, f_{-v} each
/// solved on the whole graph. Players without a positive head bid are
/// not buyers and pay 0.
inline std::vector<double> vcg_prices(const core::Game& game,
                                      const core::BidVector& raw_bids,
                                      flow::SolverKind kind) {
  core::BidVector bids = raw_bids;
  for (double& t : bids.tail) t = 0.0;
  const flow::Circulation f = circulation(game, bids, kind);

  const auto n = static_cast<std::size_t>(game.num_players());
  std::vector<bool> is_buyer(n, false);
  for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
    if (bids.head[static_cast<std::size_t>(e)] > 0.0) {
      is_buyer[static_cast<std::size_t>(game.edge(e).to)] = true;
    }
  }
  std::vector<double> prices(n, 0.0);
  for (core::PlayerId v = 0; v < game.num_players(); ++v) {
    if (!is_buyer[static_cast<std::size_t>(v)]) continue;
    const flow::Circulation f_minus =
        flow::solve_max_welfare(game.build_graph_without(bids, v), kind);
    prices[static_cast<std::size_t>(v)] =
        (game.social_welfare(bids, f_minus) -
         game.player_value(v, bids, f_minus)) -
        (game.social_welfare(bids, f) - game.player_value(v, bids, f));
  }
  return prices;
}

}  // namespace musketeer::oracle
