// E7 — solver ablation: Bellman–Ford cycle cancelling (the production
// solver and simple referee) vs network simplex vs the LP simplex
// referee. Same optimum everywhere; very different runtimes and
// iteration counts. The coin-scale row (capacities up to 1e8) checks BF
// against NS only: the dense floating-point LP is no exact referee there.
//
// Exits non-zero (after printing the table and writing the report) if any
// solver disagrees: BF and NS must have equal scaled-integer welfare and
// both pass the residual-cycle certificate; the LP must match within 1e-5.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "flow/solver.hpp"
#include "gen/game_gen.hpp"
#include "lp/flow_lp.hpp"
#include "util/assert.hpp"
#include "util/bench_json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace musketeer;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Cell {
  flow::NodeId n;
  flow::Amount capacity_max;
  bool with_lp;
  /// Suffix of the BENCH op names ("" keeps the historical n<k> names).
  const char* tag;
};

}  // namespace

int main() {
  util::BenchReport bench("e7_solver_ablation");
  bench.config("trials_per_size", std::int64_t{3});
  std::printf("E7: solver ablation (3 random games per size; welfare "
              "agreement checked exactly)\n\n");

  const Cell cells[] = {{16, 50, true, ""},
                        {32, 50, true, ""},
                        {64, 50, true, ""},
                        {128, 50, true, ""},
                        {128, 100'000'000, false, "_cap1e8"}};

  util::Rng rng(2468);
  util::Table table({"n", "cap max", "edges", "BF ms", "BF cycles",
                     "simplex ms", "simplex pivots", "NS fallbacks", "LP ms",
                     "agree"});
  bool all_agree = true;
  for (const Cell& cell : cells) {
    util::Accumulator bf_ms, ns_ms, lp_ms, bf_cycles, ns_pivots;
    int ns_fallbacks = 0;  // pivot-cap fallbacks to the BF canceller
    int edges = 0;
    bool agree = true;
    for (int trial = 0; trial < 3; ++trial) {
      gen::GameConfig config;
      config.depleted_share = 0.3;
      config.capacity_max = cell.capacity_max;
      const core::Game game = gen::random_ba_game(cell.n, 2, config, rng);
      const flow::Graph g = game.build_graph(game.truthful_bids());
      edges = g.num_edges();

      auto t0 = std::chrono::steady_clock::now();
      flow::SolveStats bf_stats;
      const flow::Circulation f_bf =
          flow::solve_max_welfare(g, flow::SolverKind::kBellmanFord, &bf_stats);
      bf_ms.add(ms_since(t0));
      bf_cycles.add(bf_stats.cycles_cancelled);

      t0 = std::chrono::steady_clock::now();
      flow::SolveStats ns_stats;
      const flow::Circulation f_ns = flow::solve_max_welfare(
          g, flow::SolverKind::kNetworkSimplex, &ns_stats);
      ns_ms.add(ms_since(t0));
      ns_pivots.add(ns_stats.cycles_cancelled);
      ns_fallbacks += ns_stats.fallbacks;

      // Exact agreement plus the optimality certificate on both.
      const auto w_bf = flow::scaled_welfare(g, f_bf);
      if (flow::scaled_welfare(g, f_ns) != w_bf ||
          !flow::is_optimal(g, f_bf) || !flow::is_optimal(g, f_ns)) {
        agree = false;
      }

      if (cell.with_lp) {
        t0 = std::chrono::steady_clock::now();
        const lp::FlowLpResult lp_result = lp::solve_circulation_lp(g);
        lp_ms.add(ms_since(t0));
        if (std::abs(lp_result.welfare -
                     static_cast<double>(w_bf) / flow::kGainScale) > 1e-5) {
          agree = false;
        }
      }
    }
    all_agree = all_agree && agree;
    // ms means over the trials -> ns/op per solver at this size.
    const std::pair<const char*, const util::Accumulator*> solver_ms[] = {
        {"bellman_ford", &bf_ms},
        {"network_simplex", &ns_ms},
        {"lp_simplex", &lp_ms}};
    for (const auto& [op, acc] : solver_ms) {
      if (acc->count() == 0) continue;
      bench.add(util::format("%s/n%d%s", op, cell.n, cell.tag),
                1e6 * acc->mean(), acc->count());
    }
    table.add_row({util::fmt_int(cell.n), util::fmt_int(cell.capacity_max),
                   util::fmt_int(edges), util::fmt_double(bf_ms.mean(), 2),
                   util::fmt_double(bf_cycles.mean(), 0),
                   util::fmt_double(ns_ms.mean(), 2),
                   util::fmt_double(ns_pivots.mean(), 0),
                   util::fmt_int(ns_fallbacks),
                   cell.with_lp ? util::fmt_double(lp_ms.mean(), 2) : "-",
                   agree ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nexpected shape: all solvers agree on the optimum (BF = NS in\n"
      "scaled-integer welfare, both certified by the residual-cycle test;\n"
      "LP within 1e-5). Network simplex is ~10x faster than the\n"
      "Bellman-Ford canceller at n=128 at both capacity scales; the dense\n"
      "LP simplex is the slow independent referee.\n");
  bench.write();
  MUSK_ASSERT_MSG(all_agree, "e7: solvers disagree on the optimum");
  return 0;
}
