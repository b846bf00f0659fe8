// Network simplex for the welfare-maximizing circulation.
//
// The production algorithm for min-cost flows: maintain a spanning-tree
// basis (real arcs plus big-M artificial arcs to a virtual root), pivot
// negative-reduced-cost arcs into the tree along the unique tree cycle,
// and stop when no arc prices in. Each pivot costs O(n + m) here (the
// tree and potentials are rebuilt per pivot — the "lazy" variant), versus
// O(n·m) per cancellation for the Bellman–Ford canceller, which makes it
// the fast path at Lightning-like scales.
//
// Exactness: costs are the same scaled integers as the rest of the flow
// stack, so the result is exactly optimal; the solver asserts the
// no-negative-residual-cycle certificate in tests. Anti-cycling: Dantzig
// pivoting switches to Bland's rule after a threshold, and a hard pivot
// cap falls back to the proven Bellman–Ford solver (correctness is never
// at the mercy of degenerate pivoting). Fallbacks are counted in
// SolveStats::fallbacks so callers can see when the cap fired.
#pragma once

#include "flow/circulation.hpp"
#include "flow/graph.hpp"
#include "flow/solver.hpp"
#include "flow/workspace.hpp"

namespace musketeer::flow {

/// Solves max sum(gain_e * f_e) over feasible circulations via network
/// simplex. Stats (when given) count pivots as cycles_cancelled. The
/// basis, tree and potential buffers live in `ws` and are reused across
/// solves; the full Workspace is taken (not just SimplexScratch) so the
/// pivot-cap fallback path can reuse the Bellman–Ford scratch too.
/// `cancel` is checked once per pivot (and forwarded into the fallback
/// canceller). Callers go through solve_max_welfare(...,
/// SolverKind::kNetworkSimplex, ...).
Circulation solve_network_simplex(const Graph& g, Workspace& ws,
                                  SolveStats* stats,
                                  util::CancelToken* cancel);

}  // namespace musketeer::flow
