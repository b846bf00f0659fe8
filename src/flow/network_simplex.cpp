#include "flow/network_simplex.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace musketeer::flow {

namespace {

enum class ArcState : signed char { kTree, kLower, kUpper };

using SimplexArc = SimplexScratch::Arc;
using Step = SimplexScratch::Step;

// The basis, flows, tree and potentials all live in the caller-provided
// SimplexScratch; this class is a view that (re)initializes them for one
// graph and runs pivots.
class NetworkSimplex {
 public:
  NetworkSimplex(const Graph& g, SimplexScratch& ws)
      : graph_(g),
        ws_(ws),
        num_real_(static_cast<std::size_t>(g.num_edges())),
        root_(g.num_nodes()) {
    const std::size_t n = static_cast<std::size_t>(g.num_nodes());
    std::int64_t max_cost = 1;
    Amount cap_sum = 1;
    auto& arcs = ws_.arcs;
    arcs.clear();
    arcs.reserve(num_real_ + n);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      arcs.push_back(
          SimplexArc{edge.from, edge.to, edge.capacity, -g.scaled_gain(e)});
      max_cost = std::max(max_cost, std::abs(arcs.back().cost));
      cap_sum += edge.capacity;
    }
    // Artificial arcs v -> root with prohibitive cost; with zero node
    // balances they never carry flow (every root cycle is degenerate),
    // but they provide the initial spanning tree.
    const std::int64_t big_m =
        (static_cast<std::int64_t>(n) + 2) * (max_cost + 1);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      arcs.push_back(SimplexArc{v, root_, cap_sum, big_m});
    }
    ws_.flow.assign(arcs.size(), 0);
    ws_.state.assign(arcs.size(), static_cast<signed char>(ArcState::kLower));
    for (std::size_t a = num_real_; a < arcs.size(); ++a) {
      ws_.state[a] = static_cast<signed char>(ArcState::kTree);
    }
    rebuild_tree();
  }

  /// Runs pivots to optimality. Returns false if the pivot cap was hit
  /// (caller should fall back to a different solver).
  bool solve(SolveStats* stats, util::CancelToken* cancel) {
    const long long bland_threshold =
        16LL * static_cast<long long>(ws_.arcs.size()) + 256;
    const long long pivot_cap =
        256LL * static_cast<long long>(ws_.arcs.size()) + 4096;
    long long pivots = 0;
    for (;;) {
      MUSK_CANCEL_POINT(cancel);
      const bool bland = pivots > bland_threshold;
      const int entering = find_entering(bland);
      if (entering < 0) return true;
      if (++pivots > pivot_cap) return false;
      pivot(static_cast<std::size_t>(entering), bland);
      if (stats != nullptr) ++stats->cycles_cancelled;
    }
  }

  Circulation extract() const {
    Circulation f(num_real_);
    for (std::size_t a = 0; a < num_real_; ++a) f[a] = ws_.flow[a];
    return f;
  }

 private:
  ArcState state(std::size_t a) const {
    return static_cast<ArcState>(ws_.state[a]);
  }

  void set_state(std::size_t a, ArcState s) {
    ws_.state[a] = static_cast<signed char>(s);
  }

  std::int64_t reduced_cost(std::size_t a) const {
    return ws_.arcs[a].cost - ws_.pi[static_cast<std::size_t>(ws_.arcs[a].from)] +
           ws_.pi[static_cast<std::size_t>(ws_.arcs[a].to)];
  }

  // Entering rule: Dantzig (most violating) or Bland (first violating).
  int find_entering(bool bland) const {
    int best = -1;
    std::int64_t best_violation = 0;
    for (std::size_t a = 0; a < ws_.arcs.size(); ++a) {
      if (state(a) == ArcState::kTree) continue;
      const std::int64_t red = reduced_cost(a);
      std::int64_t violation = 0;
      if (state(a) == ArcState::kLower && red < 0) violation = -red;
      if (state(a) == ArcState::kUpper && red > 0) violation = red;
      if (violation == 0) continue;
      if (bland) return static_cast<int>(a);
      if (violation > best_violation) {
        best_violation = violation;
        best = static_cast<int>(a);
      }
    }
    return best;
  }

  // One pivot: push along the tree cycle closed by `entering`, kick out
  // the blocking arc (or bound-flip the entering arc itself).
  void pivot(std::size_t entering, bool bland) {
    auto& arcs = ws_.arcs;
    auto& flow = ws_.flow;
    // Conceptual push direction: along the arc when entering from its
    // lower bound, against it when entering from the upper bound.
    const bool from_lower = state(entering) == ArcState::kLower;
    const NodeId source = from_lower ? arcs[entering].from
                                     : arcs[entering].to;
    const NodeId target = from_lower ? arcs[entering].to
                                     : arcs[entering].from;

    // The cycle is: entering (source->target conceptually), then the
    // tree path target -> ... -> source. Collect the path arcs with
    // their traversal orientation.
    std::vector<Step>& path = ws_.path;
    {
      NodeId x = target, y = source;
      // Climb to equal depth, then in lockstep to the LCA. Record x-side
      // steps in order, y-side steps reversed at the end.
      std::vector<Step>& from_target = ws_.from_target;
      std::vector<Step>& from_source = ws_.from_source;
      from_target.clear();
      from_source.clear();
      auto step_up = [&](NodeId& v, std::vector<Step>& out, bool upward) {
        const std::size_t a = static_cast<std::size_t>(
            ws_.parent_arc[static_cast<std::size_t>(v)]);
        // Traversal v -> parent: forward iff the arc points v -> parent.
        const bool arc_points_up = arcs[a].from == v;
        // For the target side we walk with the cycle (v toward root);
        // for the source side we will traverse the arcs in the opposite
        // direction (root toward v), flipping the orientation.
        out.push_back(Step{a, upward ? arc_points_up : !arc_points_up});
        v = arcs[a].from == v ? arcs[a].to : arcs[a].from;
      };
      while (ws_.depth[static_cast<std::size_t>(x)] >
             ws_.depth[static_cast<std::size_t>(y)]) {
        step_up(x, from_target, true);
      }
      while (ws_.depth[static_cast<std::size_t>(y)] >
             ws_.depth[static_cast<std::size_t>(x)]) {
        step_up(y, from_source, false);
      }
      while (x != y) {
        step_up(x, from_target, true);
        step_up(y, from_source, false);
      }
      path.clear();
      path.insert(path.end(), from_target.begin(), from_target.end());
      path.insert(path.end(), from_source.rbegin(), from_source.rend());
    }

    // Headroom of the entering arc itself (a possible bound flip).
    Amount delta = from_lower ? arcs[entering].capacity - flow[entering]
                              : flow[entering];
    std::size_t leaving = entering;
    bool leaving_at_upper = from_lower;  // where the entering arc would land
    for (const Step& step : path) {
      const Amount headroom = step.forward
                                  ? arcs[step.arc].capacity - flow[step.arc]
                                  : flow[step.arc];
      // Strictly smaller headroom always wins; on ties Bland's rule picks
      // the lowest arc index among the blocking arcs (anti-cycling).
      const bool take = headroom < delta ||
                        (bland && headroom == delta && step.arc < leaving);
      if (take) {
        delta = headroom;
        leaving = step.arc;
        leaving_at_upper = step.forward;  // saturates at capacity if forward
      }
    }

    // Apply the push.
    if (delta > 0) {
      flow[entering] += from_lower ? delta : -delta;
      for (const Step& step : path) {
        flow[step.arc] += step.forward ? delta : -delta;
      }
    }

    if (leaving == entering) {
      // Bound flip: the entering arc traversed to its other bound.
      set_state(entering, from_lower ? ArcState::kUpper : ArcState::kLower);
      return;
    }
    set_state(entering, ArcState::kTree);
    set_state(leaving,
              leaving_at_upper ? ArcState::kUpper : ArcState::kLower);
    MUSK_ASSERT(flow[leaving] == 0 ||
                flow[leaving] == arcs[leaving].capacity);
    rebuild_tree();
  }

  // Recomputes parent pointers, depths and potentials from the current
  // tree arcs (BFS from the root). O(n + m).
  void rebuild_tree() {
    const std::size_t nodes = static_cast<std::size_t>(root_) + 1;
    ws_.parent_arc.assign(nodes, -1);
    ws_.depth.assign(nodes, -1);
    ws_.pi.assign(nodes, 0);

    // Tree adjacency (outer vector resized; inner vectors keep capacity).
    std::vector<std::vector<std::size_t>>& adjacency = ws_.adjacency;
    if (adjacency.size() < nodes) adjacency.resize(nodes);
    for (std::size_t v = 0; v < nodes; ++v) adjacency[v].clear();
    for (std::size_t a = 0; a < ws_.arcs.size(); ++a) {
      if (state(a) != ArcState::kTree) continue;
      adjacency[static_cast<std::size_t>(ws_.arcs[a].from)].push_back(a);
      adjacency[static_cast<std::size_t>(ws_.arcs[a].to)].push_back(a);
    }
    std::vector<NodeId>& queue = ws_.bfs_queue;
    queue.clear();
    queue.push_back(root_);
    ws_.depth[static_cast<std::size_t>(root_)] = 0;
    ws_.pi[static_cast<std::size_t>(root_)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (std::size_t a : adjacency[static_cast<std::size_t>(v)]) {
        const NodeId w =
            ws_.arcs[a].from == v ? ws_.arcs[a].to : ws_.arcs[a].from;
        if (ws_.depth[static_cast<std::size_t>(w)] >= 0) continue;
        ws_.depth[static_cast<std::size_t>(w)] =
            ws_.depth[static_cast<std::size_t>(v)] + 1;
        ws_.parent_arc[static_cast<std::size_t>(w)] = static_cast<int>(a);
        // Tree arcs have zero reduced cost: c - pi_from + pi_to = 0.
        if (ws_.arcs[a].from == w) {
          ws_.pi[static_cast<std::size_t>(w)] =
              ws_.arcs[a].cost + ws_.pi[static_cast<std::size_t>(v)];
        } else {
          ws_.pi[static_cast<std::size_t>(w)] =
              ws_.pi[static_cast<std::size_t>(v)] - ws_.arcs[a].cost;
        }
        queue.push_back(w);
      }
    }
    MUSK_ASSERT_MSG(queue.size() == nodes, "basis must span all nodes");
  }

  const Graph& graph_;
  SimplexScratch& ws_;
  std::size_t num_real_;
  NodeId root_;
};

}  // namespace

Circulation solve_network_simplex(const Graph& g, Workspace& ws,
                                  SolveStats* stats,
                                  util::CancelToken* cancel) {
  if (g.num_edges() == 0) return zero_circulation(g);
  NetworkSimplex simplex(g, ws.ns);
  if (!simplex.solve(stats, cancel)) {
    // Degenerate pivoting hit the cap: fall back to the proven canceller
    // rather than risk a stale answer. Surface the event so benchmarks
    // and callers can see that the reported timings include a fallback.
    if (stats != nullptr) ++stats->fallbacks;
    return solve_max_welfare(g, ws, SolverKind::kBellmanFord, stats, cancel);
  }
  Circulation f = simplex.extract();
  MUSK_ASSERT_MSG(is_feasible(g, f),
                  "network simplex produced an infeasible circulation");
#if defined(MUSKETEER_AUDIT)
  // Audit hook: a spanning basis with no violating reduced cost must be
  // optimal — re-certify with the independent residual-cycle test.
  MUSK_ASSERT_MSG(is_optimal(g, f),
                  "audit: network simplex basis optimality disagrees with "
                  "the residual-cycle certificate");
#endif
  return f;
}

}  // namespace musketeer::flow
