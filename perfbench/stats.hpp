// The benchmark's own statistics: quantiles with the ten-beyond rule,
// failure accounting, and open-loop schedule bookkeeping. Header-only
// and free of musketeer types so stats_test.cpp can pin every rule
// without building the libraries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; otherwise the figure is one or two outliers.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples.
/// The epsilon keeps 0.9 * 100 at rank 90 despite binary rounding.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// Samples strictly above the nearest-rank position of q.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// Smallest sample count whose q-quantile has kMinBeyond samples beyond.
inline std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < kMinBeyond) ++n;
  return n;
}

/// Nearest-rank quantile (no interpolation: every reported value is one
/// that was measured). 0 for an empty sample.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

/// Attempted / failed operations of one run. A failed operation also
/// counts as attempted; fail_frac is failed / attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Operations that never produced an answer (lost to a transport error
  /// or still unanswered at the end of the run) are failures too.
  void record_lost(std::uint64_t n) {
    attempted += n;
    failed += n;
  }
  double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Open-loop send schedule: request k of the whole run is due at a fixed
/// time after the start, whatever happened to earlier requests. Latency
/// and lateness are measured from the due time, so a stall is charged to
/// every request that had to wait behind it.
///
/// With duty < 1 the load comes in bursts: each period's rate * period
/// requests are spread evenly over the period's first `duty` share, and
/// the rest of the period is idle.
struct OpenLoopSchedule {
  double rate = 1.0;  ///< requests per second over all senders
  double period_s = 1.0;
  double duty = 1.0;

  double due_s(std::uint64_t k) const {
    if (duty >= 1.0) return static_cast<double>(k) / rate;
    const auto per_period = static_cast<std::uint64_t>(
        std::max(1.0, std::round(rate * period_s)));
    const std::uint64_t burst = k / per_period;
    const std::uint64_t j = k % per_period;
    return static_cast<double>(burst) * period_s +
           static_cast<double>(j) / static_cast<double>(per_period) * duty *
               period_s;
  }
  /// Requests due strictly before run time `t_s`, counting on from `from`
  /// (a count already known to be due before t_s).
  std::uint64_t due_before(double t_s, std::uint64_t from = 0) const {
    while (due_s(from) < t_s) ++from;
    return from;
  }
  /// Latency of a request answered at `answered_s` (run-relative).
  double latency_s(std::uint64_t k, double answered_s) const {
    return answered_s - due_s(k);
  }
  /// How late the generator sent request k (never negative: an early
  /// send is impossible by construction, clamped against clock jitter).
  double lateness_s(std::uint64_t k, double sent_s) const {
    return std::max(0.0, sent_s - due_s(k));
  }
};

/// Outstanding requests a backlog may grow by before it counts as growth.
inline constexpr double kBacklogSlack = 16.0;

/// True when the outstanding-request backlog sampled over a run grows:
/// the median of its last quarter exceeds twice the median of its first
/// quarter plus `slack` requests. An open-loop run whose backlog grows
/// measures a queue that never drains, not a latency.
inline bool backlog_grows(const std::vector<double>& backlog, double slack) {
  if (backlog.size() < 8) return false;
  const std::size_t quarter = backlog.size() / 4;
  const std::vector<double> first(backlog.begin(),
                                  backlog.begin() +
                                      static_cast<std::ptrdiff_t>(quarter));
  const std::vector<double> last(
      backlog.end() - static_cast<std::ptrdiff_t>(quarter), backlog.end());
  return quantile(last, 0.5) > 2.0 * quantile(first, 0.5) + slack;
}

/// Refuses a bid generator that would emit player ids outside the
/// service's [0, nodes) range: those bids are rejected as invalid and
/// would be charged to the system as failures. Returns "" when valid.
inline std::string check_player_range(long long players, long long nodes) {
  if (nodes <= 0) return "nodes must be positive";
  if (players <= 0) return "players must be positive";
  if (players > nodes) {
    return "players (" + std::to_string(players) + ") exceed nodes (" +
           std::to_string(nodes) + "): ids >= nodes are invalid bids";
  }
  return "";
}

}  // namespace perfbench
