// Open-loop bid load over the service's TCP wire protocol.
//
// Each connection runs one thread that sends SubmitBid frames on a fixed
// schedule (independent of acks) and reads BidAcks as they arrive, so a
// stalled server makes the queue grow instead of slowing the load. Every
// ack is timed from its bid's scheduled send time. Connection c owns the
// players with id % connections == c, which keeps each player's seq
// numbers in send order on a single stream.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "svc/bid_queue.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace svc = musketeer::svc;
using Clock = std::chrono::steady_clock;

struct IntakeConfig {
  std::string endpoint;
  double rate = 1000.0;  ///< bids per second over all connections
  /// Burst shape (see OpenLoopSchedule): duty 1 sends evenly.
  double burst_period_s = 1.0;
  double burst_duty = 1.0;
  int connections = 2;
  long long players = 1;  ///< ids drawn from [0, players)
  long long nodes = 1;    ///< the service's player range
  /// Seeded head/tail overrides; false sends participation refreshes,
  /// which leave every settled outcome unchanged.
  bool overrides = false;
  std::uint64_t seed = 1;
};

/// What one connection (or the whole load, once merged) observed.
struct IntakeResult {
  std::vector<double> ack_ms;     ///< due -> ack, per acked bid
  std::vector<double> late_ms;    ///< due -> actual send, per sent bid
  /// A stream's outstanding-bid backlog grew over its run.
  bool backlog_grew = false;
  Tally tally;                    ///< acked kAccepted/kReplaced = ok
  svc::IntakeCounters ledger;     ///< acks by status, as the client saw them
  std::uint64_t transport_errors = 0;
  std::string error;              ///< first transport error, if any

  void merge(const IntakeResult& other);
};

/// The send schedule of the whole load.
inline OpenLoopSchedule schedule_of(const IntakeConfig& c) {
  return {c.rate, c.burst_period_s, c.burst_duty};
}

/// Generates bids for one connection: players with id % connections ==
/// conn, per-player seq in send order, overrides inside the valid box.
class BidSource {
 public:
  BidSource(const IntakeConfig& config, int conn);
  svc::BidSubmission next(std::uint64_t tag);

 private:
  const IntakeConfig config_;
  const int conn_;
  musketeer::util::Rng rng_;
  std::vector<std::uint32_t> seq_;  ///< last seq per player id
};

class OpenLoopIntake {
 public:
  /// Validates the config (throws std::invalid_argument on a player
  /// range outside the service's) and connects every stream.
  explicit OpenLoopIntake(const IntakeConfig& config);
  ~OpenLoopIntake();
  OpenLoopIntake(const OpenLoopIntake&) = delete;
  OpenLoopIntake& operator=(const OpenLoopIntake&) = delete;

  /// Starts sending; bid k of the run is due at schedule().due_s(k)
  /// after `start`.
  void start(Clock::time_point start);
  /// Makes bid k of the run wait, once due, until `may_send(k)` returns
  /// true. It is polled while the bid waits, from every connection's
  /// thread. A waiting bid goes out late, and its latency still counts
  /// from its due time. Call before start(); by default nothing waits.
  void set_gate(std::function<bool(std::uint64_t k)> may_send);
  /// Stops scheduling bids due at or after `stop_at`, waits up to
  /// `drain` for outstanding acks (unanswered bids count as failures),
  /// joins the threads and returns the merged result.
  IntakeResult finish(Clock::time_point stop_at,
                      std::chrono::milliseconds drain);

 private:
  void run(int conn, std::stop_token stop);

  const IntakeConfig config_;
  std::vector<int> fds_;
  std::vector<IntakeResult> results_;
  Clock::time_point start_{};
  std::atomic<std::int64_t> stop_at_ns_{
      std::numeric_limits<std::int64_t>::max()};
  std::function<bool(std::uint64_t)> gate_;
  /// End of the ack drain, in ns since start_ (set by finish()).
  std::atomic<std::int64_t> drain_ns_{0};
  std::vector<std::jthread> threads_;
};

}  // namespace perfbench
