#include "intake.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <unordered_map>

#include "svc/socket_util.hpp"
#include "svc/wire.hpp"

namespace perfbench {

void IntakeResult::merge(const IntakeResult& other) {
  ack_ms.insert(ack_ms.end(), other.ack_ms.begin(), other.ack_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  backlog_grew = backlog_grew || other.backlog_grew;
  tally.attempted += other.tally.attempted;
  tally.failed += other.tally.failed;
  ledger.accepted += other.ledger.accepted;
  ledger.replaced += other.ledger.replaced;
  ledger.rejected_full += other.ledger.rejected_full;
  ledger.rejected_invalid += other.ledger.rejected_invalid;
  ledger.rejected_closed += other.ledger.rejected_closed;
  ledger.duplicate += other.ledger.duplicate;
  ledger.rejected_overload += other.ledger.rejected_overload;
  transport_errors += other.transport_errors;
  if (error.empty()) error = other.error;
}

BidSource::BidSource(const IntakeConfig& config, int conn)
    : config_(config),
      conn_(conn),
      rng_(config.seed * 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(conn)),
      seq_(static_cast<std::size_t>(config.players), 0) {}

svc::BidSubmission BidSource::next(std::uint64_t tag) {
  const long long stride = config_.connections;
  const long long owned = (config_.players - conn_ + stride - 1) / stride;
  svc::BidSubmission bid;
  bid.player = static_cast<musketeer::core::PlayerId>(
      conn_ + stride * static_cast<long long>(
                           rng_.uniform(static_cast<std::uint64_t>(owned))));
  bid.client_tag = tag;
  bid.seq = ++seq_[static_cast<std::size_t>(bid.player)];
  if (config_.overrides) {
    // Inside the intake box (-kMaxFeeRate, 0] x [0, kMaxFeeRate).
    bid.has_tail = true;
    bid.tail_bid = -rng_.uniform_real(0.0, 0.01);
    bid.has_head = true;
    bid.head_bid = rng_.uniform_real(0.0, 0.05);
  }
  return bid;
}

OpenLoopIntake::OpenLoopIntake(const IntakeConfig& config) : config_(config) {
  const std::string bad = check_player_range(config.players, config.nodes);
  if (!bad.empty()) throw std::invalid_argument("intake: " + bad);
  if (config.connections < 1 || config.players < config.connections) {
    throw std::invalid_argument("intake: every connection needs a player");
  }
  if (!(config.rate > 0.0)) throw std::invalid_argument("intake: rate <= 0");
  const svc::Endpoint endpoint = svc::parse_endpoint(config.endpoint);
  try {
    for (int c = 0; c < config.connections; ++c) {
      const int fd = svc::connect_to(endpoint);
      fds_.push_back(fd);
      // An open-loop generator must put each bid on the wire at its due
      // time; Nagle batching on the generator's side would make it late.
      // The server's sockets keep their own settings.
      if (!endpoint.is_unix) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
    }
  } catch (...) {
    for (const int fd : fds_) ::close(fd);
    throw;
  }
  results_.resize(static_cast<std::size_t>(config.connections));
}

OpenLoopIntake::~OpenLoopIntake() {
  for (std::jthread& t : threads_) t.request_stop();
  threads_.clear();  // joins
  for (const int fd : fds_) ::close(fd);
}

void OpenLoopIntake::start(Clock::time_point start) {
  start_ = start;
  for (int c = 0; c < config_.connections; ++c) {
    threads_.emplace_back(
        [this, c](const std::stop_token& stop) { run(c, stop); });
  }
}

void OpenLoopIntake::set_gate(std::function<bool(std::uint64_t)> may_send) {
  gate_ = std::move(may_send);
}

IntakeResult OpenLoopIntake::finish(Clock::time_point stop_at,
                                    std::chrono::milliseconds drain) {
  // Acks are awaited for `drain` from now, even when stop_at is past.
  drain_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() + drain - start_)
                      .count());
  stop_at_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop_at - start_)
          .count());
  // join() without a stop request: each stream drains its acks first.
  for (std::jthread& t : threads_) t.join();
  threads_.clear();
  IntakeResult merged;
  for (const IntakeResult& r : results_) merged.merge(r);
  return merged;
}

void OpenLoopIntake::run(int conn, std::stop_token stop) {
  IntakeResult& r = results_[static_cast<std::size_t>(conn)];
  const int fd = fds_[static_cast<std::size_t>(conn)];
  const OpenLoopSchedule schedule = schedule_of(config_);
  BidSource source(config_, conn);
  svc::FrameParser parser;
  std::unordered_map<std::uint64_t, std::uint64_t> outstanding;  // tag -> k
  std::vector<double> backlog;  // outstanding bids, sampled per send
  std::string frame;
  std::vector<char> buf(1 << 16);
  const auto since_start = [this] {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  };
  const auto fail = [&r](const std::string& what) {
    ++r.transport_errors;
    if (r.error.empty()) r.error = what;
  };
  std::uint64_t j = 0;  // this connection's bids sent so far
  try {
    while (!stop.stop_requested()) {
      const double now = since_start();
      const std::uint64_t k =
          static_cast<std::uint64_t>(conn) +
          static_cast<std::uint64_t>(config_.connections) * j;
      const double due = schedule.due_s(k);
      const double stop_s =
          static_cast<double>(stop_at_ns_.load()) * 1e-9;
      const bool sending = due < stop_s;
      const bool waiting = sending && now >= due && gate_ && !gate_(k);
      if (sending && !waiting && now >= due) {
        const svc::BidSubmission bid = source.next(k + 1);
        frame.clear();
        svc::append_frame(frame, svc::MsgType::kSubmitBid,
                          svc::encode_submit_bid(bid));
        if (!svc::send_all(fd, frame.data(), frame.size())) {
          fail("send failed");
          ++j;
          r.tally.record_lost(1);
          break;
        }
        r.late_ms.push_back(schedule.lateness_s(k, now) * 1e3);
        outstanding.emplace(k + 1, k);
        backlog.push_back(static_cast<double>(outstanding.size()));
        ++j;
        continue;
      }
      const double drain_end = static_cast<double>(drain_ns_.load()) * 1e-9;
      if (!sending && (outstanding.empty() || now >= drain_end)) break;
      // A held bid polls for its release while it reads acks.
      const double wait = !sending ? std::min(0.05, drain_end - now)
                          : waiting ? 0.0002
                                    : due - now;
      const long long wait_ns =
          static_cast<long long>(std::max(0.0, wait) * 1e9);
      timespec ts{static_cast<time_t>(wait_ns / 1000000000LL),
                  static_cast<long>(wait_ns % 1000000000LL)};
      pollfd pfd{fd, POLLIN, 0};
      if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n <= 0) {
        fail("connection closed by server");
        break;
      }
      const double received = since_start();
      parser.feed(buf.data(), static_cast<std::size_t>(n));
      while (std::optional<svc::Frame> f = parser.next()) {
        if (f->type == svc::MsgType::kError) {
          fail("server error: " + svc::decode_error(f->payload).message);
          continue;
        }
        if (f->type != svc::MsgType::kBidAck) continue;  // epoch broadcasts
        const svc::BidAckMsg ack = svc::decode_bid_ack(f->payload);
        const auto it = outstanding.find(ack.client_tag);
        if (it == outstanding.end()) {
          fail("ack for an unknown client tag");
          continue;
        }
        r.ack_ms.push_back(schedule.latency_s(it->second, received) * 1e3);
        r.tally.record(svc::intake_ok(ack.status));
        switch (ack.status) {
          case svc::IntakeStatus::kAccepted: ++r.ledger.accepted; break;
          case svc::IntakeStatus::kReplaced: ++r.ledger.replaced; break;
          case svc::IntakeStatus::kRejectedFull: ++r.ledger.rejected_full; break;
          case svc::IntakeStatus::kRejectedInvalid:
            ++r.ledger.rejected_invalid;
            break;
          case svc::IntakeStatus::kRejectedClosed:
            ++r.ledger.rejected_closed;
            break;
          case svc::IntakeStatus::kDuplicate: ++r.ledger.duplicate; break;
          case svc::IntakeStatus::kRejectedOverload:
            ++r.ledger.rejected_overload;
            break;
        }
        outstanding.erase(it);
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("wire: ") + e.what());
  }
  // Bids that never got an answer are failures, not missing samples.
  r.tally.record_lost(outstanding.size());
  r.backlog_grew = backlog_grows(backlog, kBacklogSlack);
}

}  // namespace perfbench
