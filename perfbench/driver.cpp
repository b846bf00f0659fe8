// The repository benchmark driver. See perfbench/README.md for the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir>
//
// --trace 0 drives the real epoch path (an in-process svc::Daemon on TCP
// loopback, journal on, periodic mode off) and times each
// RebalanceService::run_epoch call from outside.
// --trace 1 runs a shorter timed phase, then replays exactly the same
// seeded epochs through each layer's public entry points with a
// benchmark-side span around every call, and checks that the replay
// settles to the same digests.
//
// Progress lines start with '#'; the last stdout line is the JSON result.
// A failed check prints the metrics gathered so far and the check's name
// to stderr and exits 1.
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/mechanism_factory.hpp"
#include "flow/solver.hpp"
#include "gen/workload.hpp"
#include "intake.hpp"
#include "pcn/payment.hpp"
#include "pcn/rebalancer.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "svc/daemon.hpp"
#include "svc/executor.hpp"
#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "svc/snapshot.hpp"
#include "svc/wire.hpp"
#include "util/stats.hpp"

namespace {
std::atomic<std::uint64_t> fsync_calls{0};
}  // namespace

// Counts the program's fsync calls (journal, snapshots, directories): this
// definition takes the place of libc's for every call in the process.
extern "C" int fsync(int fd) {
  fsync_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

namespace perfbench {
namespace {

namespace check = musketeer::check;
namespace core = musketeer::core;
namespace flow = musketeer::flow;
namespace gen = musketeer::gen;
namespace pcn = musketeer::pcn;
namespace sim = musketeer::sim;
namespace util = musketeer::util;
namespace fs = std::filesystem;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Workloads

/// Solve concurrency of every service and benchmark-owned context: the
/// sharded production path, within the 4-core budget.
constexpr int kSolveThreads = 2;
/// Timed epochs a run needs so its p90 has ten samples beyond it.
const std::size_t kMinEpochs = min_samples_for(0.9);
/// Acks a run needs so its ack p99 has ten samples beyond it.
const std::size_t kMinAcks = min_samples_for(0.99);

struct Workload {
  std::string name;
  std::string mechanism;
  flow::NodeId nodes = 0;
  double initial_skew = 0.0;
  /// Networks drawn from the run seed (else the reference network).
  bool seeded_topology = false;
  /// Timed epochs per life (one fresh daemon).
  int epochs_per_life = 0;
  /// Payments routed on the settled network once clearing is done: the
  /// E4-style probe of how routable the rebalanced network is.
  int probe_payments = 0;
  /// Epochs cleared during set-up, before timing.
  int warmup_epochs = 0;
  /// Open-loop bid intake over TCP, bids per second over 2 connections.
  double intake_rate = 0.0;
  /// Share of each epoch period the bids of that period are sent in (1 =
  /// evenly; needs epoch_period_s).
  double intake_duty = 1.0;
  /// Seeded head/tail overrides (else participation refreshes, which
  /// leave every settled outcome unchanged).
  bool overrides = false;
  /// Benchmark-driven epoch cadence (0 = back to back).
  double epoch_period_s = 0.0;
  /// Checkpoint every N settled epochs (0 = journal only).
  int snapshot_every = 0;
};

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "cold-m2") {
    w.mechanism = "m2";
    w.nodes = 60;
    w.initial_skew = 0.4;
    w.seeded_topology = true;
    w.epochs_per_life = 5;
    // The steady-state payment batch (300 per epoch) once per life, and
    // the intake path's 1000 bids/s as participation refreshes, so that
    // every end-to-end metric is defined while the VCG sweep runs.
    w.probe_payments = 300;
    w.intake_rate = 1000.0;
    return w;
  }
  if (name == "wire-m3") {
    w.mechanism = "m3";
    w.nodes = 200;
    w.initial_skew = 0.4;
    w.epochs_per_life = 20;
    w.probe_payments = 300;
    w.warmup_epochs = 5;
    w.intake_rate = 1000.0;
    // Bids arrive in the first half of each epoch period, as clients
    // answering an epoch broadcast would send them.
    w.intake_duty = 0.5;
    w.overrides = true;
    w.epoch_period_s = 0.1;
    // The last epoch of each life checkpoints (1 in 20): p90 stays among
    // ordinary epochs instead of on the boundary between the two kinds.
    w.snapshot_every = 25;
    return w;
  }
  return std::nullopt;
}

sim::SimulationConfig sim_config(const Workload& w) {
  sim::SimulationConfig config;
  config.num_nodes = w.nodes;
  config.initial_skew = w.initial_skew;
  return config;
}

/// Network `index` of a run and the payment stream that belongs to it.
struct Genesis {
  pcn::Network network;
  util::Rng payments;
};

/// Seed of the reference networks of workloads without seeded_topology.
constexpr std::uint64_t kReferenceNetworkSeed = 0x6d75736b;

/// `reference` forces reference network `index`, whatever the workload.
Genesis make_genesis(const Workload& w, std::uint64_t seed, int index,
                     bool reference) {
  // Cold networks are drawn from the run seed. Otherwise life i clears
  // reference network i, the same for every seed, and the seed drives
  // only the traffic (bids and payments): one topology per seed would
  // make the run-to-run spread a property of the topology.
  const std::uint64_t mix = static_cast<std::uint64_t>(index) + 1;
  const bool seeded = w.seeded_topology && !reference;
  util::Rng topology((seeded ? seed : kReferenceNetworkSeed) *
                         0x9e3779b97f4a7c15ULL +
                     mix);
  pcn::Network network = sim::build_network(sim_config(w), topology);
  return Genesis{std::move(network),
                 util::Rng(seed * 0xbf58476d1ce4e5b9ULL + mix)};
}

// ---------------------------------------------------------------------------
// Report: metrics by name, progress lines, failure reporting

enum class Kind { kEndToEnd, kLayer, kInfo };

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           Kind kind) {
    if (index_.count(name) == 0) {
      index_[name] = rows_.size();
      rows_.push_back({name, value, unit, kind});
    } else {
      rows_[index_[name]] = {name, value, unit, kind};
    }
  }

  /// Marks the start of a phase; on an abort run.py names the last one.
  void phase(const std::string& name) {
    std::printf("#phase %s\n#partial %s\n", name.c_str(),
                json(std::nullopt).c_str());
    std::fflush(stdout);
  }

  /// Fails the run when `ok` is false: prints the metrics so far and
  /// names the check, then exits 1 without a result line.
  void check(bool ok, const std::string& name, const std::string& detail) {
    if (ok) return;
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: check failed: %s: %s\n", name.c_str(),
                 detail.c_str());
    std::fprintf(stderr, "perfbench: metrics so far: %s\n",
                 json(std::nullopt).c_str());
    std::exit(1);
  }

  void print(bool trace, std::uint64_t attempted, std::uint64_t failed) {
    std::printf("%-36s %16s  %-6s %s\n", "metric", "value", "unit", "kind");
    for (const Row& r : rows_) {
      const char* kind = r.kind == Kind::kEndToEnd ? "end-to-end"
                         : r.kind == Kind::kLayer  ? "layer"
                                                   : "info";
      std::printf("%-36s %16.6f  %-6s %s\n", r.name.c_str(), r.value,
                  r.unit.c_str(), kind);
    }
    std::printf(
        "{\"correct\": true, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": %s}\n",
        attempted, failed,
        json(trace ? Kind::kLayer : Kind::kEndToEnd).c_str());
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    Kind kind;
  };

  std::string json(std::optional<Kind> only) const {
    std::string out = "{";
    for (const Row& r : rows_) {
      if (only && r.kind != *only) continue;
      if (out.size() > 1) out += ", ";
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", r.value);
      out += "\"" + r.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             r.unit + "\"}";
    }
    return out + "}";
  }

  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------
// The production daemon: journal (+ snapshots), recovery, service, TCP
// server. Periodic mode stays off, so the benchmark owns the cadence.

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::unique_ptr<svc::Daemon> make_daemon(pcn::Network genesis,
                                         const Workload& w,
                                         const std::string& journal_path) {
  svc::DaemonConfig config;
  config.service.threads = kSolveThreads;
  config.journal_path = journal_path;
  config.snapshot_every = w.snapshot_every;
  return std::make_unique<svc::Daemon>(
      std::move(genesis), core::make_mechanism(w.mechanism, {}), config);
}

/// Payments routed and the time spent routing them.
struct Routing {
  std::size_t routed = 0;
  std::size_t succeeded = 0;
  double seconds = 0.0;
  /// Per-payment times; kept by the traced replay only, so the timed
  /// run's memory does not grow with its speed.
  std::vector<double>* route_us = nullptr;
};

/// Routes `count` payments from the stream on `network`, timing each call.
void route_payments(const Workload& w, pcn::Network& network, util::Rng& rng,
                    int count, Routing& out) {
  const sim::SimulationConfig config = sim_config(w);
  const std::vector<gen::Payment> payments =
      gen::generate_payments(w.nodes, count, config.workload, rng);
  for (const gen::Payment& p : payments) {
    const Clock::time_point t = Clock::now();
    const bool ok = pcn::send_payment(network, p.sender, p.receiver,
                                      p.amount, /*max_attempts=*/3,
                                      config.max_hops)
                        .success;
    const double s = since(t);
    ++out.routed;
    out.succeeded += ok;
    out.seconds += s;
    if (out.route_us != nullptr) out.route_us->push_back(s * 1e6);
  }
}

// ---------------------------------------------------------------------------
// Timed run

struct EpochFacts {
  int game_edges = 0;
  int cycles = 0;
  std::uint64_t digest = 0;
};

struct TimedResult {
  std::vector<double> clear_ms;
  double run_epoch_s = 0.0;
  Tally epochs;  ///< degraded or aborted epochs fail
  std::vector<double> setup_s;
  Routing routing;
  IntakeResult intake;
  /// One entry per timed epoch, in order (replay cross-checks them).
  std::vector<EpochFacts> facts;
  /// Lives run: fresh daemons, each cleared for epochs_per_life epochs.
  int lives = 0;
  /// Mean drained refresh/override bids per timed epoch.
  double bids_per_epoch = 0.0;
  /// fsync calls made inside the timed run_epoch() calls.
  std::uint64_t fsyncs = 0;
};

IntakeConfig intake_config(const Workload& w, const std::string& endpoint,
                           std::uint64_t seed) {
  IntakeConfig c;
  c.endpoint = endpoint;
  c.rate = w.intake_rate;
  if (w.epoch_period_s > 0.0) {
    c.burst_period_s = w.epoch_period_s;
    c.burst_duty = w.intake_duty;
  }
  c.connections = 2;
  c.players = w.nodes;
  c.nodes = w.nodes;
  c.overrides = w.overrides;
  c.seed = seed;
  return c;
}

std::uint64_t timed_epoch(Report& report, svc::Daemon& daemon,
                          TimedResult& r) {
  const std::uint64_t fsyncs = fsync_calls.load();
  const Clock::time_point t = Clock::now();
  const svc::EpochReport rep = daemon.service().run_epoch();
  const double s = since(t);
  r.fsyncs += fsync_calls.load() - fsyncs;
  r.clear_ms.push_back(s * 1e3);
  r.run_epoch_s += s;
  const bool ok = !rep.aborted && rep.degradation_level == 0;
  r.epochs.record(ok);
  report.check(ok, "epoch-cleared",
               "epoch " + std::to_string(rep.epoch) + " degraded or aborted");
  r.facts.push_back({rep.game_edges, rep.cycles_executed, rep.network_digest});
  r.bids_per_epoch += static_cast<double>(rep.bids_applied);
  return rep.network_digest;
}

/// Clears `epochs` untimed epochs and returns the last one's settled
/// digest (0 for no epochs).
std::uint64_t clear_untimed(svc::Daemon& daemon, int epochs) {
  std::uint64_t digest = 0;
  for (int e = 0; e < epochs; ++e) {
    digest = daemon.service().run_epoch().network_digest;
  }
  return digest;
}

/// Waits until the service has taken `count` bids off the wire, so that
/// the next drain holds exactly the bids due so far.
void wait_queued(Report& report, svc::Daemon& daemon, std::uint64_t count) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
  std::uint64_t queued = 0;
  while ((queued = daemon.service().intake_counters().total()) < count &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  report.check(queued == count, "intake-queued",
               std::to_string(count) + " bids were due before the epoch, " +
                   "the service had taken " + std::to_string(queued));
}

/// Lets the bids of epoch period p out only after epoch p - 1 has drained
/// the queue, so that each paced epoch drains exactly the bids due in its
/// period, however late an epoch runs. The drain shows as an empty queue
/// once every bid already let out has been counted: every period has bids
/// (100 at 1000 bids/s), so the queue is not empty before that drain.
class DrainGate {
 public:
  DrainGate(svc::RebalanceService& service, const OpenLoopSchedule& schedule,
            double period_s)
      : service_(service),
        schedule_(schedule),
        period_s_(period_s),
        open_until_(schedule.due_before(period_s)) {}

  bool may_send(std::uint64_t k) {
    const std::lock_guard lock(mutex_);
    if (k < open_until_) return true;
    if (service_.intake_counters().total() < open_until_ ||
        service_.stats_snapshot().queue_depth != 0) {
      return false;
    }
    ++open_periods_;
    open_until_ =
        schedule_.due_before(period_s_ * (open_periods_ + 1), open_until_);
    return k < open_until_;
  }

 private:
  svc::RebalanceService& service_;
  const OpenLoopSchedule schedule_;
  const double period_s_;
  std::mutex mutex_;
  std::uint64_t open_periods_ = 0;  ///< periods let out beyond the first
  std::uint64_t open_until_;        ///< bids below this index may go out
};

void check_ledger(Report& report, const IntakeResult& in,
                  const svc::IntakeCounters& srv) {
  const bool same = in.ledger.accepted == srv.accepted &&
                    in.ledger.replaced == srv.replaced &&
                    in.ledger.rejected_full == srv.rejected_full &&
                    in.ledger.rejected_invalid == srv.rejected_invalid &&
                    in.ledger.rejected_closed == srv.rejected_closed &&
                    in.ledger.duplicate == srv.duplicate &&
                    in.ledger.rejected_overload == srv.rejected_overload;
  report.check(same, "intake-ledger",
               "client saw " + std::to_string(in.ledger.total()) +
                   " acks, service counted " + std::to_string(srv.total()));
}

void check_intake(Report& report, const IntakeResult& in) {
  report.check(in.transport_errors == 0, "intake-transport",
               std::to_string(in.transport_errors) + " errors, first: " +
                   in.error);
  report.check(!in.backlog_grew, "intake-backlog",
               "an open-loop stream's backlog grew over its run");
}

/// Set-ups of the reference network whose settled digests must agree.
constexpr int kRepeatSetups = 3;

/// The run is a sequence of lives, each a fresh daemon cleared for
/// epochs_per_life timed epochs, until the budget is spent and the
/// minimum sample counts are met. Fresh lives average the run over many
/// independent networks (cold-m2) or bid streams (wire-m3).
TimedResult run_timed(Report& report, const Workload& w, std::uint64_t seed,
                      double budget_s, const std::string& dir) {
  TimedResult r;
  // Reference network 0, set up and cleared kRepeatSetups times: its
  // warm-up (or, on a cold workload, one life's epochs) must settle to the
  // same digest every time.
  const int check_epochs = w.warmup_epochs > 0 ? 0 : w.epochs_per_life;
  std::uint64_t warm_digest = 0;
  for (int rep = 0; rep < kRepeatSetups; ++rep) {
    fresh_dir(dir + "/warm");
    std::unique_ptr<svc::Daemon> daemon = make_daemon(
        make_genesis(w, seed, 0, true).network, w, dir + "/warm/journal");
    daemon->start(/*periodic_epochs=*/false);
    const std::uint64_t digest =
        clear_untimed(*daemon, w.warmup_epochs + check_epochs);
    if (rep == 0) warm_digest = digest;
    report.check(digest == warm_digest, "repeatable-digest",
                 "set-up " + std::to_string(rep) + " settled to " +
                     hex(digest) + ", set-up 0 to " + hex(warm_digest));
  }

  const double period = w.epoch_period_s;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; since(t0) < budget_s || r.clear_ms.size() < kMinEpochs ||
                  r.intake.ack_ms.size() < kMinAcks;
       ++i) {
    // Each life's set-up is timed (setup_s is their median): network
    // generation, the daemon with its journal open and recovered, and the
    // warm-up epochs. Samples spread over the whole run follow the host
    // better than a burst of set-ups at its start.
    const std::string journal = dir + "/life/journal";
    fresh_dir(dir + "/life");
    const Clock::time_point ts = Clock::now();
    Genesis g = make_genesis(w, seed, i, false);
    util::Rng payments = g.payments;
    std::unique_ptr<svc::Daemon> daemon =
        make_daemon(std::move(g.network), w, journal);
    daemon->start(/*periodic_epochs=*/false);
    std::uint64_t digest = clear_untimed(*daemon, w.warmup_epochs);
    r.setup_s.push_back(since(ts));
    if (i == 0 && !w.seeded_topology) {
      // Life 0 clears reference network 0: its warm-up must repeat too.
      report.check(digest == warm_digest, "repeatable-digest",
                   "life 0 warmed up to " + hex(digest) + " after " +
                       hex(warm_digest));
    }
    const IntakeConfig ic =
        intake_config(w, daemon->endpoint(), seed + static_cast<unsigned>(i));
    const OpenLoopSchedule schedule = schedule_of(ic);
    // A paced epoch waits until the bids due in its period are queued, and
    // the gate holds later bids until its drain: each epoch then drains
    // exactly the bids due in its period, as the traced replay assumes.
    // The gate outlives the intake threads that call it.
    DrainGate gate(daemon->service(), schedule, period);
    OpenLoopIntake intake(ic);
    if (period > 0.0) {
      intake.set_gate([&gate](std::uint64_t k) { return gate.may_send(k); });
    }
    std::uint64_t bids_due = 0;
    const Clock::time_point start = Clock::now();
    intake.start(start);
    Clock::time_point due = start;
    for (int e = 0; e < w.epochs_per_life; ++e) {
      if (period > 0.0) {
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(period * (e + 1)));
        std::this_thread::sleep_until(due);
        bids_due = schedule.due_before(period * (e + 1), bids_due);
        wait_queued(report, *daemon, bids_due);
      }
      digest = timed_epoch(report, *daemon, r);
    }
    const IntakeResult in = intake.finish(period > 0.0 ? due : Clock::now(),
                                          std::chrono::milliseconds(2000));
    check_intake(report, in);
    check_ledger(report, in, daemon->service().intake_counters());
    r.intake.merge(in);

    pcn::Network settled = daemon->network_snapshot();
    report.check(settled.state_digest() == digest, "final-digest",
                 "live network " + hex(settled.state_digest()) +
                     " vs last epoch report " + hex(digest));
    if (w.snapshot_every > 0) {
      // No payments touched this network, so the journal and snapshots
      // alone must rebuild it: restart a daemon on them from genesis.
      daemon.reset();
      const std::unique_ptr<svc::Daemon> restarted =
          make_daemon(make_genesis(w, seed, i, false).network, w, journal);
      const std::uint64_t recovered = restarted->recovery().final_digest;
      report.check(recovered == digest &&
                       restarted->network_snapshot().state_digest() == digest,
                   "journal-recovery",
                   "restart recovered " + hex(recovered) +
                       ", daemon settled " + hex(digest));
    }
    route_payments(w, settled, payments, w.probe_payments, r.routing);
    ++r.lives;
  }
  r.bids_per_epoch /=
      static_cast<double>(std::max<std::size_t>(1, r.facts.size()));
  return r;
}

// ---------------------------------------------------------------------------
// Traced replay

/// Benchmark-side spans, kept in memory and written at the end in the
/// Chrome trace_event shape obs::trace emits.
class Tracer {
 public:
  struct Event {
    const char* name;
    double start_us;
    double dur_us;
    std::uint64_t epoch;
  };

  Tracer() : t0_(Clock::now()) {}

  /// Runs `f` inside a span; returns its duration in seconds.
  template <typename F>
  double span(const char* name, std::uint64_t epoch, F&& f) {
    const Clock::time_point t = Clock::now();
    f();
    const Clock::time_point end = Clock::now();
    const double s = std::chrono::duration<double>(end - t).count();
    events_.push_back(
        {name, std::chrono::duration<double, std::micro>(t - t0_).count(),
         s * 1e6, epoch});
    return s;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                    "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": "
                    "1, \"args\": {\"epoch\": %" PRIu64 "}}",
                    i == 0 ? "" : ",", e.name, e.start_us, e.dur_us, e.epoch);
      out << line;
    }
    out << "\n]}\n";
  }

 private:
  Clock::time_point t0_;
  std::vector<Event> events_;
};

/// Per-layer samples of the traced replay.
struct LayerSamples {
  std::vector<double> mechanism_ms, solve_ms, decompose_ms, extract_ms,
      settle_ms, journal_ms, drain_ms, submit_us, codec_us, route_us,
      checkpoint_ms, epoch_s;
  double attributed_s = 0.0;  ///< sum of the epoch spans' children
  double solves = 0, builds = 0, rebinds = 0, fallbacks = 0, cycles = 0,
         components = 0, largest = 0, game_edges = 0, cycles_executed = 0;
  std::size_t epochs = 0;
};

/// One service epoch re-enacted through the layers' public entry points,
/// in RebalanceService::run_epoch's order, each call inside a span.
class LayerPipeline {
 public:
  LayerPipeline(pcn::Network genesis, const Workload& w, const std::string& dir)
      : w_(w),
        network_(std::move(genesis)),
        mechanism_(core::make_mechanism(w.mechanism, {})),
        queue_(1024, network_.num_nodes()),
        executor_(kSolveThreads),
        path_(prepare(dir) + "/journal"),
        journal_(path_),
        snapshots_(path_, 2) {
    mech_ctx_.set_executor(&executor_);
    solo_ctx_.set_executor(&executor_);
  }

  pcn::Network& network() { return network_; }

  /// Intake of one bid: wire encode -> frame parse -> decode, then the
  /// queue. Outside the epoch span, as intake is in the service.
  void submit(Tracer& tr, LayerSamples* s, const svc::BidSubmission& bid) {
    svc::BidSubmission decoded;
    const double codec = tr.span("svc.wire_codec", 0, [&] {
      std::string bytes;
      svc::append_frame(bytes, svc::MsgType::kSubmitBid,
                        svc::encode_submit_bid(bid));
      svc::FrameParser parser;
      parser.feed(bytes.data(), bytes.size());
      decoded = svc::decode_submit_bid(parser.next()->payload);
    });
    svc::IntakeStatus status = svc::IntakeStatus::kRejectedInvalid;
    const double submit =
        tr.span("svc.submit", 0, [&] { status = queue_.submit(decoded); });
    checks_.push_back(svc::intake_ok(status));
    if (s != nullptr) {
      s->codec_us.push_back(codec * 1e6);
      s->submit_us.push_back(submit * 1e6);
    }
  }

  /// One epoch; `s` null replays it without recording (set-up epochs).
  EpochFacts epoch(Report& report, Tracer& tr, LayerSamples* s) {
    const std::uint64_t id = static_cast<std::uint64_t>(epoch_) + 1;
    const flow::ContextStats before = mech_ctx_.stats();
    EpochFacts facts;
    double children = 0.0;
    std::vector<svc::BidSubmission> subs;
    std::optional<pcn::ExtractedGame> ex;
    core::BidVector bids;
    core::Outcome outcome;
    bool cleared = false;
    const double wall = tr.span("svc.epoch", id, [&] {
      const double drain = tr.span("svc.drain", id, [&] { subs = queue_.drain(); });
      svc::SeqWatermarks marks;
      for (const svc::BidSubmission& b : subs) {
        if (b.seq != 0) marks.emplace_back(b.player, b.seq);
      }
      std::uint64_t pre = 0;
      const double digest1 =
          tr.span("pcn.digest", id, [&] { pre = network_.state_digest(); });
      const double extract = tr.span("pcn.extract", id, [&] {
        ex.emplace(pcn::extract_and_lock(network_, policy_));
      });
      std::vector<double> appends;
      appends.push_back(tr.span("svc.journal_append", id, [&] {
        journal_.append_begin(epoch_, pre, marks);
      }));
      const pcn::ExtractedGame& extracted = *ex;
      double mech = 0.0, settle = 0.0;
      facts.game_edges = extracted.game.num_edges();
      if (extracted.game.num_edges() > 0) {
        bids = extracted.game.truthful_bids();
        apply_overrides(extracted.game, subs, bids);
        mech = tr.span("core.mechanism", id, [&] {
          outcome = mechanism_->run(mech_ctx_, extracted.game, bids);
        });
        appends.push_back(tr.span("svc.journal_append", id, [&] {
          journal_.append_outcome(epoch_, pre, outcome);
        }));
        pcn::RebalanceStats st;
        settle = tr.span("pcn.settle", id, [&] {
          st = pcn::apply_outcome(network_, extracted, outcome);
        });
        facts.cycles = st.cycles_executed;
        cleared = true;
      }
      std::uint64_t post = 0;
      const double digest2 = tr.span("pcn.digest", id, [&] {
        post = network_.state_digest();
        const std::vector<double> imbalances = network_.imbalances();
        gini_ = util::gini(imbalances) + util::mean(imbalances);
      });
      facts.digest = post;
      appends.push_back(tr.span("svc.journal_append", id, [&] {
        journal_.append_settled(epoch_, post);
      }));
      for (const auto& [player, seq] : marks) {
        std::uint32_t& have = watermarks_[player];
        have = std::max(have, seq);
      }
      double ckpt = 0.0;
      if (w_.snapshot_every > 0 && (epoch_ + 1) % w_.snapshot_every == 0) {
        ckpt = checkpoint(tr, id);
      }
      double journal = 0.0;
      for (const double a : appends) journal += a;
      children = drain + digest1 + extract + journal + mech + settle +
                 digest2 + ckpt;
      if (s != nullptr) {
        s->drain_ms.push_back(drain * 1e3);
        s->extract_ms.push_back(extract * 1e3);
        for (const double a : appends) s->journal_ms.push_back(a * 1e3);
        if (cleared) {
          s->mechanism_ms.push_back(mech * 1e3);
          s->settle_ms.push_back(settle * 1e3);
        }
        if (ckpt > 0.0) s->checkpoint_ms.push_back(ckpt * 1e3);
      }
    });
    ++epoch_;
    for (const bool ok : checks_) {
      report.check(ok, "replay-intake", "a replayed bid was not queued");
    }
    checks_.clear();
    if (s == nullptr) return facts;

    const flow::ContextStats& after = mech_ctx_.stats();
    s->epoch_s.push_back(wall);
    s->attributed_s += children;
    ++s->epochs;
    s->solves += static_cast<double>(after.solves - before.solves);
    s->builds +=
        static_cast<double>(after.structure_builds - before.structure_builds);
    s->rebinds += static_cast<double>(after.rebinds - before.rebinds);
    s->fallbacks += static_cast<double>(after.fallbacks - before.fallbacks);
    s->game_edges += facts.game_edges;
    s->cycles_executed += facts.cycles;
    if (!cleared) return facts;

    // Outside the epoch span: the audits, and one stand-alone unmasked
    // solve + decompose of the same game on a second context.
    const pcn::ExtractedGame& extracted = *ex;
    check::AuditOptions options;
    options.check_individual_rationality =
        mechanism_->claims_individual_rationality();
    const check::AuditReport audit = check::InvariantAuditor(options).audit_outcome(
        extracted.game, mechanism_->audited_bids(bids), outcome,
        mechanism_->name());
    report.check(audit.ok(), "invariant-audit", audit.to_string());
    flow::SolveStats stats;
    flow::Circulation f;
    s->solve_ms.push_back(tr.span("flow.solve", id, [&] {
      extracted.game.bind_graph(solo_ctx_, bids);
      f = solo_ctx_.solve(flow::SolverKind::kBellmanFord, &stats);
    }) * 1e3);
    s->decompose_ms.push_back(
        tr.span("flow.decompose", id, [&] { solo_ctx_.decompose(f); }) * 1e3);
    report.check(flow::is_optimal(solo_ctx_.graph(), f), "solve-optimal",
                 "stand-alone solve of epoch " + std::to_string(id) +
                     " is not optimal");
    s->cycles += stats.cycles_cancelled;
    s->components += solo_ctx_.last_component_count();
    s->largest += static_cast<double>(solo_ctx_.last_largest_component());
    s->fallbacks += stats.fallbacks;
    return facts;
  }

  /// The service's checkpoint: roll, snapshot, compact.
  double checkpoint(Tracer& tr, std::uint64_t id) {
    return tr.span("svc.checkpoint", id, [&] {
      journal_.roll_segment();
      svc::SnapshotData data;
      data.next_epoch = epoch_ + 1;
      data.first_segment = journal_.current_segment();
      data.watermarks.assign(watermarks_.begin(), watermarks_.end());
      std::sort(data.watermarks.begin(), data.watermarks.end());
      data.digest = network_.state_digest();
      data.network_bytes = svc::encode_network(network_);
      snapshots_.write(data);
      journal_.compact_below(snapshots_.oldest_retained_first_segment());
    });
  }

 private:
  static std::string prepare(const std::string& dir) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  static void apply_overrides(const core::Game& game,
                              const std::vector<svc::BidSubmission>& subs,
                              core::BidVector& bids) {
    std::unordered_map<core::PlayerId, const svc::BidSubmission*> by_player;
    for (const svc::BidSubmission& b : subs) by_player.emplace(b.player, &b);
    for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
      const core::GameEdge& edge = game.edge(e);
      if (const auto it = by_player.find(edge.from);
          it != by_player.end() && it->second->has_tail) {
        bids.tail[static_cast<std::size_t>(e)] = it->second->tail_bid;
      }
      if (const auto it = by_player.find(edge.to);
          it != by_player.end() && it->second->has_head) {
        bids.head[static_cast<std::size_t>(e)] = it->second->head_bid;
      }
    }
  }

  const Workload w_;
  const pcn::RebalancePolicy policy_{};
  pcn::Network network_;
  std::unique_ptr<core::Mechanism> mechanism_;
  svc::BidQueue queue_;
  svc::ParallelExecutor executor_;
  flow::SolveContext mech_ctx_;
  flow::SolveContext solo_ctx_;
  const std::string path_;
  svc::Journal journal_;
  svc::SnapshotStore snapshots_;
  std::map<core::PlayerId, std::uint32_t> watermarks_;
  std::vector<bool> checks_;
  int epoch_ = 0;
  double gini_ = 0.0;  ///< keeps the telemetry computation observable
};


/// Submits `count` bids of the run's intake stream to the pipeline.
class ReplayBids {
 public:
  ReplayBids(const Workload& w, std::uint64_t seed) {
    IntakeConfig c = intake_config(w, "", seed);
    for (int conn = 0; conn < c.connections; ++conn) {
      sources_.emplace_back(c, conn);
    }
  }
  void submit(LayerPipeline& p, Tracer& tr, LayerSamples* s,
              std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++k_) {
      p.submit(tr, s, sources_[k_ % sources_.size()].next(k_ + 1));
    }
  }
  std::uint64_t sent() const { return k_; }

 private:
  std::vector<BidSource> sources_;
  std::uint64_t k_ = 0;
};

void check_replay(Report& report, const EpochFacts& got,
                  const EpochFacts& want, std::size_t epoch) {
  report.check(got.game_edges == want.game_edges &&
                   got.cycles == want.cycles && got.digest == want.digest,
               "replay-digest",
               "timed epoch " + std::to_string(epoch) + " settled " +
                   std::to_string(want.game_edges) + " edges / " +
                   std::to_string(want.cycles) + " cycles to " +
                   hex(want.digest) + ", replay " +
                   std::to_string(got.game_edges) + " / " +
                   std::to_string(got.cycles) + " to " + hex(got.digest));
}

LayerSamples replay(Report& report, Tracer& tr, const Workload& w,
                    std::uint64_t seed, const TimedResult& timed,
                    const std::string& dir) {
  LayerSamples s;
  const std::size_t bids = std::max<std::size_t>(
      1, static_cast<std::size_t>(timed.bids_per_epoch + 0.5));
  const OpenLoopSchedule schedule = schedule_of(intake_config(w, "", seed));
  Routing routing;
  routing.route_us = &s.route_us;
  std::size_t timed_epoch = 0;
  for (int i = 0; i < timed.lives; ++i) {
    Genesis g = make_genesis(w, seed, i, false);
    LayerPipeline p(std::move(g.network), w, dir + "/replay");
    for (int k = 0; k < w.warmup_epochs; ++k) p.epoch(report, tr, nullptr);
    ReplayBids source(w, seed + static_cast<unsigned>(i));
    const Clock::time_point start = Clock::now();
    for (int e = 0; e < w.epochs_per_life; ++e, ++timed_epoch) {
      if (w.epoch_period_s > 0.0) {
        // Keep the timed run's cadence: back-to-back fsyncs queue behind
        // each other and would be charged to the spans.
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(w.epoch_period_s *
                                                      (e + 1))));
      }
      if (w.epoch_period_s > 0.0) {
        // A paced epoch drains exactly the bids due in its period (the
        // timed run holds and waits for them to make sure of that).
        const std::uint64_t due = schedule.due_before(
            w.epoch_period_s * (e + 1), source.sent());
        source.submit(p, tr, &s, due - source.sent());
      } else {
        // Refreshes leave the outcome unchanged, so their count per epoch
        // only has to match the timed run's on average.
        source.submit(p, tr, &s, bids);
      }
      check_replay(report, p.epoch(report, tr, &s), timed.facts[timed_epoch],
                   timed_epoch);
    }
    if (w.snapshot_every == 0) {
      s.checkpoint_ms.push_back(p.checkpoint(tr, 0) * 1e3);
    }
    route_payments(w, p.network(), g.payments, w.probe_payments, routing);
  }
  return s;
}

// ---------------------------------------------------------------------------
// main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "cold-m2|wire-m3 --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--work-dir") {
        a.work_dir = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 60.0) usage("--seconds must be in (0, 60]");
  return a;
}

/// Peak resident memory of this process image. VmHWM, not getrusage:
/// ru_maxrss survives execve, so it would report the launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void report_timed(Report& report, const TimedResult& t) {
  const std::size_t n = t.clear_ms.size();
  report.check(samples_beyond(n, 0.9) >= kMinBeyond, "ten-beyond",
               "clear_ms_p90 over " + std::to_string(n) + " epochs");
  report.check(samples_beyond(t.intake.ack_ms.size(), 0.99) >= kMinBeyond,
               "ten-beyond",
               "ack_ms_p99 over " + std::to_string(t.intake.ack_ms.size()) +
                   " acks");
  report.check(t.routing.routed > 0 && t.routing.seconds > 0.0,
               "payments-routed",
               "no payment was routed");
  const Kind e2e = Kind::kEndToEnd;
  report.set("clear_ms_p50", quantile(t.clear_ms, 0.5), "ms", e2e);
  report.set("clear_ms_p90", quantile(t.clear_ms, 0.9), "ms", e2e);
  report.set("epochs_per_s", static_cast<double>(n) / t.run_epoch_s, "1/s",
             e2e);
  report.set("payments_per_s",
             static_cast<double>(t.routing.routed) / t.routing.seconds, "1/s",
             e2e);
  report.set("ack_ms_p50", quantile(t.intake.ack_ms, 0.5), "ms", e2e);
  report.set("ack_ms_p99", quantile(t.intake.ack_ms, 0.99), "ms", e2e);
  report.set("setup_s", quantile(t.setup_s, 0.5), "s", e2e);
  const double rss = peak_rss_mb();
  report.check(rss > 0.0, "peak-rss", "VmHWM missing from /proc/self/status");
  report.set("peak_rss_mb", rss, "MB", e2e);

  const Kind info = Kind::kInfo;
  report.set("timed_epochs", static_cast<double>(n), "count", info);
  report.set("lives", static_cast<double>(t.lives), "count", info);
  report.set("acks", static_cast<double>(t.intake.ack_ms.size()), "count",
             info);
  report.set("payments_routed", static_cast<double>(t.routing.routed),
             "count", info);
  report.set("payment_success_frac",
             static_cast<double>(t.routing.succeeded) /
                 static_cast<double>(t.routing.routed),
             "ratio", info);
  report.set("bids_per_epoch", t.bids_per_epoch, "count", info);
  report.set("epoch_fail_frac", t.epochs.fail_frac(), "ratio", info);
  report.set("intake_fail_frac", t.intake.tally.fail_frac(), "ratio", info);
  Tally all = t.epochs;
  all.attempted += t.intake.tally.attempted;
  all.failed += t.intake.tally.failed;
  report.set("fail_frac", all.fail_frac(), "ratio", info);
}

void report_layers(Report& report, const TimedResult& t, const LayerSamples& s) {
  const Kind layer = Kind::kLayer;
  const double epochs = static_cast<double>(std::max<std::size_t>(1, s.epochs));
  double wall = 0.0;
  for (const double e : s.epoch_s) wall += e;
  report.set("core.mechanism_ms_p50", quantile(s.mechanism_ms, 0.5), "ms", layer);
  report.set("core.mechanism_ms_p90", quantile(s.mechanism_ms, 0.9), "ms", layer);
  report.set("core.solves_per_epoch", s.solves / epochs, "count", layer);
  report.set("flow.solve_ms_p50", quantile(s.solve_ms, 0.5), "ms", layer);
  report.set("flow.decompose_ms_p50", quantile(s.decompose_ms, 0.5), "ms", layer);
  report.set("flow.cycles_cancelled_per_epoch", s.cycles / epochs, "count", layer);
  report.set("flow.structure_builds_per_epoch", s.builds / epochs, "count", layer);
  report.set("flow.rebinds_per_epoch", s.rebinds / epochs, "count", layer);
  report.set("flow.components", s.components / epochs, "count", layer);
  report.set("flow.largest_component_edges", s.largest / epochs, "count", layer);
  report.set("flow.fallbacks", s.fallbacks, "count", layer);
  report.set("pcn.extract_ms_p50", quantile(s.extract_ms, 0.5), "ms", layer);
  report.set("pcn.settle_ms_p50", quantile(s.settle_ms, 0.5), "ms", layer);
  report.set("pcn.game_edges", s.game_edges / epochs, "count", layer);
  report.set("pcn.cycles_executed", s.cycles_executed / epochs, "count", layer);
  report.set("pcn.route_us_p50", quantile(s.route_us, 0.5), "us", layer);
  report.set("svc.journal_append_ms_p50", quantile(s.journal_ms, 0.5), "ms", layer);
  report.set("svc.fsyncs_per_epoch",
             static_cast<double>(t.fsyncs) /
                 static_cast<double>(std::max<std::size_t>(1, t.clear_ms.size())),
             "count", layer);
  report.set("svc.checkpoint_ms", quantile(s.checkpoint_ms, 0.5), "ms", layer);
  report.set("svc.drain_ms_p50", quantile(s.drain_ms, 0.5), "ms", layer);
  report.set("svc.submit_us_p50", quantile(s.submit_us, 0.5), "us", layer);
  report.set("svc.wire_codec_us_p50", quantile(s.codec_us, 0.5), "us", layer);
  std::size_t stalled = 0;
  for (const double a : t.intake.ack_ms) stalled += a > 10.0;
  report.set("svc.ack_stall_frac",
             static_cast<double>(stalled) /
                 static_cast<double>(std::max<std::size_t>(1, t.intake.ack_ms.size())),
             "ratio", layer);
  report.set("loadgen.late_ms_p99", quantile(t.intake.late_ms, 0.99), "ms", layer);
  report.set("unattributed_frac", 1.0 - s.attributed_s / wall, "ratio", layer);
  report.set("trace_overhead_frac", wall / t.run_epoch_s - 1.0, "ratio", layer);

  // Where the traced epoch time went, as shares of the epoch wall.
  const Kind info = Kind::kInfo;
  const auto share = [&](const std::vector<double>& ms) {
    double sum = 0.0;
    for (const double v : ms) sum += v;
    return sum / 1e3 / wall;
  };
  report.set("share.core.mechanism", share(s.mechanism_ms), "ratio", info);
  report.set("share.pcn.extract", share(s.extract_ms), "ratio", info);
  report.set("share.pcn.settle", share(s.settle_ms), "ratio", info);
  report.set("share.svc.journal_append", share(s.journal_ms), "ratio", info);
  report.set("share.svc.drain", share(s.drain_ms), "ratio", info);
  report.set("traced_epochs", static_cast<double>(s.epochs), "count", info);
  report.set("traced_epoch_ms_p50", quantile(s.epoch_s, 0.5) * 1e3, "ms", info);
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::optional<Workload> w = find_workload(args.workload);
  if (!w) usage("unknown workload " + args.workload);
  const std::string dir =
      args.work_dir + "/run-" + std::to_string(::getpid());
  fs::create_directories(dir);

  Report report;
  try {
    report.phase("timed");
    // A traced run splits its time: a timed phase, then the replay.
    const double budget = args.trace ? 0.4 * args.seconds : args.seconds;
    const TimedResult timed = run_timed(report, *w, args.seed, budget, dir);
    report_timed(report, timed);
    if (args.trace) {
      report.phase("replay");
      Tracer tr;
      const LayerSamples s = replay(report, tr, *w, args.seed, timed, dir);
      report_layers(report, timed, s);
      tr.write(args.work_dir + "/trace-" + w->name + ".json");
    }
    fs::remove_all(dir);
    Tally all = timed.epochs;
    all.attempted += timed.intake.tally.attempted;
    all.failed += timed.intake.tally.failed;
    report.print(args.trace, all.attempted, all.failed);
  } catch (const std::exception& e) {
    std::error_code ignored;
    fs::remove_all(dir, ignored);
    report.check(false, "exception", e.what());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
