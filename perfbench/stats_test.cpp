// Tests of the benchmark's own statistics (stats.hpp). run.py builds and
// runs this before every measurement; it exits nonzero on the first
// failed expectation.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_quantile() {
  EXPECT(near(perfbench::quantile({}, 0.5), 0.0));
  EXPECT(near(perfbench::quantile({7.0}, 0.99), 7.0));
  // Nearest rank: the median of 1..100 is the 50th value, p90 the 90th.
  EXPECT(near(perfbench::quantile(one_to(100), 0.5), 50.0));
  EXPECT(near(perfbench::quantile(one_to(100), 0.9), 90.0));
  EXPECT(near(perfbench::quantile(one_to(1000), 0.99), 990.0));
  EXPECT(near(perfbench::quantile(one_to(101), 0.5), 51.0));
  // The reported value is always a measured sample.
  EXPECT(near(perfbench::quantile({1.0, 2.0}, 0.5), 1.0));
}

void test_ten_beyond() {
  EXPECT(perfbench::samples_beyond(100, 0.9) == 10);
  EXPECT(perfbench::samples_beyond(99, 0.9) == 9);
  EXPECT(perfbench::samples_beyond(1000, 0.99) == 10);
  EXPECT(perfbench::samples_beyond(999, 0.99) == 9);
  EXPECT(perfbench::samples_beyond(0, 0.9) == 0);
  EXPECT(perfbench::min_samples_for(0.9) == 100);
  EXPECT(perfbench::min_samples_for(0.99) == 1000);
  EXPECT(perfbench::min_samples_for(0.5) == 20);
}

void test_tally() {
  perfbench::Tally t;
  EXPECT(near(t.fail_frac(), 0.0));
  t.record(true);
  t.record(true);
  t.record(false);
  t.record(true);
  EXPECT(t.attempted == 4 && t.failed == 1);
  EXPECT(near(t.fail_frac(), 0.25));
  // Requests lost in transport count against the attempted total.
  t.record_lost(4);
  EXPECT(t.attempted == 8 && t.failed == 5);
  EXPECT(near(t.fail_frac(), 5.0 / 8.0));
}

void test_open_loop() {
  const perfbench::OpenLoopSchedule s{1000.0};
  EXPECT(near(s.due_s(0), 0.0));
  EXPECT(near(s.due_s(250), 0.25));
  // A sender that stalls 40 ms at request 10 sends requests 10..49 late;
  // their latency counts the stall from each request's own due time,
  // not from the moment it was finally sent.
  const double stall_end = s.due_s(10) + 0.040;
  for (std::uint64_t k = 10; k < 50; ++k) {
    const double sent = std::max(stall_end, s.due_s(k));
    const double answered = sent + 0.0001;
    EXPECT(s.lateness_s(k, sent) >= 0.0);
    EXPECT(near(s.latency_s(k, answered), answered - s.due_s(k)));
  }
  EXPECT(near(s.lateness_s(10, stall_end), 0.040));
  EXPECT(near(s.lateness_s(49, stall_end), 0.001));
  EXPECT(near(s.lateness_s(60, s.due_s(60)), 0.0));
  // Jitter that reads a send as early is clamped to on time.
  EXPECT(near(s.lateness_s(5, s.due_s(5) - 1e-6), 0.0));

  // Bursts: 100 requests per 100 ms period, sent within its first half.
  const perfbench::OpenLoopSchedule b{1000.0, 0.1, 0.5};
  EXPECT(near(b.due_s(0), 0.0));
  EXPECT(near(b.due_s(1), 0.0005));
  EXPECT(near(b.due_s(99), 0.0495));
  EXPECT(near(b.due_s(100), 0.1));
  EXPECT(near(b.due_s(250), 0.225));
  // Counting due requests: period 0's 100 fall due before 0.1 s, and
  // no more until period 1's burst starts.
  EXPECT(b.due_before(0.0) == 0);
  EXPECT(b.due_before(0.05) == 100);
  EXPECT(b.due_before(0.0999) == 100);
  EXPECT(b.due_before(0.1001) == 101);
  EXPECT(b.due_before(0.2, 100) == 200);
  EXPECT(s.due_before(0.25) == 250);
  // A full duty cycle is the plain schedule.
  const perfbench::OpenLoopSchedule even{1000.0, 0.1, 1.0};
  EXPECT(near(even.due_s(250), s.due_s(250)));
}

void test_backlog() {
  EXPECT(!perfbench::backlog_grows({}, perfbench::kBacklogSlack));
  std::vector<double> flat(400, 3.0);
  EXPECT(!perfbench::backlog_grows(flat, 4.0));
  std::vector<double> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(i / 4.0);
  EXPECT(perfbench::backlog_grows(growing, 4.0));
  // A burst in the middle that drains again is not growth.
  std::vector<double> burst(400, 2.0);
  for (int i = 150; i < 250; ++i) burst[static_cast<std::size_t>(i)] = 80.0;
  EXPECT(!perfbench::backlog_grows(burst, 4.0));
}

void test_player_range() {
  EXPECT(perfbench::check_player_range(200, 200).empty());
  EXPECT(perfbench::check_player_range(1, 200).empty());
  EXPECT(!perfbench::check_player_range(201, 200).empty());
  EXPECT(!perfbench::check_player_range(0, 200).empty());
  EXPECT(!perfbench::check_player_range(10, 0).empty());
}

}  // namespace

int main() {
  test_quantile();
  test_ten_beyond();
  test_tally();
  test_open_loop();
  test_backlog();
  test_player_range();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d failure(s)\n", failures);
    return 1;
  }
  std::puts("stats_test: ok");
  return 0;
}
