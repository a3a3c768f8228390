// Tests of the benchmark's own helpers: the percentile rule, the Poisson
// schedule, result digests, and the day/night slate generator. Exits 1 on
// the first failed check; perfbench/run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

void test_percentile_rule() {
  // 1000 samples: p99 is the 990th value, with exactly ten beyond it.
  std::vector<double> v = ramp(1000);
  perfbench::Percentile p = perfbench::percentile(v, 0.99);
  check(p.value == 990.0 && p.beyond == 10 && p.samples == 1000,
        "p99 of 1..1000 is 990 with ten samples beyond");
  // 500 samples: a p99 would have five beyond; the rule caps the rank at
  // the highest one that keeps ten beyond (the 490th value).
  v = ramp(500);
  p = perfbench::percentile(v, 0.99);
  check(p.value == 490.0 && p.beyond == 10 && p.rank < 0.99,
        "p99 of 500 samples is capped to keep ten samples beyond");
  for (std::size_t n : {11, 37, 999, 1001, 5000}) {
    v = ramp(n);
    p = perfbench::percentile(v, 0.99);
    check(p.beyond >= 10, "at least ten samples beyond for n=" + std::to_string(n));
  }
  v = ramp(101);
  check(perfbench::percentile(v, 0.5).value == 51.0, "median of 1..101 is 51");
  v = ramp(5);
  p = perfbench::percentile(v, 0.99);
  check(p.value == 3.0 && p.rank == 0.6,
        "fewer than 11 samples report the median");
}

void test_tail_windows() {
  // Five windows of 1000 samples 1..1000; a stall in one window (its top
  // 100 samples a thousand times slower) moves that window's p99 only, so
  // the reported tail stays 990 with ten samples beyond in each window.
  std::vector<double> series;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      series.push_back(w == 2 && i > 900 ? 1e6 : static_cast<double>(i));
    }
  }
  perfbench::Percentile p = perfbench::tail_percentile(series, 0.99);
  check(p.value == 990.0 && p.windows == 5 && p.beyond == 10 &&
            p.samples == 5000,
        "windowed p99 is the median of the windows' p99s");
  // Below three windows the plain rule applies to all samples.
  series.resize(2500);
  p = perfbench::tail_percentile(series, 0.99);
  check(p.windows == 1 && p.beyond >= 10, "short series use every sample");
}

void test_schedule_determinism() {
  const auto a = perfbench::poisson_schedule(7, 8, 32, 1, 5, 60000.0);
  const auto b = perfbench::poisson_schedule(7, 8, 32, 1, 5, 60000.0);
  const auto c = perfbench::poisson_schedule(8, 8, 32, 1, 5, 60000.0);
  check(a.size() == 5 * 8 * 32, "schedule covers every bid of every block");
  bool same = a.size() == b.size();
  bool differs = false;
  bool monotone = true;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_ns == b[i].due_ns && a[i].market == b[i].market &&
           a[i].round == b[i].round && a[i].slot == b[i].slot;
    differs = differs || a[i].due_ns != c[i].due_ns || a[i].slot != c[i].slot;
    if (i > 0) monotone = monotone && a[i].due_ns >= a[i - 1].due_ns;
  }
  check(same, "same seed gives the same schedule");
  check(differs, "another seed gives another schedule");
  check(monotone, "due times never decrease");
  // Every (market, round) gets exactly 32 bids; rounds start at 1.
  std::vector<int> count(8 * 6, 0);
  for (const auto& bid : a) ++count[bid.market * 6 + bid.round];
  bool full = true;
  for (std::size_t m = 0; m < 8; ++m) {
    full = full && count[m * 6] == 0;
    for (std::size_t r = 1; r < 6; ++r) full = full && count[m * 6 + r] == 32;
  }
  check(full, "each round of each market gets exactly its 32 bids");
  // The offered rate: mean gap within 3% of 1/rate on a long schedule.
  const auto day = perfbench::poisson_schedule(3, 64, 32, 1, 40, 60000.0);
  const double mean_gap_s = static_cast<double>(day.back().due_ns) * 1e-9 /
                            static_cast<double>(day.size());
  check(std::fabs(mean_gap_s * 60000.0 - 1.0) < 0.03,
        "mean gap matches the offered rate");
}

void test_digest_stability() {
  perfbench::Digest a;
  perfbench::Digest b;
  for (std::uint64_t i = 0; i < 100; ++i) {
    a.add(i);
    a.add_double(0.1 * static_cast<double>(i));
    b.add(i);
    b.add_double(0.1 * static_cast<double>(i));
  }
  check(a.value() == b.value() && a.hex() == b.hex(),
        "equal inputs give equal digests");
  check(a.hex().size() == 16, "digest prints as 16 hex digits");
  perfbench::Digest empty;
  check(empty.hex() == "cbf29ce484222325", "the empty digest is the FNV offset");
  perfbench::Digest c = b;
  c.add_double(-0.0);
  perfbench::Digest d = b;
  d.add_double(0.0);
  check(c.value() != d.value(), "the digest sees payment bits, not values");
}

void test_slate_targets() {
  sfl::auction::CandidateBatch day;
  sfl::auction::CandidateBatch night;
  sfl::auction::CandidateBatch again;
  const double pool = static_cast<double>(perfbench::kDiurnalPool);
  for (std::size_t variant = 0; variant < 3; ++variant) {
    perfbench::make_diurnal_slate(11, perfbench::kDiurnalPool,
                                  perfbench::kDayShare, variant, day);
    perfbench::make_diurnal_slate(11, perfbench::kDiurnalPool,
                                  perfbench::kNightShare, variant, night);
    const double d = static_cast<double>(day.size());
    const double n = static_cast<double>(night.size());
    check(std::fabs(d / (pool * perfbench::kDayShare) - 1.0) < 0.01,
          "day slate holds ~95% of the pool (~95k rows)");
    check(std::fabs(n / (pool * perfbench::kNightShare) - 1.0) < 0.03,
          "night slate holds ~12% of the pool (~12k rows)");
    bool sorted = true;
    for (std::size_t i = 1; i < day.size(); ++i) {
      sorted = sorted && day.ids()[i - 1] < day.ids()[i];
    }
    check(sorted, "slate ids ascend (unique bidders)");
  }
  perfbench::make_diurnal_slate(11, perfbench::kDiurnalPool,
                                perfbench::kNightShare, 2, again);
  bool same = again.size() == night.size();
  for (std::size_t i = 0; same && i < night.size(); ++i) {
    same = again.ids()[i] == night.ids()[i] &&
           again.bids()[i] == night.bids()[i];
  }
  check(same, "slate generation is a function of (seed, share, variant)");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_tail_windows();
  test_schedule_determinism();
  test_digest_stability();
  test_slate_targets();
  if (failures != 0) return 1;
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
