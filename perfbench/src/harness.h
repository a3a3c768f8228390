// Shared machinery of the repository benchmark: clocks, the percentile rule,
// result digests, the open-loop arrival schedule, process resource counters,
// the in-memory span tracer, and the metric report.
//
// Nothing here is part of the program under test; every workload drives the
// program's public API from perfbench/src and measures around those calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles -----------------------------------------------------------

/// One reported percentile. `rank` is the percentile actually reported: the
/// requested one when at least ten samples lie beyond it, else the highest
/// rank that still has ten samples beyond it (so a "p99" over 500 samples
/// reports p97.8). `beyond` is the number of samples above the reported one.
struct Percentile {
  double value = 0.0;
  double rank = 0.0;  ///< in (0, 1]
  std::size_t samples = 0;
  std::size_t beyond = 0;
  std::size_t windows = 1;  ///< > 1: median over this many windows
};

/// Nearest-rank percentile of `samples` at `q` in (0, 1), capped so that at
/// least ten samples lie beyond the reported one. With fewer than 11
/// samples no tail exists; the median is reported instead (rank 0.5).
/// `samples` is reordered.
[[nodiscard]] Percentile percentile(std::vector<double>& samples, double q);

/// The tail of a time-ordered series, robust to rare machine stalls: with
/// at least three windows of 1000 consecutive samples, the median over the
/// windows of each window's percentile (each one with ten samples beyond
/// it); with fewer samples, percentile() over all of them.
[[nodiscard]] Percentile tail_percentile(const std::vector<double>& in_order,
                                         double q);

// --- digests ---------------------------------------------------------------

/// FNV-1a over 64-bit words: winners, counts and the IEEE bits of payments,
/// so two runs agree only if their outputs agree bit for bit.
class Digest {
 public:
  void add(std::uint64_t word) noexcept;
  void add_double(double value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// --- open-loop arrival schedule --------------------------------------------

/// One bid of the schedule: due at `due_ns` after the phase start.
struct ScheduledBid {
  std::int64_t due_ns = 0;
  std::uint32_t market = 0;  ///< market index within the phase's spec
  std::uint32_t round = 0;
  std::uint32_t slot = 0;
};

/// Absolute Poisson schedule of rounds [first_round, first_round + rounds)
/// of every market: round block by round block, the block's (market, slot)
/// pairs in a seeded shuffled order, each due one exponential gap at
/// `bids_per_s` after the previous bid. A pure function of its arguments.
[[nodiscard]] std::vector<ScheduledBid> poisson_schedule(
    std::uint64_t seed, std::size_t markets, std::size_t bids_per_round,
    std::size_t first_round, std::size_t rounds, double bids_per_s);

// --- process resources -----------------------------------------------------

struct ProcessSample {
  std::int64_t wall_ns = 0;
  double user_s = 0.0;
  double sys_s = 0.0;
  long voluntary_switches = 0;
  long involuntary_switches = 0;

  [[nodiscard]] double cpu_s() const noexcept { return user_s + sys_s; }
};

/// getrusage(RUSAGE_SELF) plus the wall clock.
[[nodiscard]] ProcessSample sample_process();
/// getrusage(RUSAGE_THREAD) of the calling thread plus the wall clock.
[[nodiscard]] ProcessSample sample_thread();
/// CLOCK_THREAD_CPUTIME_ID of the calling thread, in seconds.
[[nodiscard]] double thread_cpu_s();
/// ru_maxrss in MiB.
[[nodiscard]] double peak_rss_mib();

// --- tracing ---------------------------------------------------------------

/// In-memory tracer owned by ONE thread. Spans record name, start, end,
/// parent and the round they belong to; calls too frequent for a span each
/// are folded into per-name aggregates (count, total, max). Time spent in
/// child spans and aggregated calls is subtracted from the enclosing span,
/// giving each span its self time. Everything stays in memory until
/// write_csv at the end of the run.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t round = 0;   ///< round id shared by a round's spans
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< covered by children and aggregates

    [[nodiscard]] std::int64_t duration_ns() const noexcept {
      return end_ns - start_ns;
    }
    [[nodiscard]] std::int64_t self_ns() const noexcept {
      return duration_ns() - child_ns;
    }
  };
  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t max_ns = 0;
  };

  explicit Tracer(std::string thread_label);

  /// Interns a span or aggregate name ("layer.call").
  [[nodiscard]] std::uint32_t name_id(std::string_view name);

  void begin(std::uint32_t name, std::uint64_t round);
  void end();
  /// Records one call of `duration_ns` into the name's aggregate and
  /// charges it to the enclosing open span.
  void aggregate(std::uint32_t name, std::int64_t duration_ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return names_[id];
  }
  [[nodiscard]] Aggregate aggregate_of(std::string_view name) const;
  /// Durations (ns) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ns(std::string_view name) const;
  /// Total self time (ns) of spans and aggregates whose name starts with
  /// `prefix` (a layer: "service.", "auction.", ...).
  [[nodiscard]] std::int64_t self_ns_of_layer(std::string_view prefix) const;
  [[nodiscard]] std::int64_t total_ns_of(std::string_view name) const;

  /// Appends the spans and aggregates as CSV rows to `path`.
  void write_csv(const std::string& path) const;

 private:
  std::string thread_label_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;  ///< indexed by name id
  std::vector<std::int32_t> open_;     ///< stack of open span indices
};

/// RAII span on a tracer; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, std::uint64_t round)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, round);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// --- run options and results -----------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< CSV path for spans (trace runs only)
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = not a sampled statistic
  std::string note;
};

/// What one workload run hands back to main(). A run that breaks a
/// correctness gate throws GateFailure instead of returning.
struct WorkloadResult {
  std::size_t attempted = 0;  ///< operations (rounds) attempted
  std::size_t failed = 0;     ///< missed their deadline, failed, or threw
  std::string digest;         ///< seed-determined result digest
  std::map<std::string, MetricValue> metrics;

  void put(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, std::string note = {});
  void put_percentile(const std::string& name, const Percentile& p,
                      double scale, const std::string& unit);
};

/// Puts round_p50_us / round_p99_us and their day_ and night_ variants
/// from per-round nanosecond samples in time order: p50 over every sample,
/// p99 by tail_percentile.
void put_round_percentiles(const std::vector<double>& all_ns,
                           const std::vector<double>& day_ns,
                           const std::vector<double>& night_ns,
                           WorkloadResult& result);

/// A correctness gate failed: the run prints no numbers and exits non-zero.
struct GateFailure {
  std::string what;
};
[[noreturn]] void gate_failed(const std::string& what);

/// Metric names and units the benchmark publishes (mirrors BENCHMARK.json).
struct MetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// The run header: commit, nproc, build type, SIMD kernel, REPRO_FAST,
/// workload, seed and seconds, as one JSON object. `release` tells whether
/// the benchmark was built as Release (anything else is flagged).
[[nodiscard]] std::string run_header_json(const RunOptions& options,
                                          const std::string& commit,
                                          bool& release);

/// Median of `values` (reordered); 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
