#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

#include "util/config.h"
#include "util/rng.h"
#include "util/simd.h"

namespace perfbench {

Percentile percentile(std::vector<double>& samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  const std::size_t n = samples.size();
  std::size_t k = 0;
  if (n < 11) {
    k = (n + 1) / 2 - 1;  // no tail with ten beyond it: report the median
  } else {
    const auto wanted = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    k = std::min(wanted == 0 ? 0 : wanted - 1, n - 11);
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  p.value = samples[k];
  p.rank = static_cast<double>(k + 1) / static_cast<double>(n);
  p.beyond = n - 1 - k;
  return p;
}

Percentile tail_percentile(const std::vector<double>& in_order, double q) {
  constexpr std::size_t kWindow = 1000;
  const std::size_t windows = in_order.size() / kWindow;
  if (windows < 3) {
    std::vector<double> all = in_order;
    return percentile(all, q);
  }
  std::vector<double> values;
  Percentile first;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> window(
        in_order.begin() + static_cast<long>(w * kWindow),
        in_order.begin() + static_cast<long>((w + 1) * kWindow));
    const Percentile p = percentile(window, q);
    if (w == 0) first = p;
    values.push_back(p.value);
  }
  Percentile p = first;
  p.value = median(values);
  p.samples = in_order.size();
  p.windows = windows;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return percentile(values, 0.5).value;
}

void Digest::add(std::uint64_t word) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (word >> (8 * byte)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add_double(double value) noexcept {
  add(std::bit_cast<std::uint64_t>(value));
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

std::vector<ScheduledBid> poisson_schedule(
    std::uint64_t seed, std::size_t markets, std::size_t bids_per_round,
    std::size_t first_round, std::size_t rounds, double bids_per_s) {
  std::uint64_t state = seed ^ 0x5c4ed01e5c4ed01eULL;
  sfl::util::Rng rng(sfl::util::splitmix64(state));
  std::vector<ScheduledBid> schedule;
  schedule.reserve(rounds * markets * bids_per_round);
  std::vector<ScheduledBid> block(markets * bids_per_round);
  double due_s = 0.0;
  for (std::size_t round = first_round; round < first_round + rounds; ++round) {
    for (std::size_t m = 0; m < markets; ++m) {
      for (std::size_t slot = 0; slot < bids_per_round; ++slot) {
        ScheduledBid& bid = block[m * bids_per_round + slot];
        bid.market = static_cast<std::uint32_t>(m);
        bid.round = static_cast<std::uint32_t>(round);
        bid.slot = static_cast<std::uint32_t>(slot);
      }
    }
    rng.shuffle(block);
    for (ScheduledBid& bid : block) {
      due_s += rng.exponential(bids_per_s);
      bid.due_ns = static_cast<std::int64_t>(due_s * 1e9);
      schedule.push_back(bid);
    }
  }
  return schedule;
}

namespace {

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

ProcessSample from_rusage(const rusage& usage) {
  ProcessSample sample;
  sample.wall_ns = now_ns();
  sample.user_s = seconds_of(usage.ru_utime);
  sample.sys_s = seconds_of(usage.ru_stime);
  sample.voluntary_switches = usage.ru_nvcsw;
  sample.involuntary_switches = usage.ru_nivcsw;
  return sample;
}

}  // namespace

ProcessSample sample_process() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return from_rusage(usage);
}

ProcessSample sample_thread() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return from_rusage(usage);
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Tracer(std::string thread_label)
    : thread_label_(std::move(thread_label)) {
  spans_.reserve(1u << 16);
}

std::uint32_t Tracer::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  aggregates_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::begin(std::uint32_t name, std::uint64_t round) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.round = round;
  open_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back(span);
  spans_.back().start_ns = now_ns();
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  Span& span = spans_[static_cast<std::size_t>(open_.back())];
  open_.pop_back();
  span.end_ns = t;
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.duration_ns();
  }
}

void Tracer::aggregate(std::uint32_t name, std::int64_t duration_ns) {
  Aggregate& agg = aggregates_[name];
  ++agg.count;
  agg.total_ns += duration_ns;
  agg.max_ns = std::max(agg.max_ns, duration_ns);
  if (!open_.empty()) {
    spans_[static_cast<std::size_t>(open_.back())].child_ns += duration_ns;
  }
}

Tracer::Aggregate Tracer::aggregate_of(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return aggregates_[i];
  }
  return {};
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (names_[span.name] == name) {
      out.push_back(static_cast<double>(span.duration_ns()));
    }
  }
  return out;
}

std::int64_t Tracer::total_ns_of(std::string_view name) const {
  std::int64_t total = aggregate_of(name).total_ns;
  for (const Span& span : spans_) {
    if (names_[span.name] == name) total += span.duration_ns();
  }
  return total;
}

std::int64_t Tracer::self_ns_of_layer(std::string_view prefix) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (names_[span.name].starts_with(prefix)) total += span.self_ns();
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i].starts_with(prefix)) total += aggregates_[i].total_ns;
  }
  return total;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "span," << thread_label_ << ',' << i << ',' << s.parent << ','
        << names_[s.name] << ',' << s.round << ',' << s.start_ns << ','
        << s.end_ns << ',' << s.self_ns() << '\n';
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const Aggregate& a = aggregates_[i];
    if (a.count == 0) continue;
    out << "aggregate," << thread_label_ << ",,," << names_[i] << ','
        << a.count << ',' << a.total_ns << ',' << a.max_ns << ",\n";
  }
}

void WorkloadResult::put(const std::string& name, double value,
                         const std::string& unit, std::size_t samples,
                         std::string note) {
  metrics[name] = MetricValue{value, unit, samples, std::move(note)};
}

void WorkloadResult::put_percentile(const std::string& name,
                                    const Percentile& p, double scale,
                                    const std::string& unit) {
  char note[128];
  if (p.windows > 1) {
    std::snprintf(note, sizeof(note),
                  "median of %zu windows' p%.4g, %zu samples beyond in each",
                  p.windows, p.rank * 100.0, p.beyond);
  } else {
    std::snprintf(note, sizeof(note), "reported rank p%.4g, %zu samples beyond",
                  p.rank * 100.0, p.beyond);
  }
  put(name, p.value * scale, unit, p.samples, note);
}

void put_round_percentiles(const std::vector<double>& all_ns,
                           const std::vector<double>& day_ns,
                           const std::vector<double>& night_ns,
                           WorkloadResult& result) {
  const std::pair<const char*, const std::vector<double>*> kinds[] = {
      {"round", &all_ns}, {"day_round", &day_ns}, {"night_round", &night_ns}};
  for (const auto& [kind, samples] : kinds) {
    std::vector<double> copy = *samples;
    result.put_percentile(std::string(kind) + "_p50_us", percentile(copy, 0.5),
                          1e-3, "us");
    result.put_percentile(std::string(kind) + "_p99_us",
                          tail_percentile(*samples, 0.99), 1e-3, "us");
  }
}

void gate_failed(const std::string& what) { throw GateFailure{what}; }

std::string run_header_json(const RunOptions& options, const std::string& commit,
                            bool& release) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  release = build_type == "Release";
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"commit\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"release_build\": %s, \"simd_kernel\": \"%s\", \"repro_fast\": %s, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d}",
      commit.c_str(), std::thread::hardware_concurrency(), build_type.c_str(),
      release ? "true" : "false",
      sfl::util::simd::kernel_name(sfl::util::simd::active_kernel()),
      sfl::util::fast_mode_enabled() ? "true" : "false",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0);
  return buffer;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"rounds_per_s", "rounds/s"},
      {"round_p50_us", "us"},
      {"day_round_p50_us", "us"},
      {"night_round_p50_us", "us"},
      {"cpu_us_per_round", "us/round"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // Round-latency tails, from the trace run's untraced pass: on a shared
      // host their run-to-run spread is wider than any bound allows.
      {"round_p99_us", "us"},
      {"day_round_p99_us", "us"},
      {"night_round_p99_us", "us"},
      {"service.open_loop.p50_us", "us"},
      {"service.poll_once.p50_us", "us"},
      {"service.poll_once.p99_us", "us"},
      {"service.poll_once.busy_share", "share"},
      {"service.rounds_per_tick", "rounds/tick"},
      {"service.frames_per_round", "frames/round"},
      {"service.thread_cpu_us_per_round", "us/round"},
      {"service.sys_share", "share"},
      {"service.protocol_errors", "count"},
      {"service.connections_dropped", "count"},
      {"service.rpc.encode_submit_ns", "ns"},
      {"service.rpc.decode_result_ns", "ns"},
      {"service.frame_assembler.feed_ns_per_kib", "ns/KiB"},
      {"util.pool.cpu_us_per_round", "us/round"},
      {"proc.cpu_per_wall", "cores"},
      {"proc.ctx_switches_per_round", "count/round"},
      {"core.round_inputs_us.day", "us"},
      {"core.round_inputs_us.night", "us"},
      {"core.commit_us", "us"},
      {"core.settle_us", "us"},
      {"auction.select_top_m_us.day", "us"},
      {"auction.select_top_m_us.night", "us"},
      {"auction.critical_payments_us.day", "us"},
      {"auction.critical_payments_us.night", "us"},
      {"auction.effective_shards.day", "count"},
      {"auction.effective_shards.night", "count"},
      {"auction.rows_scored", "rows/round"},
      {"auction.score_bytes", "bytes/round"},
      {"fl.loss_and_gradient.ms_per_round", "ms/round"},
      {"fl.loss.ms_per_round", "ms/round"},
      {"fl.predict_class.ms_per_round", "ms/round"},
      {"fl.clone.calls_per_round", "calls/round"},
      {"core.mechanism.run_round_us", "us"},
      {"core.mechanism.settle_us", "us"},
      {"core.orchestrator.self_ms_per_round", "ms/round"},
      {"sim.available_per_round", "clients/round"},
      {"fl.participants_per_round", "clients/round"},
      {"bench.gen.late_p50_us", "us"},
      {"bench.gen.late_max_us", "us"},
      {"bench.gen.achieved_ratio", "ratio"},
      {"bench.gen.cpu_us_per_round", "us/round"},
      {"trace.rounds", "count"},
      {"trace.spans", "count"},
      {"trace.wall_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.self_share.service", "share"},
      {"trace.self_share.auction", "share"},
      {"trace.self_share.core", "share"},
      {"trace.self_share.fl", "share"},
      {"trace.self_share.bench", "share"},
      {"trace.accounted_share", "share"},
  };
  return defs;
}

}  // namespace perfbench
