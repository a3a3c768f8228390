// clear-diurnal: the clearing engine on one large market.
//
// A 100,000-client pool bids into one paced LTO-VCG market built through the
// registry as "lto-vcg-sharded" with lto.shards = 0 (auto), with a Z queue
// for every client. Rounds alternate in blocks: by day 95% of the pool has
// harvested enough energy to bid (~95k rows, four shards on four cores), by
// night 12% (~12k rows, the 10k-100k band where auto sharding forks for
// little work). Day rounds measure parallel throughput of scoring, top-m
// selection, the shard merge, critical payments and the O(n) penalty
// gather; night rounds are dominated by per-round fork/join and fixed
// costs. No network, no training.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "auction/registry.h"
#include "auction/sharded_wdp.h"
#include "core/long_term_online_vcg.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sfl::auction::CandidateBatch;
using sfl::auction::Mechanism;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;
using sfl::auction::RoundSettlement;
using sfl::auction::WinnerSettlement;
using sfl::core::LongTermOnlineVcgMechanism;

constexpr std::size_t kWinners = 10;        // m
constexpr double kBudget = 5.0;             // B-bar
constexpr double kVWeight = 10.0;           // V
constexpr double kPacingRate = 0.02;        // r_i: win at most 2% of rounds
constexpr std::size_t kDayRounds = 8;       // day block length
constexpr std::size_t kNightRounds = 12;    // night block length
constexpr std::size_t kCycle = kDayRounds + kNightRounds;
constexpr std::size_t kSlateVariants = 3;   // distinct slates per share
constexpr std::size_t kSetupRepeats = 5;
constexpr double kCyclesPerSecond = 25.0;  // work per measured second
constexpr std::int64_t kRoundDeadlineNs = 1'000'000'000;

/// Everything one measured pass needs: the pre-generated slates, the
/// mechanism under test, and the reused round buffers.
struct Market {
  std::vector<CandidateBatch> day;
  std::vector<CandidateBatch> night;
  std::unique_ptr<Mechanism> mechanism;
  LongTermOnlineVcgMechanism* lto = nullptr;
  MechanismResult result;
  RoundSettlement settlement;
  std::size_t next_round = 0;  ///< settlement round stamp

  [[nodiscard]] static bool is_day(std::size_t position) {
    return position % kCycle < kDayRounds;
  }
  [[nodiscard]] const CandidateBatch& slate(std::size_t position) const {
    const std::size_t variant = (position / kCycle + position) % kSlateVariants;
    return is_day(position) ? day[variant] : night[variant];
  }
};

std::unique_ptr<Mechanism> build_market_mechanism(std::uint64_t seed) {
  sfl::auction::MechanismConfig config;
  config.num_clients = kDiurnalPool;
  config.per_round_budget = kBudget;
  config.seed = seed;
  config.lto.v_weight = kVWeight;
  config.lto.pacing_rate = kPacingRate;
  config.lto.shards = 0;
  return sfl::auction::build_mechanism("lto-vcg-sharded", config);
}

/// Full-delivery settlement of the round in market.result: every winner
/// pays out. Winner rows are found by binary search (slates are id-sorted).
void fill_settlement(Market& market, const CandidateBatch& slate) {
  RoundSettlement& s = market.settlement;
  s.round = market.next_round++;
  s.total_payment = 0.0;
  s.winners.clear();
  const auto ids = slate.ids();
  for (std::size_t w = 0; w < market.result.winners.size(); ++w) {
    const auto client = market.result.winners[w];
    const auto it = std::lower_bound(ids.begin(), ids.end(), client);
    const auto row = static_cast<std::size_t>(it - ids.begin());
    WinnerSettlement entry;
    entry.client = client;
    if (row < ids.size() && ids[row] == client) {
      entry.bid = slate.bids()[row];
      entry.energy_cost = slate.energy_costs()[row];
    } else {
      entry.bid = std::nan("");  // not a bidder: fails the IR gate below
    }
    entry.payment = market.result.payments[w];
    s.total_payment += entry.payment;
    s.winners.push_back(entry);
  }
}

/// The round's correctness gates: at most m winners, each a bidder of the
/// slate, each paid at least its bid (IR) with a finite payment.
void check_round(const Market& market, std::size_t position) {
  const RoundSettlement& s = market.settlement;
  if (s.winners.size() > kWinners) {
    gate_failed("clear-diurnal: round " + std::to_string(position) + " has " +
                std::to_string(s.winners.size()) + " winners > m");
  }
  for (const WinnerSettlement& w : s.winners) {
    if (!std::isfinite(w.payment) || !(w.payment >= w.bid)) {
      gate_failed("clear-diurnal: round " + std::to_string(position) +
                  " pays client " + std::to_string(w.client) +
                  " below its bid (IR violated or not a bidder)");
    }
  }
}

void add_to_digest(const Market& market, Digest& digest) {
  digest.add(market.result.winners.size());
  for (std::size_t w = 0; w < market.result.winners.size(); ++w) {
    digest.add(market.result.winners[w]);
    digest.add_double(market.result.payments[w]);
  }
}

RoundContext context_for() {
  RoundContext context;
  context.max_winners = kWinners;
  context.per_round_budget = kBudget;
  return context;
}

/// One round through the mechanism's own entry points, exactly as a host
/// would clear it: run_round_into, then settle.
void clear_round(Market& market, std::size_t position) {
  const CandidateBatch& slate = market.slate(position);
  RoundContext context = context_for();
  context.round = market.next_round;
  market.mechanism->run_round_into(slate, context, market.result);
  fill_settlement(market, slate);
  market.mechanism->settle(market.settlement);
}

/// Pool and slate generation, mechanism build, one untimed day+night cycle.
Market set_up(std::uint64_t seed, Digest& warmup_digest) {
  Market market;
  market.day.resize(kSlateVariants);
  market.night.resize(kSlateVariants);
  for (std::size_t v = 0; v < kSlateVariants; ++v) {
    make_diurnal_slate(seed, kDiurnalPool, kDayShare, v, market.day[v]);
    make_diurnal_slate(seed, kDiurnalPool, kNightShare, v, market.night[v]);
  }
  market.mechanism = build_market_mechanism(seed);
  market.lto =
      dynamic_cast<LongTermOnlineVcgMechanism*>(market.mechanism->underlying());
  if (market.lto == nullptr || !market.lto->supports_external_rounds()) {
    gate_failed("clear-diurnal: lto-vcg-sharded is not an LTO-VCG instance "
                "with external rounds");
  }
  for (std::size_t position = 0; position < kCycle; ++position) {
    clear_round(market, position);
    check_round(market, position);
    add_to_digest(market, warmup_digest);
  }
  return market;
}

struct PassStats {
  std::size_t rounds = 0;
  std::size_t late = 0;  ///< rounds past the per-round deadline
  std::int64_t wall_ns = 0;
  double cpu_s = 0.0;
  double main_thread_cpu_s = 0.0;
  long switches = 0;
  std::vector<double> cycle_s;      ///< wall time of each whole cycle
  std::vector<double> cycle_cpu_s;  ///< process CPU of each whole cycle
  std::vector<double> all_ns;  ///< every round, in order
  std::vector<double> day_ns;
  std::vector<double> night_ns;
  Digest digest;
  /// digest after the first two cycles, which every pass runs whatever its
  /// length: the seed-determined part of the digest.
  std::uint64_t prefix_digest = 0;
};

/// Measured pass of `cycles` whole day+night cycles (at least two).
PassStats untraced_pass(Market& market, std::size_t cycles) {
  PassStats stats;
  const ProcessSample p0 = sample_process();
  const double t0_cpu = thread_cpu_s();
  const std::int64_t start = now_ns();
  ProcessSample cycle_start = p0;
  for (std::size_t position = 0; position < cycles * kCycle; ++position) {
    const std::int64_t t0 = now_ns();
    clear_round(market, position);
    const std::int64_t dt = now_ns() - t0;
    stats.all_ns.push_back(static_cast<double>(dt));
    (Market::is_day(position) ? stats.day_ns : stats.night_ns)
        .push_back(static_cast<double>(dt));
    if (dt > kRoundDeadlineNs) ++stats.late;
    check_round(market, position);
    add_to_digest(market, stats.digest);
    if (++stats.rounds == 2 * kCycle) stats.prefix_digest = stats.digest.value();
    if (stats.rounds % kCycle == 0) {
      const ProcessSample now = sample_process();
      stats.cycle_s.push_back(
          static_cast<double>(now.wall_ns - cycle_start.wall_ns) * 1e-9);
      stats.cycle_cpu_s.push_back(now.cpu_s() - cycle_start.cpu_s());
      cycle_start = now;
    }
  }
  stats.wall_ns = now_ns() - start;
  const ProcessSample p1 = sample_process();
  stats.cpu_s = p1.cpu_s() - p0.cpu_s();
  stats.main_thread_cpu_s = thread_cpu_s() - t0_cpu;
  stats.switches = (p1.voluntary_switches + p1.involuntary_switches) -
                   (p0.voluntary_switches + p0.involuntary_switches);
  return stats;
}

/// The traced pass: the same rounds decomposed into the layers' public
/// calls — external_round_inputs, ShardedWdp::select_top_m and
/// critical_payments on an engine built with the mechanism's shard count,
/// commit_external_round, settle — each under its own span.
PassStats traced_pass(Market& market, std::size_t rounds, Tracer& tracer,
                      double& day_shards, double& night_shards,
                      double& rows_per_round) {
  const sfl::auction::ShardedWdp engine(sfl::auction::ShardedWdpConfig{
      .shards = market.lto->config().shards});
  sfl::auction::RoundScratch scratch;
  sfl::auction::Penalties penalties;
  const std::uint32_t root = tracer.name_id("bench.clear_diurnal.pass");
  const std::uint32_t inputs[2] = {tracer.name_id("core.round_inputs.night"),
                                   tracer.name_id("core.round_inputs.day")};
  const std::uint32_t select[2] = {
      tracer.name_id("auction.select_top_m.night"),
      tracer.name_id("auction.select_top_m.day")};
  const std::uint32_t pay[2] = {
      tracer.name_id("auction.critical_payments.night"),
      tracer.name_id("auction.critical_payments.day")};
  const std::uint32_t commit = tracer.name_id("core.commit_external_round");
  const std::uint32_t settle = tracer.name_id("core.settle");

  PassStats stats;
  double shard_sum[2] = {0.0, 0.0};
  std::size_t type_rounds[2] = {0, 0};
  double rows = 0.0;
  const ProcessSample p0 = sample_process();
  const double t0_cpu = thread_cpu_s();
  const std::int64_t start = now_ns();
  {
    ScopedSpan pass(&tracer, root, 0);
    for (std::size_t position = 0; position < rounds; ++position) {
      const CandidateBatch& slate = market.slate(position);
      const int day = Market::is_day(position) ? 1 : 0;
      const std::uint64_t round_id = market.next_round;
      const std::int64_t t0 = now_ns();
      sfl::auction::ScoreWeights weights;
      {
        ScopedSpan span(&tracer, inputs[day], round_id);
        weights = market.lto->external_round_inputs(slate, penalties);
      }
      {
        ScopedSpan span(&tracer, select[day], round_id);
        engine.select_top_m(slate, weights, kWinners, penalties, scratch);
      }
      {
        ScopedSpan span(&tracer, pay[day], round_id);
        engine.critical_payments(slate, weights, kWinners, penalties, scratch);
      }
      {
        ScopedSpan span(&tracer, commit, round_id);
        market.lto->commit_external_round(slate, scratch.allocation.selected,
                                          scratch.payments, market.result);
      }
      fill_settlement(market, slate);
      {
        ScopedSpan span(&tracer, settle, round_id);
        market.mechanism->settle(market.settlement);
      }
      const std::int64_t dt = now_ns() - t0;
      (day == 1 ? stats.day_ns : stats.night_ns)
          .push_back(static_cast<double>(dt));
      if (dt > kRoundDeadlineNs) ++stats.late;
      shard_sum[day] += static_cast<double>(engine.effective_shards(slate.size()));
      ++type_rounds[day];
      rows += static_cast<double>(slate.size());
      check_round(market, position);
      add_to_digest(market, stats.digest);
      ++stats.rounds;
    }
  }
  stats.wall_ns = now_ns() - start;
  const ProcessSample p1 = sample_process();
  stats.cpu_s = p1.cpu_s() - p0.cpu_s();
  stats.main_thread_cpu_s = thread_cpu_s() - t0_cpu;
  stats.switches = (p1.voluntary_switches + p1.involuntary_switches) -
                   (p0.voluntary_switches + p0.involuntary_switches);
  day_shards = type_rounds[1] > 0 ? shard_sum[1] / type_rounds[1] : 0.0;
  night_shards = type_rounds[0] > 0 ? shard_sum[0] / type_rounds[0] : 0.0;
  rows_per_round = rounds > 0 ? rows / static_cast<double>(rounds) : 0.0;
  return stats;
}

double median_us(const Tracer& tracer, const char* name) {
  return median(tracer.durations_ns(name)) / 1e3;
}

}  // namespace

void make_diurnal_slate(std::uint64_t seed, std::size_t pool, double share,
                        std::size_t variant, CandidateBatch& out) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (variant + 1)) ^
                        static_cast<std::uint64_t>(share * 1e6);
  sfl::util::Rng rng(sfl::util::splitmix64(state));
  out.clear();
  out.reserve(static_cast<std::size_t>(static_cast<double>(pool) * share * 1.05));
  for (std::size_t client = 0; client < pool; ++client) {
    if (rng.uniform() >= share) continue;
    const double value = rng.uniform(0.5, 3.0);
    const double bid = rng.uniform(0.05, 2.0);
    const double energy = rng.uniform(0.5, 2.0);
    out.emplace(client, value, bid, energy);
  }
}

WorkloadResult run_clear_diurnal(const RunOptions& options) {
  WorkloadResult result;
  const std::size_t cycles = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(
             kCyclesPerSecond * options.seconds * (options.trace ? 0.5 : 1.0))));

  std::vector<double> setup_s;
  Market market;
  Digest warmup;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    warmup = Digest{};
    market = set_up(options.seed, warmup);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  PassStats pass = untraced_pass(market, cycles);
  result.attempted = pass.rounds;
  result.failed = pass.late;

  warmup.add(pass.prefix_digest);
  result.digest = warmup.hex();

  result.put("setup_s", median(setup_s), "s", setup_s.size(),
             "median of repeated set-ups");
  // Throughput and CPU from the median cycle: a cycle is the workload's
  // unit of repeated work, and the median keeps a machine stall in a few
  // cycles from standing for the whole run.
  result.put("rounds_per_s", kCycle / median(pass.cycle_s), "rounds/s",
             pass.rounds, "median over cycles");
  result.put("cpu_us_per_round", median(pass.cycle_cpu_s) * 1e6 / kCycle,
             "us/round", pass.rounds, "median over cycles");
  put_round_percentiles(pass.all_ns, pass.day_ns, pass.night_ns, result);
  result.put("peak_rss_mb", peak_rss_mib(), "MiB");
  if (!options.trace) return result;

  // Traced run: the same rounds again from a fresh set-up, decomposed into
  // the layers' calls; its digest must equal the untraced pass's.
  Digest unused;
  Market traced_market = set_up(options.seed, unused);
  Tracer tracer("main");
  double day_shards = 0.0;
  double night_shards = 0.0;
  double rows_per_round = 0.0;
  const PassStats traced = traced_pass(traced_market, pass.rounds, tracer,
                                       day_shards, night_shards,
                                       rows_per_round);
  if (traced.digest.value() != pass.digest.value()) {
    gate_failed("clear-diurnal: traced digest " + traced.digest.hex() +
                " differs from untraced " + pass.digest.hex());
  }
  result.failed += traced.late;
  result.attempted += traced.rounds;
  if (!options.trace_out.empty()) tracer.write_csv(options.trace_out);

  const double rounds = static_cast<double>(traced.rounds);
  const double wall_s = static_cast<double>(traced.wall_ns) * 1e-9;
  result.put("core.round_inputs_us.day",
             median_us(tracer, "core.round_inputs.day"), "us", traced.day_ns.size());
  result.put("core.round_inputs_us.night",
             median_us(tracer, "core.round_inputs.night"), "us",
             traced.night_ns.size());
  result.put("core.commit_us", median_us(tracer, "core.commit_external_round"),
             "us", traced.rounds);
  result.put("core.settle_us", median_us(tracer, "core.settle"), "us",
             traced.rounds);
  result.put("auction.select_top_m_us.day",
             median_us(tracer, "auction.select_top_m.day"), "us",
             traced.day_ns.size());
  result.put("auction.select_top_m_us.night",
             median_us(tracer, "auction.select_top_m.night"), "us",
             traced.night_ns.size());
  result.put("auction.critical_payments_us.day",
             median_us(tracer, "auction.critical_payments.day"), "us",
             traced.day_ns.size());
  result.put("auction.critical_payments_us.night",
             median_us(tracer, "auction.critical_payments.night"), "us",
             traced.night_ns.size());
  result.put("auction.effective_shards.day", day_shards, "count");
  result.put("auction.effective_shards.night", night_shards, "count");
  result.put("auction.rows_scored", rows_per_round, "rows/round");
  result.put("auction.score_bytes", rows_per_round * 4 * 8, "bytes/round");
  result.put("util.pool.cpu_us_per_round",
             std::max(0.0, traced.cpu_s - traced.main_thread_cpu_s) * 1e6 / rounds,
             "us/round", traced.rounds);
  result.put("proc.cpu_per_wall", traced.cpu_s / wall_s, "cores");
  result.put("proc.ctx_switches_per_round",
             static_cast<double>(traced.switches) / rounds, "count/round");

  const std::int64_t bench_self = tracer.self_ns_of_layer("bench.");
  const std::int64_t auction_self = tracer.self_ns_of_layer("auction.");
  const std::int64_t core_self = tracer.self_ns_of_layer("core.");
  const double wall_ns = static_cast<double>(traced.wall_ns);
  result.put("trace.rounds", rounds, "count");
  result.put("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  result.put("trace.wall_s", wall_s, "s");
  result.put("trace.overhead_s",
             static_cast<double>(traced.wall_ns - pass.wall_ns) * 1e-9, "s");
  result.put("trace.self_share.auction", auction_self / wall_ns, "share");
  result.put("trace.self_share.core", core_self / wall_ns, "share");
  result.put("trace.self_share.bench", bench_self / wall_ns, "share");
  result.put("trace.accounted_share",
             (bench_self + auction_self + core_self) / wall_ns, "share");
  return result;
}

}  // namespace perfbench
