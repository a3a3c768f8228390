// E7 (Table): winner-determination + payment scalability (google-benchmark).
//
// Wall time of one full auction round (WDP + truthful payments) as the
// market grows: the production top-m path at N up to 1M clients — serial
// allocating, serial scratch-reusing (zero-allocation), and sharded
// parallel (explicit shard counts and shards=auto) — plus the knapsack DP
// used by budget-capped variants and the exhaustive oracle (tiny N only),
// and the parallel comparison-oracle families (VCG externality payments,
// knapsack DP layers, concave-greedy scan) on a {size, threads} grid.
// Regenerates the paper-style "mechanism overhead is negligible next to a
// training round" table.
//
// Before any timing, main() runs a serial-vs-sharded equivalence sweep and
// exits non-zero on any mismatch, so the ctest smoke target turns a merge-
// logic regression into a build failure, not a silently wrong bench.
//
// `--json=<path>` writes BENCH_e07.json with per-N/per-variant wall times
// (see BenchJsonWriter in bench_common.h); REPRO_FAST=1 caps N for smoke
// runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "auction/market_batch.h"
#include "auction/payments.h"
#include "auction/random_instance.h"
#include "auction/round_scratch.h"
#include "auction/sharded_wdp.h"
#include "auction/valuation.h"
#include "auction/winner_determination.h"
#include "bench_common.h"
#include "core/async_settler.h"
#include "core/long_term_online_vcg.h"
#include "dist/distributed_wdp.h"
#include "dist/loopback_transport.h"
#include "util/config.h"
#include "util/rng.h"

namespace {

using namespace sfl::auction;

/// Full-scale N for the top-m benches; smoke runs shrink it so CI finishes
/// in seconds.
std::int64_t scal_max_n() {
  return sfl::util::fast_mode_enabled() ? 10'000 : 1'000'000;
}

RandomInstance make_instance(std::size_t n) {
  sfl::util::Rng rng(1234 + n);
  RandomInstanceSpec spec;
  spec.num_candidates = n;
  return make_random_instance(spec, rng);
}

void BM_TopMWithCriticalPayments(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  for (auto _ : state) {
    const Allocation alloc = select_top_m(instance.candidates, weights, m);
    const auto payments =
        critical_payments(instance.candidates, weights, m, alloc);
    benchmark::DoNotOptimize(payments.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
// nth_element partial selection makes one full round O(n + m log m).
BENCHMARK(BM_TopMWithCriticalPayments)
    ->RangeMultiplier(10)
    ->Range(100, scal_max_n())
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

void BM_TopMWithCriticalPaymentsBatchSoA(benchmark::State& state) {
  // The allocating batch path: SoA scoring + nth_element selection +
  // span-based critical payments, no AoS materialization anywhere.
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  for (auto _ : state) {
    const Allocation alloc = select_top_m(batch, weights, m);
    const auto payments = critical_payments(batch, weights, m, alloc);
    benchmark::DoNotOptimize(payments.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopMWithCriticalPaymentsBatchSoA)
    ->RangeMultiplier(10)
    ->Range(100, scal_max_n())
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

void BM_FullRoundScratchSerial(benchmark::State& state) {
  // Scratch-reusing serial engine round: identical results to the
  // allocating path, zero heap allocations after the first iteration.
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  const ShardedWdp engine{ShardedWdpConfig{.shards = 1}};
  RoundScratch scratch;
  for (auto _ : state) {
    engine.run_round(batch, weights, m, {}, scratch);
    benchmark::DoNotOptimize(scratch.payments.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullRoundScratchSerial)
    ->RangeMultiplier(10)
    ->Range(100, scal_max_n())
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

void BM_FullRoundSharded(benchmark::State& state) {
  // Explicit shard counts: arg0 = N, arg1 = shards. The serial-vs-sharded
  // speedup at a given core count reads off this family vs ScratchSerial.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const RandomInstance instance = make_instance(n);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  const ShardedWdp engine{ShardedWdpConfig{.shards = shards}};
  RoundScratch scratch;
  for (auto _ : state) {
    engine.run_round(batch, weights, m, {}, scratch);
    benchmark::DoNotOptimize(scratch.payments.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullRoundSharded)
    ->ArgsProduct({benchmark::CreateRange(10'000, scal_max_n(), 10), {2, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

void BM_FullRoundShardedAuto(benchmark::State& state) {
  // shards=0: one shard per hardware thread (auto mode also keeps spans
  // >= 4096 candidates, so small N stays effectively serial).
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  const ShardedWdp engine{ShardedWdpConfig{.shards = 0}};
  RoundScratch scratch;
  for (auto _ : state) {
    engine.run_round(batch, weights, m, {}, scratch);
    benchmark::DoNotOptimize(scratch.payments.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullRoundShardedAuto)
    ->RangeMultiplier(10)
    ->Range(100, scal_max_n())
    ->Unit(benchmark::kMicrosecond);

void BM_MegaBatchMarkets(benchmark::State& state) {
  // The cross-market batch axis: arg0 = MARKET count (not rows), each a
  // small independent round of kRowsPerMarket candidates carved zero-copy
  // (view mode) out of one flat arena, cleared by ONE run_rounds call that
  // partitions markets across the pool lanes and scores with the SIMD
  // kernels. items/sec == markets/sec; compare time/market here against
  // BM_FullRoundScratchSerial at n = kRowsPerMarket to read off the
  // amortization win over clearing the markets one engine call at a time.
  constexpr std::size_t kRowsPerMarket = 32;
  const auto market_count = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(market_count * kRowsPerMarket);
  const CandidateBatch arena = CandidateBatch::from_aos(instance.candidates);

  MarketBatch markets;
  markets.bind_arena(arena);
  markets.reserve(market_count, arena.size());
  const ScoreWeights weights{10.0, 12.5};
  for (std::size_t k = 0; k < market_count; ++k) {
    markets.add_market_view(k * kRowsPerMarket, kRowsPerMarket,
                            /*max_winners=*/4, weights);
  }

  const ShardedWdp engine{ShardedWdpConfig{.shards = 0}};
  MarketBatchResult result;
  RoundScratch scratch;
  for (auto _ : state) {
    engine.run_rounds(markets, result, scratch);
    benchmark::DoNotOptimize(result.market_count());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * market_count));
}
BENCHMARK(BM_MegaBatchMarkets)
    ->RangeMultiplier(10)
    ->Range(1'000, sfl::util::fast_mode_enabled() ? 1'000 : 100'000)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_FullRoundDistributedLoopback(benchmark::State& state) {
  // The distributed coordinator over the in-process loopback transport:
  // arg0 = N, arg1 = workers (= shards). Pays the full wire-codec
  // round-trip per shard (encode span, decode request, encode/decode
  // survivors), so the gap to BM_FullRoundScratchSerial is the
  // serialization + coordination overhead a real deployment amortizes
  // against network-parallel scoring.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  const RandomInstance instance = make_instance(n);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  const sfl::dist::DistributedWdp engine{
      sfl::dist::DistributedWdpConfig{.workers = workers}};
  RoundScratch scratch;
  for (auto _ : state) {
    engine.run_round(batch, weights, m, {}, scratch);
    benchmark::DoNotOptimize(scratch.payments.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullRoundDistributedLoopback)
    ->ArgsProduct({benchmark::CreateRange(10'000, scal_max_n(), 10), {2, 4}})
    ->Unit(benchmark::kMicrosecond);

/// One synchronous distributed round per iteration over 4 loopback workers
/// with wall-clock reply latencies, in three configurations (the PR-7
/// acceptance family): no straggler (baseline), a permanent 800us straggler
/// with hedging on, and the same straggler with hedging off. With hedging
/// the coordinator learns the straggler's envelope and races its shards
/// against a hedge mate, so the hedged rounds/sec should land within ~1.5x
/// of the no-straggler baseline, while the unhedged variant eats the full
/// straggler latency every round. The engine (and its latency stats) lives
/// across iterations; a short untimed warm-up covers the kHedgeMinSamples
/// cold start so the timed region measures the steady state.
void bench_hedged_straggler(benchmark::State& state, bool straggler,
                            bool hedge) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kWorkers = 4;
  const RandomInstance instance = make_instance(n);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;

  auto transport = std::make_unique<sfl::dist::LoopbackTransport>(kWorkers);
  auto* raw = transport.get();
  for (std::size_t w = 0; w < kWorkers; ++w) {
    raw->set_worker_latency(w, std::chrono::microseconds(100));
  }
  const sfl::dist::DistributedWdp engine{
      sfl::dist::DistributedWdpConfig{
          .receive_timeout = std::chrono::milliseconds(50), .hedge = hedge},
      std::move(transport)};
  if (straggler) {
    // Slow down a worker that actually owns shards (rendezvous routing may
    // leave an arbitrary worker without a home assignment at 4 shards).
    raw->set_worker_latency(engine.home_worker(0),
                            std::chrono::microseconds(800));
  }

  RoundScratch scratch;
  for (std::size_t warm = 0; warm < 24; ++warm) {
    engine.run_round(batch, weights, m, {}, scratch);
  }
  for (auto _ : state) {
    engine.run_round(batch, weights, m, {}, scratch);
    benchmark::DoNotOptimize(scratch.payments.data());
  }
  state.SetItemsProcessed(state.iterations());  // items/sec == rounds/sec
}

void BM_HedgedStragglerBaseline(benchmark::State& state) {
  bench_hedged_straggler(state, /*straggler=*/false, /*hedge=*/true);
}
BENCHMARK(BM_HedgedStragglerBaseline)
    ->Arg(4'096)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_HedgedStragglerRecovery(benchmark::State& state) {
  bench_hedged_straggler(state, /*straggler=*/true, /*hedge=*/true);
}
BENCHMARK(BM_HedgedStragglerRecovery)
    ->Arg(4'096)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_UnhedgedStraggler(benchmark::State& state) {
  bench_hedged_straggler(state, /*straggler=*/true, /*hedge=*/false);
}
BENCHMARK(BM_UnhedgedStraggler)
    ->Arg(4'096)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Fixed CPU-bound stand-in for the FL work a production round does
/// between reporting a settlement and needing the next auction — the
/// window async settlement overlaps with the mechanism's queue updates.
double training_payload() {
  double acc = 0.0;
  for (std::size_t i = 1; i <= 50'000; ++i) {
    acc += 1.0 / std::sqrt(static_cast<double>(i));
  }
  return acc;
}

/// One settled mechanism round + the training payload, sync vs async:
/// arg0 = N; `async` selects whether settle() applies inline (sync) or
/// enqueues onto the shared pool and is flushed by the next round's
/// barrier (the streamed settlement pipeline). With pacing enabled the
/// settle is O(N) queue updates, so the async variant's round latency
/// drops by whatever fits inside the payload window.
void bench_round_pipeline_settle(benchmark::State& state, bool async) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);

  sfl::core::LtoVcgConfig config;
  config.v_weight = 10.0;
  config.per_round_budget = 5.0;
  config.energy_rates.assign(n, 0.4);  // Z queues on: settle is O(N)
  std::unique_ptr<Mechanism> mechanism =
      std::make_unique<sfl::core::LongTermOnlineVcgMechanism>(config);
  if (async) {
    mechanism = std::make_unique<sfl::core::AsyncSettlementMechanism>(
        std::move(mechanism));
  }

  RoundContext context;
  context.max_winners = 10;
  context.per_round_budget = 5.0;

  MechanismResult outcome;
  RoundSettlement settlement;
  std::size_t round = 0;
  for (auto _ : state) {
    context.round = round;
    mechanism->run_round_into(batch, context, outcome);
    settlement.round = round;
    settlement.total_payment = 0.0;
    settlement.winners.clear();
    for (std::size_t w = 0; w < outcome.winners.size(); ++w) {
      // Generator ids are 0..n-1 in slate order, so id == batch row.
      const std::size_t index = outcome.winners[w];
      settlement.winners.push_back(
          WinnerSettlement{.client = outcome.winners[w],
                           .bid = batch.bids()[index],
                           .payment = outcome.payments[w],
                           .energy_cost = batch.energy_costs()[index],
                           .dropped = false});
      settlement.total_payment += outcome.payments[w];
    }
    mechanism->settle(settlement);
    benchmark::DoNotOptimize(training_payload());
    ++round;
  }
  mechanism->flush();
  state.SetComplexityN(static_cast<std::int64_t>(n));
}

void BM_RoundPipelineSyncSettle(benchmark::State& state) {
  bench_round_pipeline_settle(state, /*async=*/false);
}
BENCHMARK(BM_RoundPipelineSyncSettle)
    ->RangeMultiplier(10)
    ->Range(10'000, scal_max_n())
    ->Unit(benchmark::kMicrosecond);

void BM_RoundPipelineAsyncSettle(benchmark::State& state) {
  bench_round_pipeline_settle(state, /*async=*/true);
}
BENCHMARK(BM_RoundPipelineAsyncSettle)
    ->RangeMultiplier(10)
    ->Range(10'000, scal_max_n())
    ->Unit(benchmark::kMicrosecond);

void BM_TopMWithVcgExternalityPayments(benchmark::State& state) {
  // VCG externality payments re-solve the WDP per winner: O(m) x WDP.
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  const WdpSolver solver = [](const std::vector<Candidate>& c,
                              const ScoreWeights& w, std::size_t k,
                              const Penalties& p) {
    return select_top_m(c, w, k, p);
  };
  for (auto _ : state) {
    const Allocation alloc = select_top_m(instance.candidates, weights, m);
    const auto payments =
        vcg_payments(instance.candidates, weights, m, alloc, solver);
    benchmark::DoNotOptimize(payments.data());
  }
}
BENCHMARK(BM_TopMWithVcgExternalityPayments)
    ->RangeMultiplier(10)
    ->Range(100, 10000)
    ->Unit(benchmark::kMicrosecond);

void BM_KnapsackDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const ScoreWeights weights{1.0, 1.0};
  for (auto _ : state) {
    const Allocation alloc =
        select_knapsack(instance.candidates, weights, 10.0, 10, 0.05);
    benchmark::DoNotOptimize(alloc.selected.data());
  }
}
BENCHMARK(BM_KnapsackDp)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_ExhaustiveOracle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const ScoreWeights weights{1.0, 1.0};
  for (auto _ : state) {
    const Allocation alloc = select_exhaustive(instance.candidates, weights, 5);
    benchmark::DoNotOptimize(alloc.selected.data());
  }
}
BENCHMARK(BM_ExhaustiveOracle)
    ->DenseRange(8, 20, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_GreedyConcave(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RandomInstance instance = make_instance(n);
  const ConcaveValuation valuation(20.0);
  const ScoreWeights weights{1.0, 1.0};
  for (auto _ : state) {
    const Allocation alloc =
        select_greedy_concave(instance.candidates, valuation, weights, 10);
    benchmark::DoNotOptimize(alloc.selected.data());
  }
}
BENCHMARK(BM_GreedyConcave)
    ->RangeMultiplier(10)
    ->Range(100, 10000)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Parallel comparison oracles: the threads+OracleScratch overloads on the
// shared pool. Two axes: {problem size, thread count}; threads=1 is the
// serial-in-the-parallel-entrypoint baseline, so each family's speedup is
// read off directly. verify_oracle_equivalence() below proves every timed
// configuration bit-identical to the serial oracle before any timing runs.
// ---------------------------------------------------------------------------

void BM_TopMWithVcgExternalityPaymentsParallel(benchmark::State& state) {
  // The m leave-one-out re-solves fan out across pool lanes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const RandomInstance instance = make_instance(n);
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  const WdpSolver solver = [](const std::vector<Candidate>& c,
                              const ScoreWeights& w, std::size_t k,
                              const Penalties& p) {
    return select_top_m(c, w, k, p);
  };
  OracleScratch scratch;
  for (auto _ : state) {
    const Allocation alloc = select_top_m(instance.candidates, weights, m);
    const auto payments = vcg_payments(instance.candidates, weights, m, alloc,
                                       solver, {}, threads, scratch);
    benchmark::DoNotOptimize(payments.data());
  }
}
BENCHMARK(BM_TopMWithVcgExternalityPaymentsParallel)
    ->ArgsProduct({{1000, 10000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

void BM_KnapsackDpParallel(benchmark::State& state) {
  // Finer grid than the serial family (0.005 vs 0.05) so each DP layer's
  // (winners x budget) plane is wide enough for lanes to bite.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const RandomInstance instance = make_instance(n);
  const ScoreWeights weights{1.0, 1.0};
  OracleScratch scratch;
  for (auto _ : state) {
    const Allocation alloc = select_knapsack(instance.candidates, weights,
                                             10.0, 10, 0.005, {}, threads,
                                             scratch);
    benchmark::DoNotOptimize(alloc.selected.data());
  }
}
BENCHMARK(BM_KnapsackDpParallel)
    ->ArgsProduct({{256, 1024}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

void BM_GreedyConcaveParallel(benchmark::State& state) {
  // Per-step marginal-gain scan partitioned across lanes; the per-chunk
  // argmaxes reduce under the serial total order.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const RandomInstance instance = make_instance(n);
  const ConcaveValuation valuation(20.0);
  const ScoreWeights weights{1.0, 1.0};
  OracleScratch scratch;
  for (auto _ : state) {
    const Allocation alloc = select_greedy_concave(
        instance.candidates, valuation, weights, 10, {}, threads, scratch);
    benchmark::DoNotOptimize(alloc.selected.data());
  }
}
BENCHMARK(BM_GreedyConcaveParallel)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

/// Pre-bench guard: serial and sharded rounds must agree exactly. Returns
/// false (and prints the first divergence) on any mismatch — main() exits
/// non-zero, so the CI smoke run fails on a merge-logic regression.
bool verify_sharded_equivalence() {
  const ScoreWeights weights{10.0, 12.5};
  const std::size_t m = 10;
  const std::size_t shard_counts[] = {0, 2, 3, 7, 16};
  const std::size_t sizes[] = {
      1'000, 4'096, sfl::util::fast_mode_enabled() ? std::size_t{8'192}
                                                   : std::size_t{100'000}};
  for (const std::size_t n : sizes) {
    const RandomInstance instance = make_instance(n);
    const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
    const Allocation serial = select_top_m(batch, weights, m);
    const auto serial_payments =
        critical_payments(batch, weights, m, serial);
    for (const std::size_t shards : shard_counts) {
      const ShardedWdp engine{ShardedWdpConfig{.shards = shards}};
      RoundScratch scratch;
      engine.run_round(batch, weights, m, {}, scratch);
      if (scratch.allocation.selected != serial.selected ||
          scratch.allocation.total_score != serial.total_score ||
          scratch.payments != serial_payments) {
        std::cerr << "E7 FATAL: sharded WDP diverges from serial at n=" << n
                  << " shards=" << shards << "\n";
        return false;
      }
    }
    // The distributed coordinator (loopback workers, full codec round
    // trip) is held to the same bit-identical bar — the ISSUE-4
    // acceptance worker counts.
    for (const std::size_t workers : {1, 2, 4, 7}) {
      const sfl::dist::DistributedWdp engine{
          sfl::dist::DistributedWdpConfig{.workers = workers}};
      RoundScratch scratch;
      engine.run_round(batch, weights, m, {}, scratch);
      if (scratch.allocation.selected != serial.selected ||
          scratch.allocation.total_score != serial.total_score ||
          scratch.payments != serial_payments) {
        std::cerr << "E7 FATAL: distributed WDP diverges from serial at n="
                  << n << " workers=" << workers << "\n";
        return false;
      }
    }
  }
  std::cout << "E7: serial-vs-sharded-vs-distributed equivalence sweep OK\n";
  return true;
}

/// Pre-bench guard for the mega-batch axis: run_rounds over a mixed batch
/// of markets (varied sizes, empty slates, m >= n, with/without penalties)
/// must match per-market run_round bit for bit at every lane count, and
/// the base-class gather-loop fallback must agree with the fused override.
bool verify_mega_batch_equivalence() {
  sfl::util::Rng rng(0xe07);
  const std::size_t market_count = sfl::util::fast_mode_enabled() ? 64 : 512;

  std::vector<CandidateBatch> slates(market_count);
  std::vector<Penalties> penalties(market_count);
  std::vector<std::size_t> winner_caps(market_count);
  std::vector<ScoreWeights> weight_sets(market_count);
  MarketBatch markets;
  for (std::size_t k = 0; k < market_count; ++k) {
    // Degenerates on purpose: every 17th market empty, every 11th m >= n.
    const std::size_t rows = k % 17 == 0 ? 0 : 1 + rng.uniform_index(48);
    for (std::size_t i = 0; i < rows; ++i) {
      slates[k].emplace(rng.uniform_index(1'000'000), rng.uniform(0.0, 50.0),
                        rng.uniform(0.0, 25.0), rng.uniform(0.1, 4.0));
      if (k % 3 == 0) penalties[k].push_back(rng.uniform(0.0, 10.0));
    }
    winner_caps[k] = k % 11 == 0 ? rows + 2 : 1 + rng.uniform_index(8);
    weight_sets[k] = ScoreWeights{rng.uniform(1.0, 20.0),
                                  rng.uniform(1.0, 20.0)};
    markets.append_market(slates[k], winner_caps[k], weight_sets[k],
                          penalties[k]);
  }

  for (const std::size_t shards : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}}) {
    const ShardedWdp engine{ShardedWdpConfig{.shards = shards}};
    for (const bool fused : {true, false}) {
      MarketBatchResult result;
      RoundScratch scratch;
      if (fused) {
        engine.run_rounds(markets, result, scratch);
      } else {
        engine.WdpEngine::run_rounds(markets, result, scratch);
      }
      for (std::size_t k = 0; k < market_count; ++k) {
        RoundScratch reference;
        engine.run_round(slates[k], weight_sets[k], winner_caps[k],
                         penalties[k], reference);
        const auto selected = result.selected(k);
        const auto payments = result.payments(k);
        const bool winners_match =
            selected.size() == reference.allocation.selected.size() &&
            std::equal(selected.begin(), selected.end(),
                       reference.allocation.selected.begin());
        const bool payments_match =
            payments.size() == reference.payments.size() &&
            std::equal(payments.begin(), payments.end(),
                       reference.payments.begin(),
                       [](double a, double b) {
                         return std::memcmp(&a, &b, sizeof(double)) == 0;
                       });
        if (!winners_match || !payments_match ||
            result.total_score(k) != reference.allocation.total_score) {
          std::cerr << "E7 FATAL: mega-batch run_rounds ("
                    << (fused ? "fused" : "fallback") << ", shards=" << shards
                    << ") diverges from run_round at market " << k << "\n";
          return false;
        }
      }
    }
  }
  std::cout << "E7: mega-batch run_rounds equivalence sweep OK ("
            << market_count << " markets)\n";
  return true;
}

/// Pre-bench guard for the parallel comparison oracles: every timed
/// configuration (and the auto lane count) must reproduce the serial
/// oracle bit for bit — selected set, bit-pattern-identical total score,
/// and bit-pattern-identical VCG payments. Prints the first divergence and
/// returns false, failing the run before any timing happens.
bool verify_oracle_equivalence() {
  const auto bits_equal = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  const std::size_t thread_counts[] = {0, 1, 2, 3, 7, 16};
  const std::size_t sizes[] = {
      64, 512, sfl::util::fast_mode_enabled() ? std::size_t{1'024}
                                              : std::size_t{4'096}};
  OracleScratch scratch;
  for (const std::size_t n : sizes) {
    const RandomInstance instance = make_instance(n);

    // Knapsack DP, at the coarse serial-family grid and the fine parallel-
    // family grid (the fine grid exercises multi-lane layer splits).
    for (const double resolution : {0.05, 0.005}) {
      const ScoreWeights weights{1.0, 1.0};
      const Allocation serial =
          select_knapsack(instance.candidates, weights, 10.0, 10, resolution);
      for (const std::size_t threads : thread_counts) {
        const Allocation par =
            select_knapsack(instance.candidates, weights, 10.0, 10,
                            resolution, {}, threads, scratch);
        if (par.selected != serial.selected ||
            !bits_equal(par.total_score, serial.total_score)) {
          std::cerr << "E7 FATAL: parallel knapsack DP diverges from serial "
                       "at n=" << n << " resolution=" << resolution
                    << " threads=" << threads << "\n";
          return false;
        }
      }
    }

    // Concave-greedy marginal scan.
    {
      const ConcaveValuation valuation(20.0);
      const ScoreWeights weights{1.0, 1.0};
      const Allocation serial =
          select_greedy_concave(instance.candidates, valuation, weights, 10);
      for (const std::size_t threads : thread_counts) {
        const Allocation par = select_greedy_concave(
            instance.candidates, valuation, weights, 10, {}, threads, scratch);
        if (par.selected != serial.selected ||
            !bits_equal(par.total_score, serial.total_score)) {
          std::cerr << "E7 FATAL: parallel concave greedy diverges from "
                       "serial at n=" << n << " threads=" << threads << "\n";
          return false;
        }
      }
    }

    // VCG externality payments (leave-one-out re-solves fanned out).
    {
      const ScoreWeights weights{10.0, 12.5};
      const std::size_t m = 10;
      const WdpSolver solver = [](const std::vector<Candidate>& c,
                                  const ScoreWeights& w, std::size_t k,
                                  const Penalties& p) {
        return select_top_m(c, w, k, p);
      };
      const Allocation alloc = select_top_m(instance.candidates, weights, m);
      const auto serial =
          vcg_payments(instance.candidates, weights, m, alloc, solver);
      for (const std::size_t threads : thread_counts) {
        const auto par = vcg_payments(instance.candidates, weights, m, alloc,
                                      solver, {}, threads, scratch);
        const bool match =
            par.size() == serial.size() &&
            std::equal(par.begin(), par.end(), serial.begin(), bits_equal);
        if (!match) {
          std::cerr << "E7 FATAL: parallel VCG payments diverge from serial "
                       "at n=" << n << " threads=" << threads << "\n";
          return false;
        }
      }
    }
  }
  std::cout << "E7: serial-vs-parallel oracle equivalence sweep OK\n";
  return true;
}

/// Console reporter that also captures every run for the JSON writer.
class CapturingReporter final : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(sfl::bench::BenchJsonWriter& writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.report_big_o ||
          run.report_rms) {
        continue;
      }
      const std::string name = run.benchmark_name();
      const std::size_t slash = name.find('/');
      sfl::bench::BenchJsonWriter::Entry entry;
      entry.benchmark = name;
      entry.variant = slash == std::string::npos ? name : name.substr(0, slash);
      if (slash != std::string::npos) {
        entry.n = static_cast<std::size_t>(
            std::strtoull(name.c_str() + slash + 1, nullptr, 10));
      }
      // Unit is microseconds for every benchmark in this file.
      entry.real_time_us = run.GetAdjustedRealTime();
      entry.iterations = static_cast<std::size_t>(run.iterations);
      writer_.add(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  sfl::bench::BenchJsonWriter& writer_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::string> json_path =
      sfl::bench::BenchJsonWriter::extract_json_path(argc, argv);
  if (!verify_sharded_equivalence()) return 1;
  if (!verify_mega_batch_equivalence()) return 1;
  if (!verify_oracle_equivalence()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  sfl::bench::BenchJsonWriter writer;
  CapturingReporter reporter(writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (json_path.has_value() && !writer.write(*json_path, "e07_scalability")) {
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
