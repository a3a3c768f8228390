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
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "auction/payments.h"
#include "auction/random_instance.h"
#include "auction/round_scratch.h"
#include "auction/sharded_wdp.h"
#include "auction/valuation.h"
#include "auction/winner_determination.h"
#include "bench_common.h"
#include "util/config.h"
#include "util/rng.h"

namespace {

using namespace sfl::auction;

/// Full-scale N for the top-m benches; smoke runs shrink it so CI finishes
/// in seconds.
std::int64_t scal_max_n() {
  return sfl::util::fast_mode_enabled() ? 10'000 : 1'000'000;
}

/// N grid of the full-round families: decades from `smallest` up to
/// scal_max_n(), plus 20k and 50k where they fit — the rows that place the
/// serial/sharded crossover behind kMinAutoSpan (auction/sharded_wdp.cpp).
std::vector<std::int64_t> full_round_sizes(std::int64_t smallest) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = smallest; n <= scal_max_n(); n *= 10) {
    sizes.push_back(n);
  }
  for (const std::int64_t n : {20'000, 50'000}) {
    if (n <= scal_max_n()) sizes.push_back(n);
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

void full_round_args(benchmark::internal::Benchmark* bench) {
  for (const std::int64_t n : full_round_sizes(100)) bench->Arg(n);
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
// The streaming top-m select makes one full round O(n) on a typical slate.
BENCHMARK(BM_TopMWithCriticalPayments)
    ->RangeMultiplier(10)
    ->Range(100, scal_max_n())
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

void BM_TopMWithCriticalPaymentsBatchSoA(benchmark::State& state) {
  // The allocating batch path: SoA scoring + streaming top-m selection +
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
    ->Apply(full_round_args)
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
    ->ArgsProduct({full_round_sizes(10'000), {2, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

void BM_FullRoundShardedAuto(benchmark::State& state) {
  // shards=0: serial below 8192 rows per hardware thread, one shard per
  // hardware thread above (kMinAutoSpan in auction/sharded_wdp.cpp).
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
    ->Apply(full_round_args)
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
  }
  std::cout << "E7: serial-vs-sharded equivalence sweep OK\n";
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
