// Shard-merge exactness: for EVERY shard count the ShardedWdp engine must
// reproduce the serial select_top_m + critical_payments pair bit-for-bit —
// same selected indices, same total score, same payments — including under
// duplicate scores and duplicate ClientIds, where only the deterministic
// (score desc, ClientId asc, index asc) tie-break keeps the answer unique.
// The serial and sharded paths select through one streaming helper, so
// "matches serial" alone no longer tests the selection: FullSortOracle
// compares every shard count against an independent full-sort reference.
#include "auction/sharded_wdp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "auction/payments.h"
#include "auction/random_instance.h"
#include "auction/registry.h"
#include "auction/winner_determination.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sfl::auction {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 3, 7, 16};

struct TrialInstance {
  CandidateBatch batch;
  Penalties penalties;
};

/// Random instance with deliberate collisions: values/bids snapped to a
/// coarse grid (duplicate scores) and ids drawn with replacement from a
/// small range (duplicate ClientIds), so every tie-break level is hit.
TrialInstance make_colliding_instance(sfl::util::Rng& rng, std::size_t n,
                                      bool with_penalties) {
  TrialInstance trial;
  trial.batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double value = std::round(rng.uniform(0.0, 4.0) * 4.0) / 4.0;
    const double bid = std::round(rng.uniform(0.0, 2.0) * 4.0) / 4.0;
    const ClientId id = rng.uniform_index(n / 2 + 1);  // duplicates likely
    trial.batch.emplace(id, value, bid, 1.0);
    if (with_penalties) {
      trial.penalties.push_back(std::round(rng.uniform(0.0, 1.0) * 4.0) / 4.0);
    }
  }
  return trial;
}

void expect_round_matches_serial(const CandidateBatch& batch,
                                 const ScoreWeights& weights, std::size_t m,
                                 const Penalties& penalties,
                                 std::size_t shards, const char* label) {
  const Allocation serial = select_top_m(batch, weights, m, penalties);
  const std::vector<double> serial_payments =
      critical_payments(batch, weights, m, serial, penalties);

  const ShardedWdp engine{ShardedWdpConfig{.shards = shards}};
  RoundScratch scratch;
  engine.run_round(batch, weights, m, penalties, scratch);

  ASSERT_EQ(scratch.allocation.selected, serial.selected)
      << label << " shards=" << shards;
  EXPECT_EQ(scratch.allocation.total_score, serial.total_score)
      << label << " shards=" << shards;
  ASSERT_EQ(scratch.payments.size(), serial_payments.size())
      << label << " shards=" << shards;
  for (std::size_t k = 0; k < serial_payments.size(); ++k) {
    EXPECT_EQ(scratch.payments[k], serial_payments[k])
        << label << " shards=" << shards << " winner " << k;
  }
}

TEST(ShardedWdpTest, RandomizedEquivalenceAcrossShardCounts) {
  sfl::util::Rng rng(404);
  for (int trial = 0; trial < 60; ++trial) {
    RandomInstanceSpec spec;
    spec.num_candidates = 1 + rng.uniform_index(120);
    spec.penalty_hi = trial % 2 == 0 ? 0.0 : 2.0;
    const RandomInstance instance = make_random_instance(spec, rng);
    const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
    const ScoreWeights weights = make_random_weights(rng);
    const std::size_t m = rng.uniform_index(spec.num_candidates + 4);
    for (const std::size_t shards : kShardCounts) {
      expect_round_matches_serial(batch, weights, m, instance.penalties,
                                  shards, "random");
    }
  }
}

TEST(ShardedWdpTest, EquivalenceUnderDuplicateScoresAndClientIds) {
  sfl::util::Rng rng(405);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(80);
    const TrialInstance instance =
        make_colliding_instance(rng, n, trial % 2 == 1);
    // Unit-ish weights keep the gridded scores exactly colliding.
    const ScoreWeights weights{.value_weight = 1.0, .bid_weight = 1.0};
    const std::size_t m = 1 + rng.uniform_index(n + 2);
    for (const std::size_t shards : kShardCounts) {
      expect_round_matches_serial(instance.batch, weights, m,
                                  instance.penalties, shards, "colliding");
    }
  }
}

TEST(ShardedWdpTest, EdgeCasesMatchSerial) {
  const ScoreWeights weights{.value_weight = 1.0, .bid_weight = 1.0};
  sfl::util::Rng rng(406);
  RandomInstanceSpec spec;
  spec.num_candidates = 9;
  const RandomInstance instance = make_random_instance(spec, rng);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);

  for (const std::size_t shards : kShardCounts) {
    // m = 0, m = n, m > n.
    expect_round_matches_serial(batch, weights, 0, {}, shards, "m=0");
    expect_round_matches_serial(batch, weights, 9, {}, shards, "m=n");
    expect_round_matches_serial(batch, weights, 30, {}, shards, "m>n");

    // Empty batch.
    const CandidateBatch empty;
    const ShardedWdp engine{ShardedWdpConfig{.shards = shards}};
    RoundScratch scratch;
    engine.run_round(empty, weights, 5, {}, scratch);
    EXPECT_TRUE(scratch.allocation.selected.empty());
    EXPECT_TRUE(scratch.payments.empty());

    // All-negative scores select nobody.
    CandidateBatch losing;
    losing.emplace(0, 0.5, 3.0, 1.0);
    losing.emplace(1, 0.1, 2.0, 1.0);
    engine.run_round(losing, weights, 2, {}, scratch);
    EXPECT_TRUE(scratch.allocation.selected.empty());
  }
}

/// One round computed without the engine: score every row through the
/// shared score() expression, fully sort every index under the total order
/// (score desc, ClientId asc, index asc), take the positive top-m, and price
/// each winner at the best non-selected score clamped at 0.
struct ReferenceRound {
  std::vector<std::size_t> selected;
  double total_score = 0.0;
  std::vector<double> payments;
};

ReferenceRound full_sort_reference(const CandidateBatch& batch,
                                   const ScoreWeights& weights, std::size_t m,
                                   const Penalties& penalties) {
  const std::size_t n = batch.size();
  const std::span<const ClientId> ids = batch.ids();
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = score(values[i], bids[i], weights, penalty_at(penalties, i));
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    if (ids[a] != ids[b]) return ids[a] < ids[b];
    return a < b;
  });

  ReferenceRound round;
  std::size_t taken = 0;
  while (taken < std::min(m, n) && scores[order[taken]] > 0.0) {
    round.total_score += scores[order[taken]];
    ++taken;
  }
  const double threshold =
      taken == m && n > m ? std::max(0.0, scores[order[m]]) : 0.0;
  round.selected.assign(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(taken));
  std::sort(round.selected.begin(), round.selected.end());
  for (const std::size_t i : round.selected) {
    const double critical_bid = (weights.value_weight * values[i] -
                                 penalty_at(penalties, i) - threshold) /
                                weights.bid_weight;
    round.payments.push_back(std::max(critical_bid, bids[i]));
  }
  return round;
}

enum class SlateOrder { kShuffled, kAscending, kDescending };

/// A gridded slate with duplicate ids (make_colliding_instance) where every
/// fifth row scores exactly +0.0 or -0.0, optionally sorted by unit-weight
/// score. An ascending slate makes every row displace the worst kept one.
TrialInstance make_oracle_slate(sfl::util::Rng& rng, std::size_t n,
                                bool with_penalties, SlateOrder slate_order) {
  const TrialInstance drawn = make_colliding_instance(rng, n, with_penalties);
  struct Row {
    ClientId id;
    double value;
    double bid;
    double penalty;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < n; ++i) {
    Row row{drawn.batch.ids()[i], drawn.batch.values()[i],
            drawn.batch.bids()[i], penalty_at(drawn.penalties, i)};
    if (i % 5 == 2) {
      // value -0.0 scores -0.0 (vw * -0.0 - bw * 0.0 - 0.0); value 0.0
      // scores +0.0. Both are valid candidates and compare equal.
      row.value = i % 10 == 2 ? -0.0 : 0.0;
      row.bid = 0.0;
      row.penalty = 0.0;
    }
    rows.push_back(row);
  }
  const auto unit_score = [](const Row& row) {
    return row.value - row.bid - row.penalty;
  };
  if (slate_order == SlateOrder::kAscending) {
    std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      return unit_score(a) < unit_score(b);
    });
  } else if (slate_order == SlateOrder::kDescending) {
    std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      return unit_score(a) > unit_score(b);
    });
  }
  TrialInstance trial;
  for (const Row& row : rows) {
    trial.batch.emplace(row.id, row.value, row.bid, 1.0);
    if (with_penalties) trial.penalties.push_back(row.penalty);
  }
  return trial;
}

TEST(ShardedWdpTest, FullSortOracleMatchesEveryShardCountBitForBit) {
  sfl::util::Rng rng(409);
  const ScoreWeights unit{.value_weight = 1.0, .bid_weight = 1.0};
  // Exact on the 1/4 grid too, so scores still collide.
  const ScoreWeights scaled{.value_weight = 2.0, .bid_weight = 1.25};
  int slate = 0;
  for (const std::size_t n : {1u, 2u, 37u, 700u, 5000u}) {
    for (const SlateOrder slate_order :
         {SlateOrder::kShuffled, SlateOrder::kAscending,
          SlateOrder::kDescending}) {
      for (const bool with_penalties : {false, true}) {
        const TrialInstance instance =
            make_oracle_slate(rng, n, with_penalties, slate_order);
        const ScoreWeights& weights = slate++ % 2 == 0 ? unit : scaled;
        for (const std::size_t shards : kShardCounts) {
          const std::size_t span = std::max<std::size_t>(n / shards, 1);
          for (const std::size_t m :
               {std::size_t{0}, std::size_t{1}, span - 1, span, n, n + 3}) {
            const ReferenceRound reference = full_sort_reference(
                instance.batch, weights, m, instance.penalties);
            const ShardedWdp engine{ShardedWdpConfig{.shards = shards}};
            RoundScratch scratch;
            engine.run_round(instance.batch, weights, m, instance.penalties,
                             scratch);
            const std::string label =
                "n=" + std::to_string(n) + " slate=" + std::to_string(slate) +
                " shards=" + std::to_string(shards) +
                " m=" + std::to_string(m);
            ASSERT_EQ(scratch.allocation.selected, reference.selected)
                << label;
            EXPECT_EQ(scratch.allocation.total_score, reference.total_score)
                << label;
            EXPECT_EQ(scratch.payments, reference.payments) << label;
          }
        }
      }
    }
  }
}

TEST(ShardedWdpTest, AutoShardCountMatchesSerial) {
  sfl::util::Rng rng(407);
  RandomInstanceSpec spec;
  spec.num_candidates = 300;
  const RandomInstance instance = make_random_instance(spec, rng);
  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  const ScoreWeights weights = make_random_weights(rng);
  expect_round_matches_serial(batch, weights, 10, {}, /*shards=*/0, "auto");
}

TEST(ShardedWdpTest, ScratchOverloadsMatchAllocatingOverloads) {
  // The free-function scratch variants must agree with the allocating batch
  // overloads exactly (they share one serial engine).
  sfl::util::Rng rng(408);
  for (int trial = 0; trial < 40; ++trial) {
    RandomInstanceSpec spec;
    spec.num_candidates = 1 + rng.uniform_index(50);
    const RandomInstance instance = make_random_instance(spec, rng);
    const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
    const ScoreWeights weights = make_random_weights(rng);
    const std::size_t m = 1 + rng.uniform_index(10);

    const Allocation allocating = select_top_m(batch, weights, m);
    RoundScratch scratch;
    const Allocation& scratched = select_top_m(batch, weights, m, {}, scratch);
    ASSERT_EQ(scratched.selected, allocating.selected) << "trial " << trial;
    EXPECT_EQ(scratched.total_score, allocating.total_score);

    const std::vector<double> allocating_payments =
        critical_payments(batch, weights, m, allocating);
    const std::vector<double>& scratched_payments =
        critical_payments(batch, weights, m, {}, scratch);
    ASSERT_EQ(scratched_payments, allocating_payments) << "trial " << trial;
  }
}

TEST(ShardedWdpTest, ShardedLtoMechanismTracksSerialLtoExactly) {
  // Full-mechanism lockstep: "lto-vcg-sharded" must emit the same winners,
  // payments, and queue trajectories as "lto-vcg" round after round, with
  // settlements feeding back into the queues.
  MechanismConfig config;
  config.num_clients = 40;
  config.per_round_budget = 5.0;
  config.seed = 11;
  config.lto.pacing_rate = 0.5;

  for (const std::size_t shards : {std::size_t{3}, std::size_t{16}}) {
    config.lto.shards = shards;
    const auto serial = build_mechanism("lto-vcg", config);
    const auto sharded = build_mechanism("lto-vcg-sharded", config);
    EXPECT_EQ(sharded->name(), "lto-vcg-sharded");

    sfl::util::Rng rng(12);
    for (std::size_t round = 0; round < 60; ++round) {
      RandomInstanceSpec spec;
      spec.num_candidates = 40;
      RandomInstance instance = make_random_instance(spec, rng);
      for (std::size_t i = 0; i < instance.candidates.size(); ++i) {
        instance.candidates[i].id = i;  // ids must index the pacing table
      }
      const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
      RoundContext ctx;
      ctx.round = round;
      ctx.max_winners = 6;
      ctx.per_round_budget = config.per_round_budget;

      const MechanismResult a = serial->run_round(batch, ctx);
      const MechanismResult b = sharded->run_round(batch, ctx);
      ASSERT_EQ(a.winners, b.winners) << "shards " << shards << " round " << round;
      ASSERT_EQ(a.payments, b.payments) << "shards " << shards << " round " << round;

      RoundSettlement settlement;
      settlement.round = round;
      settlement.total_payment = a.total_payment();
      for (std::size_t w = 0; w < a.winners.size(); ++w) {
        settlement.winners.push_back(WinnerSettlement{
            .client = a.winners[w],
            .bid = instance.candidates[a.winners[w]].bid,
            .payment = a.payments[w],
            .energy_cost = instance.candidates[a.winners[w]].energy_cost,
            .dropped = false});
      }
      serial->settle(settlement);
      sharded->settle(settlement);
    }
  }
}

TEST(ThreadPoolChunkTest, StableChunkLayoutCoversEverythingOnce) {
  for (const std::size_t total : {0u, 1u, 7u, 100u, 1013u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 16u}) {
      std::vector<int> covered(total, 0);
      std::size_t previous_end = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] =
            sfl::util::ThreadPool::chunk_range(total, chunks, c);
        EXPECT_EQ(begin, previous_end);  // contiguous, in order
        previous_end = end;
        for (std::size_t i = begin; i < end; ++i) covered[i] += 1;
      }
      EXPECT_EQ(previous_end, total);
      for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(covered[i], 1);
    }
  }
}

TEST(ThreadPoolChunkTest, ParallelForChunksRunsEveryChunkExactlyOnce) {
  sfl::util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for_chunks(257, 8, [&](std::size_t /*chunk*/, std::size_t begin,
                                       std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Re-entrant second loop on the same pool works (generation tracking).
  std::atomic<int> total{0};
  pool.parallel_for_chunks(100, 16, [&](std::size_t, std::size_t begin,
                                        std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 100);
}

}  // namespace
}  // namespace sfl::auction
