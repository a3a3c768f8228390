// Cross-market exclusive clearing unit tests.
//
// clear_exclusive clears a MarketBatch as ONE constrained assignment: every
// client wins at most one row across the whole batch, resolved by the
// global greedy order (score desc, ClientId asc, market index asc, row
// asc), with critical payments priced against the constrained outcome.
// These tests pin the semantics on hand-built instances — who wins when
// pools overlap, the tie order, degenerate markets, individual
// rationality, the disjoint-pool degeneration to the per-market rule — the
// bit-identity of the cursor merge with the global-sort reference, and the
// input checks (weights validated before any market is scored, malformed
// appends refused). The seeded wide-coverage sweep (plus the
// conflict-resolution oracle) lives in
// tests/property/exclusivity_invariants_test.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "auction/candidate_batch.h"
#include "auction/market_batch.h"
#include "auction/round_scratch.h"
#include "auction/sharded_wdp.h"
#include "auction/types.h"
#include "util/rng.h"

namespace sfl::auction {
namespace {

// With unit weights and zero bids, a row's score is simply its value —
// hand-built expectations below read off the value column directly.
constexpr ScoreWeights kUnitWeights{.value_weight = 1.0, .bid_weight = 1.0};

CandidateBatch make_slate(
    std::initializer_list<std::pair<ClientId, double>> rows) {
  CandidateBatch slate;
  for (const auto& [id, value] : rows) slate.emplace(id, value, 0.0, 1.0);
  return slate;
}

void run_exclusive(const MarketBatch& batch, MarketBatchResult& result) {
  RoundScratch scratch;
  clear_exclusive(batch, result, scratch);
}

/// Bit-compares market k of `result` against running that market's slate
/// alone through ShardedWdp::run_round (the per-market rule).
void expect_market_matches_run_round(const CandidateBatch& slate,
                                     std::size_t max_winners,
                                     const ScoreWeights& weights,
                                     const MarketBatchResult& result,
                                     std::size_t k) {
  const ShardedWdp engine{ShardedWdpConfig{.shards = 1}};
  RoundScratch alone;
  engine.run_round(slate, weights, max_winners, {}, alone);
  const auto selected = result.selected(k);
  ASSERT_EQ(selected.size(), alone.allocation.selected.size())
      << "market " << k;
  for (std::size_t w = 0; w < selected.size(); ++w) {
    EXPECT_EQ(selected[w], alone.allocation.selected[w])
        << "market " << k << " winner " << w;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.payments(k)[w]),
              std::bit_cast<std::uint64_t>(alone.payments[w]))
        << "market " << k << " payment " << w;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.total_score(k)),
            std::bit_cast<std::uint64_t>(alone.allocation.total_score))
      << "market " << k << " total score";
}

/// Every (market, winner) pair's client, for the no-duplicate check.
std::vector<ClientId> winning_clients(const MarketBatch& batch,
                                      const MarketBatchResult& result) {
  std::vector<ClientId> clients;
  for (std::size_t k = 0; k < batch.market_count(); ++k) {
    for (const std::size_t local : result.selected(k)) {
      clients.push_back(batch.ids()[batch.market(k).offset + local]);
    }
  }
  return clients;
}

void expect_results_bit_identical(const MarketBatch& batch,
                                  const MarketBatchResult& got,
                                  const MarketBatchResult& want) {
  ASSERT_EQ(got.market_count(), want.market_count());
  for (std::size_t k = 0; k < batch.market_count(); ++k) {
    ASSERT_EQ(got.selected(k).size(), want.selected(k).size()) << "market " << k;
    for (std::size_t w = 0; w < got.selected(k).size(); ++w) {
      EXPECT_EQ(got.selected(k)[w], want.selected(k)[w])
          << "market " << k << " winner " << w;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.payments(k)[w]),
                std::bit_cast<std::uint64_t>(want.payments(k)[w]))
          << "market " << k << " payment " << w;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_score(k)),
              std::bit_cast<std::uint64_t>(want.total_score(k)))
        << "market " << k << " total score";
  }
}

TEST(ExclusiveRoundsTest, OverlappingClientWinsExactlyOnce) {
  // Client 7 tops both markets; the global greedy assigns it where its
  // score is higher (market 1, score 9) and market 0's seat falls to the
  // runner-up. Without exclusivity client 7 would win both.
  const CandidateBatch first =
      make_slate({{ClientId{7}, 5.0}, {ClientId{1}, 3.0}});
  const CandidateBatch second =
      make_slate({{ClientId{7}, 9.0}, {ClientId{2}, 4.0}});
  MarketBatch batch;
  batch.append_market(first, /*max_winners=*/1, kUnitWeights);
  batch.append_market(second, /*max_winners=*/1, kUnitWeights);

  MarketBatchResult result;
  run_exclusive(batch, result);

  ASSERT_EQ(result.selected(0).size(), 1u);
  ASSERT_EQ(result.selected(1).size(), 1u);
  EXPECT_EQ(result.selected(0)[0], 1u);  // client 1, the runner-up
  EXPECT_EQ(result.selected(1)[0], 0u);  // client 7 in its better market

  // Sanity: clearing each market alone hands client 7 both seats.
  const ShardedWdp engine{ShardedWdpConfig{.shards = 1}};
  for (const CandidateBatch* slate : {&first, &second}) {
    RoundScratch alone;
    engine.run_round(*slate, kUnitWeights, 1, {}, alone);
    ASSERT_EQ(alone.allocation.selected.size(), 1u);
    EXPECT_EQ(alone.allocation.selected[0], 0u);
  }
}

TEST(ExclusiveRoundsTest, TiesResolveByClientThenMarketOrder) {
  // Three rows, all score 6: client 3 (market 0), client 5 (market 0), and
  // client 3 again (market 1). The greedy order is (score desc, id asc,
  // market asc), so client 3's market-0 row is accepted first, its market-1
  // row is skipped as already assigned, and client 5 takes market 0's
  // second seat — market 1, whose only bidder was client 3, goes empty.
  MarketBatch batch;
  batch.append_market(make_slate({{ClientId{3}, 6.0}, {ClientId{5}, 6.0}}),
                      /*max_winners=*/2, kUnitWeights);
  batch.append_market(make_slate({{ClientId{3}, 6.0}}),
                      /*max_winners=*/1, kUnitWeights);

  MarketBatchResult result;
  run_exclusive(batch, result);

  ASSERT_EQ(result.selected(0).size(), 2u);
  EXPECT_TRUE(result.selected(1).empty());
  EXPECT_EQ(result.selected(0)[0], 0u);
  EXPECT_EQ(result.selected(0)[1], 1u);
}

TEST(ExclusiveRoundsTest, DuplicateRowsOfOneClientWinAtMostOnce) {
  // The same client holds every row of one market: exclusivity binds
  // within a market too, so it wins exactly one of its three rows.
  MarketBatch batch;
  batch.append_market(make_slate({{ClientId{4}, 3.0},
                                  {ClientId{4}, 8.0},
                                  {ClientId{4}, 5.0}}),
                      /*max_winners=*/3, kUnitWeights);

  MarketBatchResult result;
  run_exclusive(batch, result);

  ASSERT_EQ(result.selected(0).size(), 1u);
  EXPECT_EQ(result.selected(0)[0], 1u);  // its best row
}

TEST(ExclusiveRoundsTest, DegenerateMarketsTakeNoSeats) {
  // An empty market and an m=0 market ride along without perturbing their
  // siblings or claiming any assignment.
  MarketBatch batch;
  batch.append_market(CandidateBatch{}, /*max_winners=*/2, kUnitWeights);
  batch.append_market(make_slate({{ClientId{1}, 2.0}}), /*max_winners=*/0,
                      kUnitWeights);
  batch.append_market(make_slate({{ClientId{1}, 2.0}, {ClientId{2}, 1.0}}),
                      /*max_winners=*/5, kUnitWeights);  // m >= n

  MarketBatchResult result;
  run_exclusive(batch, result);

  EXPECT_TRUE(result.selected(0).empty());
  EXPECT_TRUE(result.selected(1).empty());
  ASSERT_EQ(result.selected(2).size(), 2u);
  const std::vector<ClientId> clients = winning_clients(batch, result);
  EXPECT_EQ(std::set<ClientId>(clients.begin(), clients.end()).size(),
            clients.size());
}

TEST(ExclusiveRoundsTest, DisjointPoolsDegenerateToPerMarketClearing) {
  // With no client shared between markets the exclusivity constraint never
  // binds, and the documented payment rule degenerates to the per-market
  // best-loser threshold — every market must equal its own run_round bit
  // for bit.
  sfl::util::Rng rng(424242);
  MarketBatch batch;
  std::vector<CandidateBatch> slates;
  std::vector<std::size_t> winners;
  std::vector<ScoreWeights> weights;
  ClientId next_id{0};
  for (std::size_t k = 0; k < 6; ++k) {
    CandidateBatch slate;
    const std::size_t rows = 1 + rng.uniform_index(12);
    for (std::size_t i = 0; i < rows; ++i) {
      slate.emplace(next_id, rng.uniform(0.0, 20.0), rng.uniform(0.0, 5.0),
                    rng.uniform(0.1, 2.0));
      next_id = static_cast<ClientId>(static_cast<std::size_t>(next_id) + 1);
    }
    winners.push_back(1 + rng.uniform_index(4));
    weights.push_back(ScoreWeights{.value_weight = rng.uniform(1.0, 10.0),
                                   .bid_weight = rng.uniform(1.0, 10.0)});
    batch.append_market(slate, winners.back(), weights.back());
    slates.push_back(std::move(slate));
  }

  MarketBatchResult exclusive;
  run_exclusive(batch, exclusive);
  for (std::size_t k = 0; k < slates.size(); ++k) {
    expect_market_matches_run_round(slates[k], winners[k], weights[k],
                                    exclusive, k);
  }
}

TEST(ExclusiveRoundsTest, CursorMergeMatchesGlobalSortReference) {
  // Seeded overlapping-pool batches: the production cursor merge must
  // reproduce the global-sort reference greedy bit for bit, and no client
  // may win twice.
  for (const std::uint64_t seed : {1u, 2u, 3u, 17u, 99u}) {
    sfl::util::Rng rng(seed);
    MarketBatch batch;
    const std::size_t markets = 2 + rng.uniform_index(7);
    for (std::size_t k = 0; k < markets; ++k) {
      CandidateBatch slate;
      const std::size_t rows = rng.uniform_index(30);
      Penalties penalties;
      const bool with_penalties = rng.bernoulli(0.5);
      for (std::size_t i = 0; i < rows; ++i) {
        // A small id pool forces heavy cross-market overlap.
        slate.emplace(ClientId{rng.uniform_index(20)}, rng.uniform(0.0, 30.0),
                      rng.uniform(0.0, 8.0), rng.uniform(0.1, 2.0));
        if (with_penalties) penalties.push_back(rng.uniform(0.0, 6.0));
      }
      batch.append_market(slate, rng.uniform_index(6),
                          ScoreWeights{.value_weight = rng.uniform(1.0, 15.0),
                                       .bid_weight = rng.uniform(1.0, 15.0)},
                          penalties);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));

    MarketBatchResult reference;
    RoundScratch reference_scratch;
    clear_exclusive_reference(batch, reference, reference_scratch);
    const std::vector<ClientId> clients = winning_clients(batch, reference);
    EXPECT_EQ(std::set<ClientId>(clients.begin(), clients.end()).size(),
              clients.size())
        << "a client won two seats";

    MarketBatchResult merged;
    run_exclusive(batch, merged);
    expect_results_bit_identical(batch, merged, reference);
  }
}

TEST(ExclusiveRoundsTest, PaymentsAreIndividuallyRational) {
  sfl::util::Rng rng(777);
  MarketBatch batch;
  for (std::size_t k = 0; k < 5; ++k) {
    CandidateBatch slate;
    for (std::size_t i = 0; i < 15; ++i) {
      slate.emplace(ClientId{rng.uniform_index(12)}, rng.uniform(0.0, 25.0),
                    rng.uniform(0.0, 6.0), 1.0);
    }
    batch.append_market(slate, 3,
                        ScoreWeights{.value_weight = 8.0, .bid_weight = 4.0});
  }

  MarketBatchResult result;
  run_exclusive(batch, result);
  for (std::size_t k = 0; k < batch.market_count(); ++k) {
    const auto selected = result.selected(k);
    const auto payments = result.payments(k);
    for (std::size_t w = 0; w < selected.size(); ++w) {
      const double bid = batch.bids()[batch.market(k).offset + selected[w]];
      EXPECT_GE(payments[w], bid) << "market " << k << " winner " << w;
    }
  }
}

TEST(ExclusiveRoundsTest, BadWeightsThrowBeforeAnyMarketIsScored) {
  // Both clears validate every market's weights BEFORE touching the
  // result: a malformed market throws std::invalid_argument and a
  // previously computed result arena survives unmodified
  // (exception-atomicity).
  sfl::util::Rng rng(8805);
  const auto make_batch = [&rng](const ScoreWeights& last_weights) {
    MarketBatch batch;
    for (std::size_t k = 0; k < 4; ++k) {
      CandidateBatch slate;
      Penalties penalties;
      for (std::size_t i = 0; i < 8; ++i) {
        slate.emplace(ClientId{100 * k + i}, rng.uniform(5.0, 50.0),
                      rng.uniform(0.0, 4.0), rng.uniform(0.1, 4.0));
        penalties.push_back(rng.uniform(0.0, 1.0));
      }
      batch.append_market(slate, 3, k == 3 ? last_weights : kUnitWeights,
                          penalties);
    }
    return batch;
  };

  const MarketBatch good = make_batch(kUnitWeights);
  const ScoreWeights bad_weights[] = {
      {.value_weight = std::numeric_limits<double>::infinity(),
       .bid_weight = 1.0},
      {.value_weight = 1.0,
       .bid_weight = std::numeric_limits<double>::quiet_NaN()},
      // bid_weight <= 0 breaks the critical-payment division.
      {.value_weight = 1.0, .bid_weight = 0.0},
      {.value_weight = -1.0, .bid_weight = 1.0},
  };
  using Clear = void (*)(const MarketBatch&, MarketBatchResult&,
                         RoundScratch&);
  for (const Clear clear : {Clear{&clear_exclusive},
                            Clear{&clear_exclusive_reference}}) {
    MarketBatchResult result;
    RoundScratch scratch;
    clear(good, result, scratch);
    const std::vector<std::size_t> before(result.selected(2).begin(),
                                          result.selected(2).end());
    ASSERT_FALSE(before.empty());
    const double payment = result.payments(2)[0];

    for (const ScoreWeights& weights : bad_weights) {
      const MarketBatch bad = make_batch(weights);
      EXPECT_THROW(clear(bad, result, scratch), std::invalid_argument);
      // Exception-atomic: the result still holds the last good clear.
      ASSERT_EQ(result.market_count(), good.market_count());
      ASSERT_EQ(result.selected(2).size(), before.size());
      for (std::size_t w = 0; w < before.size(); ++w) {
        EXPECT_EQ(result.selected(2)[w], before[w]);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.payments(2)[0]),
                std::bit_cast<std::uint64_t>(payment));
    }
  }
}

TEST(ExclusiveRoundsTest, BadAppendThrowsAndLeavesTheBatchUnchanged) {
  // Penalties must be empty or one per row; a mismatch is refused at
  // append time, before any row enters the arena.
  MarketBatch batch;
  const CandidateBatch slate =
      make_slate({{ClientId{1}, 4.0}, {ClientId{2}, 2.0}, {ClientId{3}, 1.0}});
  batch.append_market(slate, 1, kUnitWeights);
  const std::vector<double> short_penalties(2, 1.0);
  EXPECT_THROW(batch.append_market(slate, 1, kUnitWeights, short_penalties),
               std::invalid_argument);
  EXPECT_EQ(batch.market_count(), 1u);
  EXPECT_EQ(batch.total_rows(), slate.size());
  EXPECT_EQ(batch.market_penalties(0), nullptr);
}

}  // namespace
}  // namespace sfl::auction
