// Property-test harness for the cross-market exclusivity invariant.
//
// A seeded generator produces adversarial MarketBatch instances — heavily
// overlapping client pools, exact score ties, duplicate rows of one client,
// zero/negative scores, empty markets, m >= n — and each one is cleared
// three independent ways:
//
//  1. clear_exclusive_reference, the global-sort greedy;
//  2. clear_exclusive, the production cursor merge;
//  3. an ITERATIVE CONFLICT-RESOLUTION oracle that never sees the global
//     greedy: clear every market independently (top-m over its eligible
//     rows), find the client holding seats in several markets (or several
//     rows of one market), pin its globally-best winning row, strike its
//     other rows from the batch, and re-clear until no client holds two
//     seats. Under the strict global order (score desc, ClientId asc,
//     global row asc) this deferred-acceptance style fixed point is the
//     same assignment the one-pass greedy produces — computed by a
//     different algorithm, so a shared bug in the production paths cannot
//     hide.
//
// Checked per instance: all three agree on winners bit-for-bit; payments
// agree bitwise across the two clears and match an independent
// recomputation of
// the documented pricing rule (best unassigned loser per market, clamped
// at 0); no client wins two seats anywhere; every payment is individually
// rational (>= the winning bid).
//
// Reproducing failures: every trial logs its seed; run
//   <binary> --seed=N
// to replay exactly that instance. Failing seeds are appended to
// exclusivity_failure_seeds.txt (CI artifact, same protocol as the other
// property suites). SFL_EXCLUSIVITY_TRIALS overrides the trial count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "auction/candidate_batch.h"
#include "auction/market_batch.h"
#include "auction/round_scratch.h"
#include "auction/types.h"
#include "util/rng.h"
#include "util/simd.h"

namespace sfl {
namespace {

using auction::CandidateBatch;
using auction::ClientId;
using auction::MarketBatch;
using auction::MarketBatchResult;
using auction::Penalties;
using auction::RoundScratch;
using auction::ScoreWeights;

std::optional<std::uint64_t> g_fixed_seed;  // --seed=N
std::vector<std::uint64_t> g_failed_seeds;  // written to the artifact

std::size_t trial_count() {
  if (g_fixed_seed.has_value()) return 1;
  if (const char* env = std::getenv("SFL_EXCLUSIVITY_TRIALS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 400;
}

std::uint64_t trial_seed(std::size_t trial) {
  return g_fixed_seed.value_or(static_cast<std::uint64_t>(trial));
}

void record_failure(std::uint64_t seed) {
  for (const std::uint64_t s : g_failed_seeds) {
    if (s == seed) return;
  }
  g_failed_seeds.push_back(seed);
}

// ---------------------------------------------------------------------------
// Adversarial instance generator.
// ---------------------------------------------------------------------------

/// Five families, chosen by seed so --seed=N replays the family with the
/// draws: typical overlap, exact score ties (coarse value/bid grids),
/// duplicate rows per client, zero/negative-score heavy, and degenerate
/// markets (empty slates, m = 0, m >= n) mixed in.
MarketBatch make_exclusive_instance(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x3c1f0e5ULL);
  const std::uint64_t family = seed % 5;

  MarketBatch batch;
  const std::size_t markets = 1 + rng.uniform_index(8);
  // A small id pool forces heavy cross-market overlap.
  const std::size_t id_pool = 1 + rng.uniform_index(24);
  for (std::size_t k = 0; k < markets; ++k) {
    CandidateBatch slate;
    Penalties penalties;
    std::size_t rows = rng.uniform_index(36);
    if (family == 4 && rng.bernoulli(0.4)) rows = 0;  // empty market
    const bool with_penalties = rng.bernoulli(0.4);
    for (std::size_t i = 0; i < rows; ++i) {
      double value = rng.uniform(0.0, 30.0);
      double bid = rng.uniform(0.0, 10.0);
      if (family == 1) {
        // Coarse grids: exact score ties across rows AND markets.
        value = static_cast<double>(rng.uniform_index(5));
        bid = 0.5 * static_cast<double>(rng.uniform_index(3));
      }
      if (family == 3 && rng.bernoulli(0.5)) value = 0.0;  // score <= 0
      ClientId id{rng.uniform_index(id_pool)};
      if (family == 2 && i > 0 && rng.bernoulli(0.4)) {
        id = slate.ids()[rng.uniform_index(i)];  // duplicate row
      }
      slate.emplace(id, value, bid, rng.uniform(0.1, 2.0));
      if (with_penalties) penalties.push_back(rng.uniform(0.0, 8.0));
    }
    std::size_t max_winners = rng.uniform_index(7);
    if (family == 4 && rng.bernoulli(0.3)) max_winners = rows + 3;  // m >= n
    ScoreWeights weights{.value_weight = rng.uniform(1.0, 12.0),
                         .bid_weight = rng.uniform(1.0, 12.0)};
    if (family == 1) weights = ScoreWeights{.value_weight = 2.0,
                                            .bid_weight = 2.0};
    batch.append_market(slate, max_winners, weights, penalties);
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Iterative conflict-resolution oracle.
// ---------------------------------------------------------------------------

struct OracleOutcome {
  /// Per market: winning GLOBAL row indices, ascending.
  std::vector<std::vector<std::size_t>> selected;
  std::vector<std::vector<double>> payments;
};

/// Clears the batch without the one-pass global greedy: repeated
/// independent per-market top-m clears with deferred-acceptance conflict
/// resolution (see the file comment). Payments are recomputed from the
/// documented rule against the final assignment, with the same score
/// kernel and FP expression shape as the clears so agreement is bitwise.
OracleOutcome conflict_resolution_oracle(const MarketBatch& batch) {
  const std::size_t total = batch.total_rows();
  const std::size_t markets = batch.market_count();
  const std::span<const ClientId> ids = batch.ids();
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();

  // Scores, same kernel as the clears.
  std::vector<double> scores(total, 0.0);
  for (std::size_t k = 0; k < markets; ++k) {
    const auto& view = batch.market(k);
    if (view.count == 0) continue;
    util::simd::score_span(values.data() + view.offset,
                           bids.data() + view.offset,
                           batch.market_penalties(k),
                           scores.data() + view.offset, view.count,
                           view.weights.value_weight,
                           view.weights.bid_weight);
  }

  // The strict global order every clear derives from.
  const auto better = [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    if (ids[a] != ids[b]) return ids[a] < ids[b];
    return a < b;
  };

  std::vector<bool> eligible(total, true);
  std::vector<bool> pinned(total, false);  // permanently assigned rows

  // One market's independent clear over its eligible rows: top-capacity in
  // the strict order, positive scores only, at most one seat per client
  // (the within-market face of the exclusivity constraint).
  const auto clear_market = [&](std::size_t k) {
    std::vector<std::size_t> winners;
    const auto& view = batch.market(k);
    const std::size_t capacity = std::min(view.max_winners, view.count);
    std::vector<std::size_t> rows;
    for (std::size_t i = view.offset; i < view.offset + view.count; ++i) {
      if (eligible[i] && scores[i] > 0.0) rows.push_back(i);
    }
    std::sort(rows.begin(), rows.end(), better);
    std::set<ClientId> seated;
    for (const std::size_t row : rows) {
      if (winners.size() >= capacity) break;
      if (!seated.insert(ids[row]).second) continue;
      winners.push_back(row);
    }
    return winners;
  };

  std::vector<std::vector<std::size_t>> selected(markets);
  while (true) {
    for (std::size_t k = 0; k < markets; ++k) selected[k] = clear_market(k);

    // Every client's winning rows across the whole batch.
    std::vector<std::size_t> winning_rows;
    for (const auto& rows : selected) {
      winning_rows.insert(winning_rows.end(), rows.begin(), rows.end());
    }
    std::sort(winning_rows.begin(), winning_rows.end(), better);

    // The earliest (in global order) not-yet-pinned multi-seat client keeps
    // that row; its other rows are struck everywhere and the affected
    // markets re-clear on the next sweep.
    bool resolved_one = false;
    for (std::size_t i = 0; i < winning_rows.size() && !resolved_one; ++i) {
      const std::size_t best_row = winning_rows[i];
      if (pinned[best_row]) continue;
      std::size_t seats = 0;
      for (const std::size_t row : winning_rows) {
        if (ids[row] == ids[best_row]) ++seats;
      }
      if (seats < 2) continue;
      pinned[best_row] = true;
      for (std::size_t row = 0; row < total; ++row) {
        if (row != best_row && ids[row] == ids[best_row]) {
          eligible[row] = false;
        }
      }
      resolved_one = true;
    }
    if (!resolved_one) break;  // fixed point: nobody holds two seats
  }

  // Final-assignment bookkeeping for the pricing rule.
  std::set<ClientId> assigned;
  for (const auto& rows : selected) {
    for (const std::size_t row : rows) assigned.insert(ids[row]);
  }

  OracleOutcome outcome;
  outcome.selected.resize(markets);
  outcome.payments.resize(markets);
  for (std::size_t k = 0; k < markets; ++k) {
    const auto& view = batch.market(k);
    std::sort(selected[k].begin(), selected[k].end());
    outcome.selected[k] = selected[k];

    // Documented rule: the threshold is the best score in k among rows
    // whose client ends the batch unassigned anywhere, clamped at 0.
    double threshold = 0.0;
    for (std::size_t i = view.offset; i < view.offset + view.count; ++i) {
      if (scores[i] <= threshold) continue;
      if (assigned.contains(ids[i])) continue;
      threshold = scores[i];
    }
    const double vw = view.weights.value_weight;
    const double bw = view.weights.bid_weight;
    const double* const penalties = batch.market_penalties(k);
    for (const std::size_t row : selected[k]) {
      const double penalty =
          penalties == nullptr ? 0.0 : penalties[row - view.offset];
      const double critical_bid = (vw * values[row] - penalty - threshold) / bw;
      outcome.payments[k].push_back(std::max(critical_bid, bids[row]));
    }
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Per-instance invariant suite.
// ---------------------------------------------------------------------------

/// Clears via the global-sort reference, checks it against the oracle and
/// the IR/no-duplicate invariants, then checks the cursor merge against the
/// reference. Returns false (and logs) on any violation.
bool check_instance(std::uint64_t seed) {
  const MarketBatch batch = make_exclusive_instance(seed);
  bool ok = true;
  const auto fail = [&](const std::string& what) {
    ADD_FAILURE() << "seed " << seed << ": " << what;
    ok = false;
  };

  MarketBatchResult reference;
  RoundScratch reference_scratch;
  auction::clear_exclusive_reference(batch, reference, reference_scratch);

  // No client holds two seats anywhere in the batch.
  std::set<ClientId> winners_seen;
  for (std::size_t k = 0; k < batch.market_count(); ++k) {
    for (const std::size_t local : reference.selected(k)) {
      const ClientId id = batch.ids()[batch.market(k).offset + local];
      if (!winners_seen.insert(id).second) {
        fail("client " + std::to_string(id) + " won two seats");
      }
    }
  }

  // Winners and payments agree with the conflict-resolution oracle.
  const OracleOutcome oracle = conflict_resolution_oracle(batch);
  for (std::size_t k = 0; k < batch.market_count(); ++k) {
    const auto& view = batch.market(k);
    const auto selected = reference.selected(k);
    const auto payments = reference.payments(k);
    if (selected.size() != oracle.selected[k].size()) {
      fail("market " + std::to_string(k) + " winner count diverges from the "
           "conflict-resolution oracle");
      continue;
    }
    for (std::size_t w = 0; w < selected.size(); ++w) {
      if (selected[w] + view.offset != oracle.selected[k][w]) {
        fail("market " + std::to_string(k) + " winner " + std::to_string(w) +
             " diverges from the conflict-resolution oracle");
      }
      if (std::bit_cast<std::uint64_t>(payments[w]) !=
          std::bit_cast<std::uint64_t>(oracle.payments[k][w])) {
        fail("market " + std::to_string(k) + " payment " + std::to_string(w) +
             " diverges from the documented pricing rule");
      }
      const double bid = batch.bids()[view.offset + selected[w]];
      if (payments[w] < bid) {
        fail("market " + std::to_string(k) + " winner " + std::to_string(w) +
             " paid below its bid");
      }
    }
  }

  // The cursor merge must reproduce the reference bit for bit.
  MarketBatchResult merged;
  RoundScratch scratch;
  auction::clear_exclusive(batch, merged, scratch);
  for (std::size_t k = 0; k < batch.market_count(); ++k) {
    const auto got = merged.selected(k);
    const auto want = reference.selected(k);
    if (got.size() != want.size() ||
        !std::equal(got.begin(), got.end(), want.begin())) {
      fail("market " + std::to_string(k) +
           " merge winners diverge from the reference");
      continue;
    }
    for (std::size_t w = 0; w < got.size(); ++w) {
      if (std::bit_cast<std::uint64_t>(merged.payments(k)[w]) !=
          std::bit_cast<std::uint64_t>(reference.payments(k)[w])) {
        fail("market " + std::to_string(k) + " merge payment " +
             std::to_string(w) + " diverges from the reference");
      }
    }
    if (std::bit_cast<std::uint64_t>(merged.total_score(k)) !=
        std::bit_cast<std::uint64_t>(reference.total_score(k))) {
      fail("market " + std::to_string(k) +
           " merge total score diverges from the reference");
    }
  }
  return ok;
}

TEST(ExclusivityInvariantsTest, BothClearsAgreeWithTheOracleOnEveryInstance) {
  const std::size_t trials = trial_count();
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = trial_seed(trial);
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (!check_instance(seed)) record_failure(seed);
  }
}

}  // namespace
}  // namespace sfl

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr const char* kSeedFlag = "--seed=";
    if (arg.rfind(kSeedFlag, 0) == 0) {
      sfl::g_fixed_seed = std::strtoull(
          arg.c_str() + std::string(kSeedFlag).size(), nullptr, 10);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  const int result = RUN_ALL_TESTS();
  if (!sfl::g_failed_seeds.empty()) {
    std::ofstream out("exclusivity_failure_seeds.txt", std::ios::app);
    std::cerr << "\nexclusivity property failures; reproduce each with:\n";
    for (const std::uint64_t seed : sfl::g_failed_seeds) {
      out << seed << "\n";
      std::cerr << "  property_exclusivity_invariants_test --seed=" << seed
                << "\n";
    }
    std::cerr << "(seeds appended to exclusivity_failure_seeds.txt)\n";
  }
  return result;
}
