#include "auction/winner_determination.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "auction/random_instance.h"
#include "auction/valuation.h"
#include "util/rng.h"

namespace sfl::auction {
namespace {

std::vector<Candidate> three_candidates() {
  // scores with unit weights: 3-1=2, 5-2=3, 1-2=-1
  return {Candidate{.id = 0, .value = 3.0, .bid = 1.0, .energy_cost = 1.0},
          Candidate{.id = 1, .value = 5.0, .bid = 2.0, .energy_cost = 1.0},
          Candidate{.id = 2, .value = 1.0, .bid = 2.0, .energy_cost = 1.0}};
}

TEST(SelectTopMTest, PicksPositiveScoresHighestFirst) {
  const ScoreWeights w{1.0, 1.0};
  const Allocation alloc = select_top_m(three_candidates(), w, 10);
  EXPECT_EQ(alloc.selected, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(alloc.total_score, 5.0);
}

TEST(SelectTopMTest, CardinalityCapBinds) {
  const ScoreWeights w{1.0, 1.0};
  const Allocation alloc = select_top_m(three_candidates(), w, 1);
  EXPECT_EQ(alloc.selected, (std::vector<std::size_t>{1}));
  EXPECT_DOUBLE_EQ(alloc.total_score, 3.0);
}

TEST(SelectTopMTest, AllNegativeScoresSelectNobody) {
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 1.0, .bid = 5.0, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 0.5, .bid = 2.0, .energy_cost = 1.0}};
  const Allocation alloc = select_top_m(candidates, {1.0, 1.0}, 5);
  EXPECT_TRUE(alloc.selected.empty());
  EXPECT_DOUBLE_EQ(alloc.total_score, 0.0);
}

TEST(SelectTopMTest, WeightsChangeTheRanking) {
  // With V=1, Q=9 (bid weight 10), candidate 0 (cheap) beats candidate 1.
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 30.0, .bid = 0.1, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 50.0, .bid = 3.0, .energy_cost = 1.0}};
  const Allocation cheap_wins = select_top_m(candidates, {1.0, 10.0}, 1);
  EXPECT_EQ(cheap_wins.selected, (std::vector<std::size_t>{0}));
  const Allocation value_wins = select_top_m(candidates, {1.0, 1.0}, 1);
  EXPECT_EQ(value_wins.selected, (std::vector<std::size_t>{1}));
}

TEST(SelectTopMTest, PenaltiesSuppressCandidates) {
  const ScoreWeights w{1.0, 1.0};
  const Penalties penalties{0.0, 10.0, 0.0};  // kill candidate 1
  const Allocation alloc = select_top_m(three_candidates(), w, 10, penalties);
  EXPECT_EQ(alloc.selected, (std::vector<std::size_t>{0}));
}

TEST(SelectTopMTest, Validation) {
  EXPECT_THROW((void)select_top_m(three_candidates(), {1.0, 0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)select_top_m(three_candidates(), {1.0, 1.0}, 1, {0.0}),
               std::invalid_argument);
  std::vector<Candidate> negative{{.id = 0, .value = -1.0, .bid = 0.0,
                                   .energy_cost = 1.0}};
  EXPECT_THROW((void)select_top_m(negative, {1.0, 1.0}, 1), std::invalid_argument);
}

TEST(SelectTopMTest, TiesBreakByClientIdNotSlateOrder) {
  // Three equal-score candidates whose ids arrive out of slate order: the
  // winner under a cap of 2 must be the two smallest ClientIds, regardless
  // of where they sit in the vector.
  std::vector<Candidate> candidates{
      Candidate{.id = 9, .value = 2.0, .bid = 1.0, .energy_cost = 1.0},
      Candidate{.id = 3, .value = 2.0, .bid = 1.0, .energy_cost = 1.0},
      Candidate{.id = 5, .value = 2.0, .bid = 1.0, .energy_cost = 1.0}};
  const Allocation alloc = select_top_m(candidates, {1.0, 1.0}, 2);
  // Indices 1 (id 3) and 2 (id 5) win; index 0 (id 9) loses the tie.
  EXPECT_EQ(alloc.selected, (std::vector<std::size_t>{1, 2}));

  // Permuting the slate must not change the winning id set.
  std::vector<Candidate> permuted{candidates[2], candidates[0], candidates[1]};
  const Allocation alloc_permuted = select_top_m(permuted, {1.0, 1.0}, 2);
  std::vector<ClientId> ids;
  for (const std::size_t index : alloc_permuted.selected) {
    ids.push_back(permuted[index].id);
  }
  EXPECT_EQ(ids, (std::vector<ClientId>{5, 3}));  // selected sorted by index
}

TEST(SelectTopMTest, PartialSelectionMatchesFullSortOnRandomInstances) {
  // The streaming top-m select must agree with a reference full sort on the
  // same (score desc, id asc, index asc) order, including at m >= n and
  // m = 0. Odd trials snap values, bids and penalties to a 1/4 grid and
  // draw ids from a small range, so scores and ids collide at every
  // tie-break level.
  sfl::util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const bool colliding = trial % 2 == 1;
    RandomInstanceSpec spec;
    spec.num_candidates = 1 + rng.uniform_index(40);
    spec.penalty_hi = trial % 4 >= 2 ? 1.0 : 0.0;
    auto instance = make_random_instance(spec, rng);
    const std::size_t n = instance.candidates.size();
    const auto snap = [](double x) { return std::round(x * 4.0) / 4.0; };
    if (colliding) {
      for (auto& candidate : instance.candidates) {
        candidate.id = rng.uniform_index(n / 2 + 1);
        candidate.value = snap(candidate.value);
        candidate.bid = snap(candidate.bid);
      }
      for (double& penalty : instance.penalties) penalty = snap(penalty);
    }
    const Penalties& penalties = instance.penalties;
    const ScoreWeights weights = colliding
                                     ? ScoreWeights{.value_weight = 1.0,
                                                    .bid_weight = 1.0}
                                     : make_random_weights(rng);
    const std::size_t m = rng.uniform_index(n + 3);

    std::vector<double> scores(n);
    for (std::size_t i = 0; i < n; ++i) {
      scores[i] = score(instance.candidates[i], weights,
                        penalty_at(penalties, i));
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      if (instance.candidates[a].id != instance.candidates[b].id) {
        return instance.candidates[a].id < instance.candidates[b].id;
      }
      return a < b;
    });
    Allocation reference;
    for (const std::size_t index : order) {
      if (reference.selected.size() >= m) break;
      if (scores[index] <= 0.0) break;
      reference.selected.push_back(index);
      reference.total_score += scores[index];
    }
    std::sort(reference.selected.begin(), reference.selected.end());

    const Allocation alloc =
        select_top_m(instance.candidates, weights, m, penalties);
    EXPECT_EQ(alloc.selected, reference.selected) << "trial " << trial;
    EXPECT_EQ(alloc.total_score, reference.total_score) << "trial " << trial;
  }
}

TEST(SelectExhaustiveTest, MatchesTopMOnModularObjective) {
  sfl::util::Rng rng(100);
  for (int trial = 0; trial < 200; ++trial) {
    RandomInstanceSpec spec;
    spec.num_candidates = 1 + rng.uniform_index(12);
    spec.penalty_hi = trial % 2 == 0 ? 0.0 : 2.0;
    const RandomInstance instance = make_random_instance(spec, rng);
    const ScoreWeights weights = make_random_weights(rng);
    const std::size_t m = 1 + rng.uniform_index(spec.num_candidates);

    const Allocation greedy =
        select_top_m(instance.candidates, weights, m, instance.penalties);
    const Allocation oracle =
        select_exhaustive(instance.candidates, weights, m, instance.penalties);
    EXPECT_NEAR(greedy.total_score, oracle.total_score, 1e-9)
        << "trial " << trial;
    EXPECT_EQ(greedy.selected, oracle.selected) << "trial " << trial;
  }
}

TEST(SelectExhaustiveTest, RefusesHugeInstances) {
  std::vector<Candidate> many(25);
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i] = Candidate{.id = i, .value = 1.0, .bid = 0.5, .energy_cost = 1.0};
  }
  EXPECT_THROW((void)select_exhaustive(many, {1.0, 1.0}, 3),
               std::invalid_argument);
}

TEST(SelectKnapsackTest, RespectsBudgetAndBeatsNothing) {
  sfl::util::Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    RandomInstanceSpec spec;
    spec.num_candidates = 1 + rng.uniform_index(10);
    const RandomInstance instance = make_random_instance(spec, rng);
    const ScoreWeights weights{1.0, 1.0};
    const double budget = rng.uniform(0.5, 6.0);
    const Allocation alloc =
        select_knapsack(instance.candidates, weights, budget, 5, 0.01);
    double bid_sum = 0.0;
    for (const std::size_t i : alloc.selected) {
      bid_sum += instance.candidates[i].bid;
    }
    // Ceil weights over-count bids, so feasibility is epsilon-tight — the
    // DP never spends more real money than the budget.
    EXPECT_LE(bid_sum, budget + 1e-9);
    EXPECT_LE(alloc.selected.size(), 5u);
    EXPECT_GE(alloc.total_score, 0.0);
  }
}

TEST(SelectKnapsackTest, ExactGridBudgetIsTight) {
  // Bids on the DP grid that exactly fill the budget must ALL be selected —
  // the discretization introduces no off-by-one at the boundary.
  const ScoreWeights w{1.0, 0.1};  // small bid weight: all scores positive
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 3.0, .bid = 0.40, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 2.0, .bid = 0.35, .energy_cost = 1.0},
      Candidate{.id = 2, .value = 1.0, .bid = 0.25, .energy_cost = 1.0}};
  const Allocation full =
      select_knapsack(candidates, w, /*budget=*/1.0, 5, /*resolution=*/0.05);
  EXPECT_EQ(full.selected, (std::vector<std::size_t>{0, 1, 2}));

  // One grid step over budget: the cheapest-to-drop candidate is excluded.
  candidates[2].bid = 0.30;  // total now 1.05 > 1.0
  const Allocation over = select_knapsack(candidates, w, 1.0, 5, 0.05);
  EXPECT_EQ(over.selected, (std::vector<std::size_t>{0, 1}));
}

TEST(SelectKnapsackTest, ZeroBidItemSelectableBelowResolution) {
  // budget < resolution discretizes to capacity 0 — but a free (zero-bid)
  // item costs nothing and must still win. The old capacity==0 early return
  // rejected it.
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 2.0, .bid = 0.0, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 5.0, .bid = 1.0, .energy_cost = 1.0}};
  const Allocation alloc =
      select_knapsack(candidates, {1.0, 1.0}, /*budget=*/0.01, 5,
                      /*resolution=*/0.05);
  EXPECT_EQ(alloc.selected, (std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(alloc.total_score, 2.0);
}

TEST(SelectKnapsackTest, MatchesExhaustiveOnSmallInstances) {
  // Exhaustive search restricted to budget-feasible subsets is the oracle.
  sfl::util::Rng rng(102);
  for (int trial = 0; trial < 60; ++trial) {
    RandomInstanceSpec spec;
    spec.num_candidates = 1 + rng.uniform_index(8);
    // Snap bids to the DP grid so discretization is exact.
    RandomInstance instance = make_random_instance(spec, rng);
    for (auto& c : instance.candidates) {
      c.bid = std::round(c.bid * 20.0) / 20.0;
    }
    const ScoreWeights weights{1.0, 1.0};
    const double budget = std::round(rng.uniform(0.5, 5.0) * 20.0) / 20.0;
    const std::size_t m = 1 + rng.uniform_index(spec.num_candidates);

    const Allocation dp =
        select_knapsack(instance.candidates, weights, budget, m, 0.05);

    // Brute force over subsets.
    const std::size_t n = instance.candidates.size();
    double best = 0.0;
    for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) > m) continue;
      double bid_sum = 0.0;
      double score_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1ULL) {
          bid_sum += instance.candidates[i].bid;
          score_sum += score(instance.candidates[i], weights);
        }
      }
      if (bid_sum <= budget + 1e-9) best = std::max(best, score_sum);
    }
    EXPECT_NEAR(dp.total_score, best, 1e-6) << "trial " << trial;
  }
}

TEST(SelectKnapsackTest, ZeroBudgetSelectsNobody) {
  const Allocation alloc =
      select_knapsack(three_candidates(), {1.0, 1.0}, 0.0, 5, 0.01);
  EXPECT_TRUE(alloc.selected.empty());
}

TEST(SelectGreedyConcaveTest, DiminishingReturnsLimitSelection) {
  const ConcaveValuation valuation(4.0);
  // Five identical candidates with mass 2 and bid 1: marginal value of the
  // k-th addition shrinks as log(1 + 2k) - log(1 + 2(k-1)).
  std::vector<Candidate> candidates(5);
  for (std::size_t i = 0; i < 5; ++i) {
    candidates[i] = Candidate{.id = i, .value = 2.0, .bid = 1.0,
                              .energy_cost = 1.0};
  }
  const Allocation alloc =
      select_greedy_concave(candidates, valuation, {1.0, 1.0}, 5);
  EXPECT_GE(alloc.selected.size(), 1u);
  EXPECT_LT(alloc.selected.size(), 5u);  // marginal value falls below bid
  EXPECT_GT(alloc.total_score, 0.0);
}

TEST(SelectGreedyConcaveTest, EmptyWhenBidsExceedAnyMarginal) {
  const ConcaveValuation valuation(1.0);
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 0.5, .bid = 10.0, .energy_cost = 1.0}};
  const Allocation alloc =
      select_greedy_concave(candidates, valuation, {1.0, 1.0}, 3);
  EXPECT_TRUE(alloc.selected.empty());
}

TEST(ValuationTest, ModularAndConcaveBasics) {
  const ModularValuation modular(2.0);
  EXPECT_DOUBLE_EQ(modular.client_value(3.0, 0.5), 3.0);
  EXPECT_THROW((void)modular.client_value(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)modular.client_value(1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(ModularValuation(0.0), std::invalid_argument);

  const ConcaveValuation concave(1.0);
  EXPECT_DOUBLE_EQ(concave.set_value(0.0), 0.0);
  EXPECT_GT(concave.marginal_value(0.0, 1.0), concave.marginal_value(5.0, 1.0));
}

TEST(ValuationTest, WelfareAccounting) {
  const auto candidates = three_candidates();
  Allocation alloc;
  alloc.selected = {0, 1};
  EXPECT_DOUBLE_EQ(reported_welfare(candidates, alloc), 5.0);
  const std::vector<double> true_costs{0.5, 2.5, 1.0};
  EXPECT_DOUBLE_EQ(true_welfare(candidates, true_costs, alloc), 5.0);
  EXPECT_THROW((void)true_welfare(candidates, {1.0}, alloc),
               std::invalid_argument);
}

}  // namespace
}  // namespace sfl::auction
