#include "auction/adaptive_price.h"

#include <gtest/gtest.h>

#include "auction/random_instance.h"
#include "util/rng.h"

namespace sfl::auction {
namespace {

AdaptivePriceConfig default_config() {
  AdaptivePriceConfig config;
  config.initial_price = 1.0;
  config.step = 0.05;
  return config;
}

/// A settlement that reports only the round's total spend (the price step
/// reads nothing else while the round is open).
RoundSettlement spend(double total_payment) {
  RoundSettlement settlement;
  settlement.total_payment = total_payment;
  return settlement;
}

RoundContext ctx(std::size_t m, double budget) {
  RoundContext context;
  context.max_winners = m;
  context.per_round_budget = budget;
  return context;
}

TEST(AdaptivePriceTest, ConfigValidation) {
  AdaptivePriceConfig config = default_config();
  config.initial_price = 0.0;
  EXPECT_THROW(AdaptivePostedPriceMechanism{config}, std::invalid_argument);
  config = default_config();
  config.step = 1.0;
  EXPECT_THROW(AdaptivePostedPriceMechanism{config}, std::invalid_argument);
  config = default_config();
  config.max_price = config.min_price / 2.0;
  EXPECT_THROW(AdaptivePostedPriceMechanism{config}, std::invalid_argument);
}

TEST(AdaptivePriceTest, AcceptsOnlyBidsAtOrBelowPrice) {
  AdaptivePostedPriceMechanism mech(default_config());
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 3.0, .bid = 0.8, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 5.0, .bid = 1.2, .energy_cost = 1.0}};
  const MechanismResult result = mech.run_round(candidates, ctx(5, 10.0));
  EXPECT_TRUE(result.won(0));
  EXPECT_FALSE(result.won(1));
  EXPECT_DOUBLE_EQ(result.payment_for(0), 1.0);
}

TEST(AdaptivePriceTest, PriceFallsAfterOverspendRisesAfterUnderspend) {
  AdaptivePostedPriceMechanism mech(default_config());
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 1.0, .bid = 0.5, .energy_cost = 1.0}};
  (void)mech.run_round(candidates, ctx(1, 2.0));  // sets last budget
  mech.settle(spend(100.0));
  EXPECT_DOUBLE_EQ(mech.current_price(), 0.95);
  (void)mech.run_round(candidates, ctx(1, 2.0));
  mech.settle(spend(0.0));
  EXPECT_NEAR(mech.current_price(), 0.95 * 1.05, 1e-12);
}

TEST(AdaptivePriceTest, PriceStaysWithinBounds) {
  AdaptivePriceConfig config = default_config();
  config.min_price = 0.5;
  config.max_price = 2.0;
  AdaptivePostedPriceMechanism mech(config);
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 1.0, .bid = 0.1, .energy_cost = 1.0}};
  for (int i = 0; i < 100; ++i) {
    (void)mech.run_round(candidates, ctx(1, 1.0));
    mech.settle(spend(100.0));  // always overspending
  }
  EXPECT_DOUBLE_EQ(mech.current_price(), 0.5);
  for (int i = 0; i < 200; ++i) {
    (void)mech.run_round(candidates, ctx(1, 1.0));
    mech.settle(spend(0.0));  // always underspending
  }
  EXPECT_DOUBLE_EQ(mech.current_price(), 2.0);
}

TEST(AdaptivePriceTest, TracksBudgetInAStationaryMarket) {
  // Costs ~ U[0.2, 1.8], 30 clients, m = 10, budget 4: the price should
  // settle so that average spend hovers near the budget.
  AdaptivePostedPriceMechanism mech(default_config());
  sfl::util::Rng rng(77);
  double total_payment = 0.0;
  const int rounds = 3000;
  for (int round = 0; round < rounds; ++round) {
    std::vector<Candidate> candidates(30);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      candidates[i] = Candidate{.id = i,
                                .value = 2.0,
                                .bid = rng.uniform(0.2, 1.8),
                                .energy_cost = 1.0};
    }
    const MechanismResult result = mech.run_round(candidates, ctx(10, 4.0));
    total_payment += result.total_payment();
    mech.settle(spend(result.total_payment()));
  }
  const double average = total_payment / rounds;
  EXPECT_GT(average, 2.5);
  EXPECT_LT(average, 5.5);
}

TEST(AdaptivePriceTest, RequiresFiniteBudget) {
  AdaptivePostedPriceMechanism mech(default_config());
  RoundContext context;  // infinite budget
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 1.0, .bid = 0.5, .energy_cost = 1.0}};
  EXPECT_THROW((void)mech.run_round(candidates, context), std::invalid_argument);
}

TEST(AdaptivePriceTest, PostedPriceRemainsTruthful) {
  // Whatever the price trajectory, per-round payments are bid-independent:
  // a client with cost <= price cannot gain by misreporting.
  AdaptivePostedPriceMechanism mech(default_config());
  EXPECT_TRUE(mech.is_truthful());
  sfl::util::Rng rng(88);
  for (int trial = 0; trial < 100; ++trial) {
    RandomInstanceSpec spec;
    spec.num_candidates = 6;
    const RandomInstance instance = make_random_instance(spec, rng);
    const RoundContext context = ctx(6, 5.0);
    const MechanismResult truthful = mech.run_round(instance.candidates, context);
    for (std::size_t target = 0; target < instance.candidates.size(); ++target) {
      const double cost = instance.candidates[target].bid;
      const double truthful_utility =
          truthful.won(target) ? truthful.payment_for(target) - cost : 0.0;
      for (const double factor : {0.4, 0.9, 1.3, 2.5}) {
        std::vector<Candidate> shaded = instance.candidates;
        shaded[target].bid = factor * cost;
        const MechanismResult deviated = mech.run_round(shaded, context);
        const double deviated_utility =
            deviated.won(target) ? deviated.payment_for(target) - cost : 0.0;
        EXPECT_LE(deviated_utility, truthful_utility + 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace sfl::auction
