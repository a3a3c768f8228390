#include "core/long_term_online_vcg.h"

#include <gtest/gtest.h>

#include "auction/random_instance.h"
#include "full_delivery.h"
#include "util/rng.h"

namespace sfl::core {
namespace {

using sfl::auction::Candidate;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;

LtoVcgConfig small_config() {
  LtoVcgConfig config;
  config.v_weight = 5.0;
  config.per_round_budget = 2.0;
  return config;
}

std::vector<Candidate> market() {
  return {Candidate{.id = 0, .value = 4.0, .bid = 1.0, .energy_cost = 1.0},
          Candidate{.id = 1, .value = 6.0, .bid = 2.0, .energy_cost = 1.0},
          Candidate{.id = 2, .value = 5.0, .bid = 0.5, .energy_cost = 1.0}};
}

RoundContext ctx(std::size_t m) {
  RoundContext context;
  context.max_winners = m;
  context.per_round_budget = 2.0;
  return context;
}

TEST(LtoVcgTest, ConfigValidation) {
  LtoVcgConfig config = small_config();
  config.v_weight = 0.0;
  EXPECT_THROW(LongTermOnlineVcgMechanism{config}, std::invalid_argument);
  config = small_config();
  config.per_round_budget = 0.0;
  EXPECT_THROW(LongTermOnlineVcgMechanism{config}, std::invalid_argument);
  config = small_config();
  config.energy_rates = {0.5, -1.0};
  EXPECT_THROW(LongTermOnlineVcgMechanism{config}, std::invalid_argument);
}

TEST(LtoVcgTest, InitialWeightsAreVAndV) {
  LongTermOnlineVcgMechanism mech(small_config());
  const auto weights = mech.current_weights();
  EXPECT_DOUBLE_EQ(weights.value_weight, 5.0);
  EXPECT_DOUBLE_EQ(weights.bid_weight, 5.0);  // Q(0) = 0
  EXPECT_DOUBLE_EQ(mech.budget_backlog(), 0.0);
  EXPECT_TRUE(mech.is_truthful());
  EXPECT_EQ(mech.name(), "lto-vcg");
}

TEST(LtoVcgTest, FirstRoundMatchesMyopicVcgSelection) {
  // With Q(0) = 0 the affine maximizer reduces to plain (value - bid).
  LongTermOnlineVcgMechanism mech(small_config());
  const MechanismResult result = mech.run_round(market(), ctx(2));
  // Scores*V: (4-1), (6-2), (5-0.5) -> winners ids 2 and 1.
  EXPECT_TRUE(result.won(2));
  EXPECT_TRUE(result.won(1));
  EXPECT_FALSE(result.won(0));
}

TEST(LtoVcgTest, QueueGrowsWhenOverBudgetAndTightensSelection) {
  LongTermOnlineVcgMechanism mech(small_config());
  double previous_backlog = 0.0;
  std::size_t first_round_winners = 0;
  std::size_t late_round_winners = 0;
  for (int round = 0; round < 60; ++round) {
    const MechanismResult result = mech.run_round(market(), ctx(3));
    if (round == 0) first_round_winners = result.winners.size();
    if (round == 59) late_round_winners = result.winners.size();
    mech.settle(
        full_delivery(market(), result, static_cast<std::size_t>(round)));
    previous_backlog = mech.budget_backlog();
  }
  (void)previous_backlog;
  // Unconstrained spend exceeds B-bar = 2, so the queue must engage and the
  // effective bid weight must rise above V.
  EXPECT_GT(mech.current_weights().bid_weight, 5.0);
  EXPECT_GE(first_round_winners, late_round_winners);
}

TEST(LtoVcgTest, LongRunAveragePaymentMeetsBudget) {
  LongTermOnlineVcgMechanism mech(small_config());
  double total_payment = 0.0;
  const int rounds = 3000;
  for (int round = 0; round < rounds; ++round) {
    const MechanismResult result = mech.run_round(market(), ctx(3));
    total_payment += result.total_payment();
    mech.settle(full_delivery(market(), result, 0));
  }
  // Long-term constraint: average payment <= B-bar within a small tolerance
  // (the O(V)/t transient).
  EXPECT_LE(total_payment / rounds, 2.0 + 0.1);
  // And the mechanism still buys participation (not shut down).
  EXPECT_GT(total_payment, 0.5 * rounds);
}

TEST(LtoVcgTest, PaymentsCoverBidsEveryRound) {
  LongTermOnlineVcgMechanism mech(small_config());
  sfl::util::Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 8;
    const auto instance = make_random_instance(spec, rng);
    const MechanismResult result = mech.run_round(instance.candidates, ctx(3));
    for (const auto id : result.winners) {
      EXPECT_GE(result.payment_for(id), instance.candidates[id].bid - 1e-9);
    }
    mech.settle(full_delivery(instance.candidates, result, 0));
  }
}

TEST(LtoVcgTest, PaymentRulesCoincide) {
  // Critical-value and VCG-externality payments must be identical, including
  // with a grown queue and sustainability penalties active.
  LtoVcgConfig critical_cfg = small_config();
  critical_cfg.energy_rates = std::vector<double>(3, 0.3);
  LtoVcgConfig vcg_cfg = critical_cfg;
  vcg_cfg.payment_rule = PaymentRule::kVcgExternality;
  LongTermOnlineVcgMechanism critical(critical_cfg);
  LongTermOnlineVcgMechanism vcg(vcg_cfg);
  sfl::util::Rng rng(23);
  for (int round = 0; round < 100; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 3;
    const auto instance = make_random_instance(spec, rng);
    const MechanismResult a = critical.run_round(instance.candidates, ctx(2));
    const MechanismResult b = vcg.run_round(instance.candidates, ctx(2));
    ASSERT_EQ(a.winners, b.winners) << "round " << round;
    for (std::size_t k = 0; k < a.payments.size(); ++k) {
      EXPECT_NEAR(a.payments[k], b.payments[k], 1e-9) << "round " << round;
    }
    critical.settle(full_delivery(instance.candidates, a, 0));
    vcg.settle(full_delivery(instance.candidates, a, 0));
  }
}

TEST(LtoVcgTest, SustainabilityQueuesPaceHeavyWinners) {
  // One very attractive client (high value, low cost): without Z queues it
  // wins every round; with a rate limit of 0.25 it must win at most ~25% of
  // rounds in the long run.
  LtoVcgConfig config = small_config();
  config.per_round_budget = 100.0;  // budget never binds here
  config.energy_rates = {0.25, 10.0, 10.0};
  LongTermOnlineVcgMechanism mech(config);
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 10.0, .bid = 0.1, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 2.0, .bid = 1.0, .energy_cost = 1.0},
      Candidate{.id = 2, .value = 2.0, .bid = 1.0, .energy_cost = 1.0}};
  int wins0 = 0;
  const int rounds = 2000;
  for (int round = 0; round < rounds; ++round) {
    const MechanismResult result = mech.run_round(candidates, ctx(1));
    if (result.won(0)) ++wins0;
    mech.settle(full_delivery(candidates, result, 0));
  }
  EXPECT_LT(wins0 / static_cast<double>(rounds), 0.35);
  EXPECT_GT(wins0 / static_cast<double>(rounds), 0.15);
}

TEST(LtoVcgTest, SustainabilityBacklogAccessor) {
  LtoVcgConfig config = small_config();
  config.energy_rates = {0.1, 0.1, 0.1};
  LongTermOnlineVcgMechanism mech(config);
  EXPECT_DOUBLE_EQ(mech.sustainability_backlog(0), 0.0);
  const MechanismResult result = mech.run_round(market(), ctx(3));
  mech.settle(full_delivery(market(), result, 0));
  // Winners' queues grew by e_i - r_i = 0.9.
  for (const auto id : result.winners) {
    EXPECT_NEAR(mech.sustainability_backlog(id), 0.9, 1e-12);
  }
  // Disabled-queue mechanism always reports 0.
  LongTermOnlineVcgMechanism no_queues(small_config());
  EXPECT_DOUBLE_EQ(no_queues.sustainability_backlog(0), 0.0);
}

TEST(LtoVcgTest, CandidateIdOutsideEnergyTableThrows) {
  LtoVcgConfig config = small_config();
  config.energy_rates = {0.5};  // only client 0 known
  LongTermOnlineVcgMechanism mech(config);
  EXPECT_THROW((void)mech.run_round(market(), ctx(2)), std::invalid_argument);
}

TEST(LtoVcgTest, BidProxyQueueModeStillStabilizesBudget) {
  LtoVcgConfig config = small_config();
  config.queue_arrival = QueueArrivalMode::kBidProxy;
  LongTermOnlineVcgMechanism mech(config);
  double total_payment = 0.0;
  const int rounds = 3000;
  for (int round = 0; round < rounds; ++round) {
    const MechanismResult result = mech.run_round(market(), ctx(3));
    total_payment += result.total_payment();
    mech.settle(full_delivery(market(), result, 0));
  }
  // Bids under-estimate payments, so allow a looser tolerance; the queue
  // must still prevent unbounded overspend.
  EXPECT_LE(total_payment / rounds, 2.0 * 2.5);
}

TEST(LtoVcgTest, HigherVToleratesLargerBacklog) {
  const auto final_backlog = [&](double v) {
    LtoVcgConfig config = small_config();
    config.v_weight = v;
    LongTermOnlineVcgMechanism mech(config);
    for (int round = 0; round < 2000; ++round) {
      const MechanismResult result = mech.run_round(market(), ctx(3));
      mech.settle(full_delivery(market(), result, 0));
    }
    return mech.average_budget_backlog();
  };
  EXPECT_GT(final_backlog(50.0), final_backlog(2.0));
}

}  // namespace
}  // namespace sfl::core
