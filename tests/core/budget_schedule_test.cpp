// Time-varying budget schedules in the LTO-VCG mechanism.
#include <gtest/gtest.h>

#include "full_delivery.h"
#include "core/long_term_online_vcg.h"
#include "core/market_simulation.h"

namespace sfl::core {
namespace {

using sfl::auction::Candidate;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;

TEST(BudgetScheduleTest, RejectsNonPositiveScheduledBudgets) {
  LtoVcgConfig config;
  config.v_weight = 5.0;
  config.per_round_budget = 2.0;
  config.budget_schedule = {3.0, 0.0};
  EXPECT_THROW(LongTermOnlineVcgMechanism{config}, std::invalid_argument);
}

TEST(BudgetScheduleTest, AveragePaymentTracksScheduleMean) {
  // Alternating 2 / 10 budget: the long-term constraint is the mean (6).
  LtoVcgConfig config;
  config.v_weight = 10.0;
  config.per_round_budget = 6.0;  // used for weights; service comes from schedule
  config.budget_schedule = {2.0, 10.0};
  LongTermOnlineVcgMechanism mech(config);

  const std::vector<Candidate> market{
      Candidate{.id = 0, .value = 6.0, .bid = 1.0, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 5.0, .bid = 1.2, .energy_cost = 1.0},
      Candidate{.id = 2, .value = 7.0, .bid = 0.8, .energy_cost = 1.0},
      Candidate{.id = 3, .value = 4.0, .bid = 1.5, .energy_cost = 1.0}};
  RoundContext context;
  context.max_winners = 4;
  context.per_round_budget = 6.0;

  double total_payment = 0.0;
  const std::size_t rounds = 4000;
  for (std::size_t round = 0; round < rounds; ++round) {
    context.round = round;
    const MechanismResult result = mech.run_round(market, context);
    total_payment += result.total_payment();
    mech.settle(full_delivery(market, result, round));
  }
  const double average = total_payment / static_cast<double>(rounds);
  // Unconstrained spend for this market is far above 6; the schedule must
  // pin the average near its mean.
  EXPECT_LE(average, 6.0 * 1.05);
  EXPECT_GE(average, 6.0 * 0.7);
}

TEST(BudgetScheduleTest, ConstantScheduleMatchesPlainBudget) {
  LtoVcgConfig plain;
  plain.v_weight = 8.0;
  plain.per_round_budget = 3.0;
  LtoVcgConfig scheduled = plain;
  scheduled.budget_schedule = {3.0};  // constant schedule, same value

  LongTermOnlineVcgMechanism a(plain);
  LongTermOnlineVcgMechanism b(scheduled);
  const std::vector<Candidate> market{
      Candidate{.id = 0, .value = 6.0, .bid = 1.0, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 5.0, .bid = 1.2, .energy_cost = 1.0}};
  RoundContext context;
  context.max_winners = 2;
  context.per_round_budget = 3.0;

  for (std::size_t round = 0; round < 500; ++round) {
    context.round = round;
    const MechanismResult ra = a.run_round(market, context);
    const MechanismResult rb = b.run_round(market, context);
    ASSERT_EQ(ra.winners, rb.winners) << round;
    ASSERT_EQ(ra.payments, rb.payments) << round;
    a.settle(full_delivery(market, ra, round));
    b.settle(full_delivery(market, ra, round));
  }
  EXPECT_DOUBLE_EQ(a.budget_backlog(), b.budget_backlog());
}

TEST(BudgetScheduleTest, SpendFollowsThePhases) {
  // With a strongly asymmetric 1/11 schedule, the queue drains enough in
  // rich phases to admit more winners right after them than in the middle
  // of a long poor stretch.
  LtoVcgConfig config;
  config.v_weight = 4.0;
  config.per_round_budget = 6.0;
  config.budget_schedule = {1.0, 1.0, 1.0, 1.0, 1.0, 25.0};
  LongTermOnlineVcgMechanism mech(config);

  const std::vector<Candidate> market{
      Candidate{.id = 0, .value = 6.0, .bid = 1.0, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 5.0, .bid = 1.2, .energy_cost = 1.0},
      Candidate{.id = 2, .value = 7.0, .bid = 0.8, .energy_cost = 1.0}};
  RoundContext context;
  context.max_winners = 3;
  context.per_round_budget = 6.0;

  double total = 0.0;
  const std::size_t rounds = 6000;
  for (std::size_t round = 0; round < rounds; ++round) {
    context.round = round;
    const MechanismResult result = mech.run_round(market, context);
    total += result.total_payment();
    mech.settle(full_delivery(market, result, round));
  }
  // Mean of the schedule is 5: long-run average spend respects it.
  EXPECT_LE(total / static_cast<double>(rounds), 5.0 * 1.05);
}

}  // namespace
}  // namespace sfl::core
