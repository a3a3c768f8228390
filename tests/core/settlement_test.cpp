// The settlement protocol: settle(RoundSettlement) carries the per-winner
// detail the queues need, keeps dropout accounting exact, and applies each
// auction round at most once however often it is retried.
#include <gtest/gtest.h>

#include "auction/adaptive_price.h"
#include "auction/random_instance.h"
#include "core/long_term_online_vcg.h"
#include "full_delivery.h"
#include "util/rng.h"

namespace sfl::core {
namespace {

using sfl::auction::Candidate;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;
using sfl::auction::RoundSettlement;
using sfl::auction::WinnerSettlement;

LtoVcgConfig paced_config() {
  LtoVcgConfig config;
  config.v_weight = 6.0;
  config.per_round_budget = 2.5;
  config.energy_rates.assign(10, 0.3);
  return config;
}

TEST(SettlementTest, DroppedWinnersAreUnpaidButStillPaced) {
  // A dropped winner contributes no realized payment to Q but still charges
  // its Z queue: pacing bounds selection frequency, not delivery.
  LtoVcgConfig config = paced_config();
  LongTermOnlineVcgMechanism mech(config);

  RoundSettlement settlement;
  settlement.round = 0;
  settlement.winners = {
      WinnerSettlement{.client = 2, .bid = 1.0, .payment = 1.5,
                       .energy_cost = 1.0, .dropped = false},
      WinnerSettlement{.client = 5, .bid = 0.8, .payment = 0.0,
                       .energy_cost = 1.0, .dropped = true}};
  settlement.total_payment = 1.5;  // delivered winners only

  EXPECT_DOUBLE_EQ(settlement.total_bid(), 1.8);
  EXPECT_EQ(settlement.delivered_count(), 1u);

  mech.settle(settlement);
  // Q arrival 1.5 - service 2.5 -> clamped at 0.
  EXPECT_DOUBLE_EQ(mech.budget_backlog(), 0.0);
  // Both Z queues grew by e - r = 0.7, dropped or not.
  EXPECT_NEAR(mech.sustainability_backlog(2), 0.7, 1e-12);
  EXPECT_NEAR(mech.sustainability_backlog(5), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(mech.sustainability_backlog(0), 0.0);
}

TEST(SettlementTest, SettleIsIdempotentPerRound) {
  // A caller that retries a settlement must not push the same round into
  // the queues twice. The twin mechanism settles exactly once per round
  // and the two must stay bit-identical.
  LtoVcgConfig config = paced_config();
  LongTermOnlineVcgMechanism once(config);
  LongTermOnlineVcgMechanism doubled(config);

  sfl::util::Rng rng(2718);
  for (std::size_t round = 0; round < 50; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 10;
    const auto instance = make_random_instance(spec, rng);
    RoundContext ctx;
    ctx.round = round;
    ctx.max_winners = 3;

    const MechanismResult a = once.run_round(instance.candidates, ctx);
    const MechanismResult b = doubled.run_round(instance.candidates, ctx);
    ASSERT_EQ(a.winners, b.winners);

    const RoundSettlement settlement =
        full_delivery(instance.candidates, a, round);
    once.settle(settlement);
    // The settlement, then two retries of it. Only the first may apply.
    doubled.settle(settlement);
    doubled.settle(settlement);
    doubled.settle(settlement);

    ASSERT_EQ(once.budget_backlog(), doubled.budget_backlog())
        << "round " << round;
    for (std::size_t client = 0; client < 10; ++client) {
      ASSERT_EQ(once.sustainability_backlog(client),
                doubled.sustainability_backlog(client))
          << "round " << round << " client " << client;
    }
  }
}

TEST(SettlementTest, UnstampedSettleOncePerRoundStillApplies) {
  // Legacy drivers never stamp RoundSettlement::round (it stays 0 every
  // round); one settlement per run_round must keep applying regardless —
  // the unstamped mechanism must track a properly-stamped twin exactly.
  LtoVcgConfig config = paced_config();
  LongTermOnlineVcgMechanism stamped(config);
  LongTermOnlineVcgMechanism unstamped(config);

  sfl::util::Rng rng(99);
  for (std::size_t round = 0; round < 60; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 8;
    const auto instance = make_random_instance(spec, rng);
    RoundContext ctx;
    ctx.round = round;
    ctx.max_winners = 3;
    const MechanismResult a = stamped.run_round(instance.candidates, ctx);
    const MechanismResult b = unstamped.run_round(instance.candidates, ctx);
    ASSERT_EQ(a.winners, b.winners) << "round " << round;

    stamped.settle(full_delivery(instance.candidates, a, round));
    unstamped.settle(full_delivery(instance.candidates, b, 0));

    ASSERT_EQ(stamped.budget_backlog(), unstamped.budget_backlog())
        << "round " << round;
    for (std::size_t client = 0; client < 10; ++client) {
      ASSERT_EQ(stamped.sustainability_backlog(client),
                unstamped.sustainability_backlog(client))
          << "round " << round << " client " << client;
    }
  }
}

TEST(SettlementTest, AdaptivePriceRetriedSettleStepsPriceOnce) {
  // A retried settlement must move the posted price exactly once, whatever
  // round stamps the reports carry; an empty-round report (the no-auction
  // path, which never calls run_round) still steps the price.
  sfl::auction::AdaptivePriceConfig config;
  sfl::auction::AdaptivePostedPriceMechanism once(config);
  sfl::auction::AdaptivePostedPriceMechanism retried(config);

  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 3.0, .bid = 0.6, .energy_cost = 1.0}};
  RoundContext ctx;
  ctx.max_winners = 1;
  ctx.per_round_budget = 1.0;

  for (std::size_t round = 0; round < 30; ++round) {
    ctx.round = round;
    const MechanismResult a = once.run_round(candidates, ctx);
    (void)retried.run_round(candidates, ctx);

    once.settle(full_delivery(candidates, a, round));
    retried.settle(full_delivery(candidates, a, 0));  // unstamped report
    // Stamped retry: the stamps disagree, so it must be caught as a
    // duplicate by the open-round flag, not by the stamp.
    retried.settle(full_delivery(candidates, a, round));

    ASSERT_EQ(once.current_price(), retried.current_price())
        << "round " << round;
  }

  const double before = retried.current_price();
  retried.settle(RoundSettlement{});  // empty round: no winners, no spend
  EXPECT_GT(retried.current_price(), before);
}

TEST(SettlementTest, SettlementOutsideEnergyTableThrows) {
  LtoVcgConfig config = paced_config();  // clients 0..9
  LongTermOnlineVcgMechanism mech(config);
  RoundSettlement settlement;
  settlement.winners = {WinnerSettlement{.client = 10, .bid = 1.0,
                                         .payment = 1.0, .energy_cost = 1.0,
                                         .dropped = false}};
  settlement.total_payment = 1.0;
  EXPECT_THROW(mech.settle(settlement), std::invalid_argument);
}

}  // namespace
}  // namespace sfl::core
