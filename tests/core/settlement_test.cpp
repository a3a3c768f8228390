// The settlement protocol: settle(RoundSettlement) carries the per-winner
// detail the queues need, keeps dropout accounting exact, and applies each
// auction round at most once however often it is retried.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

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

/// Q and every Z of `mech` as bit patterns: an exact queue-state snapshot.
std::vector<std::uint64_t> queue_state(const LongTermOnlineVcgMechanism& mech,
                                       std::size_t clients) {
  std::vector<std::uint64_t> state{
      std::bit_cast<std::uint64_t>(mech.budget_backlog())};
  for (std::size_t client = 0; client < clients; ++client) {
    state.push_back(
        std::bit_cast<std::uint64_t>(mech.sustainability_backlog(client)));
  }
  return state;
}

TEST(SettlementTest, RejectedSettlementMovesNoQueue) {
  // settle() validates every field before touching a queue: a report whose
  // SECOND winner (or whose Q arrival) is malformed throws with Q and every
  // Z bit-unchanged, and the corrected retry then applies exactly once — as
  // on a twin that only ever saw the corrected report.
  struct BadField {
    const char* name;
    QueueArrivalMode mode;
    void (*corrupt)(RoundSettlement&);
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<BadField> cases{
      {"negative energy cost", QueueArrivalMode::kRealizedPayment,
       [](RoundSettlement& s) { s.winners[1].energy_cost = -1.0; }},
      {"NaN energy cost", QueueArrivalMode::kRealizedPayment,
       [](RoundSettlement& s) { s.winners[1].energy_cost = kNaN; }},
      {"infinite energy cost", QueueArrivalMode::kRealizedPayment,
       [](RoundSettlement& s) { s.winners[1].energy_cost = kInf; }},
      {"winner outside the energy table", QueueArrivalMode::kRealizedPayment,
       [](RoundSettlement& s) { s.winners[1].client = 10; }},
      {"negative payment", QueueArrivalMode::kRealizedPayment,
       [](RoundSettlement& s) { s.total_payment = -1.0; }},
      {"NaN payment", QueueArrivalMode::kRealizedPayment,
       [](RoundSettlement& s) { s.total_payment = kNaN; }},
      {"infinite payment", QueueArrivalMode::kRealizedPayment,
       [](RoundSettlement& s) { s.total_payment = kInf; }},
      {"NaN bid under the bid proxy", QueueArrivalMode::kBidProxy,
       [](RoundSettlement& s) { s.winners[1].bid = kNaN; }},
  };
  for (const BadField& bad_field : cases) {
    SCOPED_TRACE(bad_field.name);
    LtoVcgConfig config = paced_config();
    config.queue_arrival = bad_field.mode;
    LongTermOnlineVcgMechanism mech(config);
    LongTermOnlineVcgMechanism twin(config);

    // Warm both up so Q and several Z queues hold non-zero backlogs.
    sfl::util::Rng rng(31);
    for (std::size_t round = 0; round < 20; ++round) {
      sfl::auction::RandomInstanceSpec spec;
      const auto instance = make_random_instance(spec, rng);
      RoundContext ctx;
      ctx.round = round;
      ctx.max_winners = 3;
      const MechanismResult a = mech.run_round(instance.candidates, ctx);
      (void)twin.run_round(instance.candidates, ctx);
      mech.settle(full_delivery(instance.candidates, a, round));
      twin.settle(full_delivery(instance.candidates, a, round));
    }
    RoundContext ctx;
    ctx.round = 20;
    ctx.max_winners = 3;
    const std::vector<Candidate> slate{
        Candidate{.id = 2, .value = 3.0, .bid = 1.0, .energy_cost = 1.0},
        Candidate{.id = 5, .value = 3.0, .bid = 0.8, .energy_cost = 0.5}};
    (void)mech.run_round(slate, ctx);
    (void)twin.run_round(slate, ctx);

    RoundSettlement good;
    good.round = 20;
    good.winners = {
        WinnerSettlement{.client = 2, .bid = 1.0, .payment = 1.5,
                         .energy_cost = 1.0, .dropped = false},
        WinnerSettlement{.client = 5, .bid = 0.8, .payment = 1.2,
                         .energy_cost = 0.5, .dropped = false}};
    good.total_payment = 2.7;
    RoundSettlement bad = good;
    bad_field.corrupt(bad);

    const std::vector<std::uint64_t> before = queue_state(mech, 10);
    ASSERT_EQ(before, queue_state(twin, 10));
    EXPECT_THROW(mech.settle(bad), std::invalid_argument);
    EXPECT_EQ(queue_state(mech, 10), before);

    mech.settle(good);
    twin.settle(good);
    EXPECT_NE(queue_state(twin, 10), before);
    EXPECT_EQ(queue_state(mech, 10), queue_state(twin, 10));
    mech.settle(good);  // a retry of the applied report is dropped
    EXPECT_EQ(queue_state(mech, 10), queue_state(twin, 10));
  }
}

TEST(SettlementTest, SparseSlatesCatchUpLikeFullSlates) {
  // Clients missing from a round's slate are not read that round; their Z
  // queues catch up on the next read, possibly dozens of rounds later. The
  // twin clears full slates whose extra rows can never win (value 0, so a
  // negative score), which reads every queue every round. The two must
  // agree bit for bit on the outcome and on every queue after every round.
  constexpr std::size_t kClients = 200;
  LtoVcgConfig config;
  config.v_weight = 6.0;
  config.per_round_budget = 2.5;
  config.energy_rates.resize(kClients);
  sfl::util::Rng rng(4242);
  for (double& rate : config.energy_rates) {
    rate = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.01, 0.2);
  }
  LongTermOnlineVcgMechanism sparse(config);
  LongTermOnlineVcgMechanism full(config);

  std::size_t sparse_rounds_left = 0;
  for (std::size_t round = 0; round < 400; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = kClients;
    auto instance = make_random_instance(spec, rng);
    for (Candidate& c : instance.candidates) {
      c.energy_cost = rng.uniform(0.2, 2.0);
    }
    // One full slate, then a run of 1-40 slates of ~10% of the pool.
    const bool full_round = sparse_rounds_left == 0;
    sparse_rounds_left =
        full_round ? 1 + rng.uniform_index(40) : sparse_rounds_left - 1;
    std::vector<Candidate> slate;
    std::vector<Candidate> padded;
    for (const Candidate& c : instance.candidates) {
      if (full_round || rng.bernoulli(0.1)) {
        slate.push_back(c);
        padded.push_back(c);
      } else {
        Candidate never_wins = c;
        never_wins.value = 0.0;
        padded.push_back(never_wins);
      }
    }

    RoundContext ctx;
    ctx.round = round;
    ctx.max_winners = 5;
    const MechanismResult a = sparse.run_round(slate, ctx);
    const MechanismResult b = full.run_round(padded, ctx);
    ASSERT_EQ(a.winners, b.winners) << "round " << round;
    ASSERT_EQ(a.payments, b.payments) << "round " << round;
    // Winners are client ids, which index the pool.
    sparse.settle(full_delivery(instance.candidates, a, round));
    full.settle(full_delivery(instance.candidates, b, round));
    ASSERT_EQ(queue_state(sparse, kClients), queue_state(full, kClients))
        << "round " << round;
  }
  // The schedule really paced someone: some queue is still backlogged.
  double max_backlog = 0.0;
  for (std::size_t client = 0; client < kClients; ++client) {
    max_backlog = std::max(max_backlog, sparse.sustainability_backlog(client));
  }
  EXPECT_GT(max_backlog, 0.0);
}

}  // namespace
}  // namespace sfl::core
