#include "auction/candidate_batch.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "auction/payments.h"
#include "auction/random_instance.h"
#include "auction/registry.h"
#include "auction/winner_determination.h"
#include "util/rng.h"

namespace sfl::auction {
namespace {

TEST(CandidateBatchTest, FromAosPreservesEveryField) {
  sfl::util::Rng rng(11);
  RandomInstanceSpec spec;
  spec.num_candidates = 17;
  const auto instance = make_random_instance(spec, rng);

  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  ASSERT_EQ(batch.size(), instance.candidates.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Candidate& expected = instance.candidates[i];
    EXPECT_EQ(batch.ids()[i], expected.id);
    EXPECT_EQ(batch.values()[i], expected.value);
    EXPECT_EQ(batch.bids()[i], expected.bid);
    EXPECT_EQ(batch.energy_costs()[i], expected.energy_cost);
    const Candidate gathered = batch.at(i);
    EXPECT_EQ(gathered.id, expected.id);
    EXPECT_EQ(gathered.value, expected.value);
    EXPECT_EQ(gathered.bid, expected.bid);
    EXPECT_EQ(gathered.energy_cost, expected.energy_cost);
  }
}

TEST(CandidateBatchTest, RejectsNonFiniteFields) {
  // +inf or NaN in any economic field must fail at the input boundary: an
  // infinite value breaks the critical-payment order, and an infinite
  // energy cost turns a zero Z-queue penalty into NaN.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {kInf, kNaN}) {
    CandidateBatch batch;
    EXPECT_THROW(batch.emplace(0, bad, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(batch.emplace(0, 2.0, bad, 1.0), std::invalid_argument);
    EXPECT_THROW(batch.emplace(0, 2.0, 1.0, bad), std::invalid_argument);
    EXPECT_THROW(batch.push_back(Candidate{
                     .id = 0, .value = bad, .bid = 1.0, .energy_cost = 1.0}),
                 std::invalid_argument);
    const std::vector<Candidate> slate{
        Candidate{.id = 0, .value = 2.0, .bid = 1.0, .energy_cost = 1.0},
        Candidate{.id = 1, .value = 2.0, .bid = 1.0, .energy_cost = bad}};
    EXPECT_THROW((void)CandidateBatch::from_aos(slate), std::invalid_argument);
    EXPECT_TRUE(batch.empty());  // nothing half-appended
  }
  CandidateBatch batch;
  EXPECT_THROW(batch.emplace(0, 2.0, -kInf, 1.0), std::invalid_argument);
  batch.emplace(0, 2.0, 1.0, 1.0);
  EXPECT_NO_THROW(validate_batch(batch));
}

TEST(CandidateBatchTest, EmplaceAndClear) {
  CandidateBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.emplace(3, 2.0, 1.0, 0.5);
  batch.push_back(Candidate{.id = 1, .value = 4.0, .bid = 2.0, .energy_cost = 1.5});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ids()[0], 3u);
  EXPECT_EQ(batch.ids()[1], 1u);
  EXPECT_DOUBLE_EQ(batch.values()[1], 4.0);
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

TEST(CandidateBatchTest, SelectTopMMatchesAosBitForBit) {
  // The SoA scoring loop must reproduce the AoS path exactly: same selected
  // indices and the same (not merely close) total score, with and without
  // penalties, across random instances and winner caps.
  sfl::util::Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    RandomInstanceSpec spec;
    spec.num_candidates = 1 + rng.uniform_index(60);
    spec.penalty_hi = trial % 2 == 0 ? 0.0 : 2.0;
    const auto instance = make_random_instance(spec, rng);
    const ScoreWeights weights = make_random_weights(rng);
    const std::size_t m = 1 + rng.uniform_index(12);

    const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
    const Allocation aos =
        select_top_m(instance.candidates, weights, m, instance.penalties);
    const Allocation soa = select_top_m(batch, weights, m, instance.penalties);
    ASSERT_EQ(aos.selected, soa.selected) << "trial " << trial;
    EXPECT_EQ(aos.total_score, soa.total_score) << "trial " << trial;

    const auto aos_payments = critical_payments(instance.candidates, weights, m,
                                                aos, instance.penalties);
    const auto soa_payments =
        critical_payments(batch, weights, m, soa, instance.penalties);
    ASSERT_EQ(aos_payments.size(), soa_payments.size());
    for (std::size_t k = 0; k < aos_payments.size(); ++k) {
      EXPECT_EQ(aos_payments[k], soa_payments[k]) << "trial " << trial;
    }

    const MechanismResult aos_result =
        make_result(instance.candidates, aos, aos_payments);
    const MechanismResult soa_result = make_result(batch, soa, soa_payments);
    EXPECT_EQ(aos_result.winners, soa_result.winners);
    EXPECT_EQ(aos_result.payments, soa_result.payments);
  }
}

TEST(CandidateBatchTest, DefaultAdapterMatchesAosForEveryRegistryMechanism) {
  // Running a mechanism through the base AoS adapter must give the same
  // winners and payments as the batch entry point every rule implements.
  // Randomized rules need twin instances so both paths see the same stream.
  MechanismConfig config;
  config.num_clients = 12;
  config.per_round_budget = 5.0;
  config.seed = 5;
  config.lto.pacing_rate = 0.4;

  sfl::util::Rng rng(23);
  for (const std::string& name : MechanismRegistry::global().names()) {
    const auto via_aos = build_mechanism(name, config);
    const auto via_batch = build_mechanism(name, config);
    for (int round = 0; round < 20; ++round) {
      RandomInstanceSpec spec;
      spec.num_candidates = 12;
      const auto instance = make_random_instance(spec, rng);
      const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
      RoundContext ctx;
      ctx.round = static_cast<std::size_t>(round);
      ctx.max_winners = 4;
      ctx.per_round_budget = config.per_round_budget;

      const MechanismResult aos = via_aos->run_round(instance.candidates, ctx);
      const MechanismResult soa = via_batch->run_round(batch, ctx);
      ASSERT_EQ(aos.winners, soa.winners) << name << " round " << round;
      ASSERT_EQ(aos.payments, soa.payments) << name << " round " << round;

      // Keep stateful mechanisms' queues in lockstep.
      RoundSettlement settlement;
      settlement.round = static_cast<std::size_t>(round);
      settlement.total_payment = aos.total_payment();
      for (std::size_t w = 0; w < aos.winners.size(); ++w) {
        settlement.winners.push_back(
            WinnerSettlement{.client = aos.winners[w],
                             .bid = instance.candidates[aos.winners[w]].bid,
                             .payment = aos.payments[w],
                             .energy_cost =
                                 instance.candidates[aos.winners[w]].energy_cost,
                             .dropped = false});
      }
      via_aos->settle(settlement);
      via_batch->settle(settlement);
    }
  }
}

}  // namespace
}  // namespace sfl::auction
