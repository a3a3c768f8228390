#include "core/market_simulation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "auction/baselines.h"
#include "core/long_term_online_vcg.h"
#include "forwarding_mechanism.h"

namespace sfl::core {
namespace {

MarketSpec small_market() {
  MarketSpec spec;
  spec.num_clients = 30;
  spec.rounds = 300;
  spec.max_winners = 5;
  spec.per_round_budget = 3.0;
  spec.seed = 11;
  return spec;
}

LtoVcgConfig lto_config(const MarketSpec& spec) {
  LtoVcgConfig config;
  config.v_weight = 10.0;
  config.per_round_budget = spec.per_round_budget;
  return config;
}

TEST(MarketSimulationTest, ProducesConsistentSeries) {
  const MarketSpec spec = small_market();
  LongTermOnlineVcgMechanism mech(lto_config(spec));
  const MarketResult result = run_market(mech, spec);
  EXPECT_EQ(result.rounds, 300u);
  EXPECT_EQ(result.welfare_series.size(), 300u);
  EXPECT_EQ(result.payment_series.size(), 300u);
  EXPECT_EQ(result.client_utilities.size(), 30u);
  EXPECT_EQ(result.mechanism_name, "lto-vcg");

  double welfare_sum = 0.0;
  for (const double w : result.welfare_series) welfare_sum += w;
  EXPECT_NEAR(welfare_sum, result.cumulative_welfare, 1e-6);

  double payment_sum = 0.0;
  for (const double p : result.payment_series) payment_sum += p;
  EXPECT_NEAR(payment_sum, result.cumulative_payment, 1e-6);
  EXPECT_NEAR(result.cumulative_payment_series.back(), payment_sum, 1e-6);
}

TEST(MarketSimulationTest, SameSeedIsExactlyReproducible) {
  const MarketSpec spec = small_market();
  LongTermOnlineVcgMechanism a(lto_config(spec));
  LongTermOnlineVcgMechanism b(lto_config(spec));
  const MarketResult ra = run_market(a, spec);
  const MarketResult rb = run_market(b, spec);
  EXPECT_EQ(ra.welfare_series, rb.welfare_series);
  EXPECT_EQ(ra.payment_series, rb.payment_series);
  EXPECT_EQ(ra.client_utilities, rb.client_utilities);
}

TEST(MarketSimulationTest, QueueDiagnosticsReachLtoThroughDecorator) {
  // run_market reads the final and average Q through
  // Mechanism::underlying(), so a forwarding decorator (perfbench's probe
  // wraps LTO-VCG this way) must report the unwrapped run's backlogs.
  const MarketSpec spec = small_market();
  LongTermOnlineVcgMechanism plain(lto_config(spec));
  ForwardingMechanism wrapped(
      std::make_unique<LongTermOnlineVcgMechanism>(lto_config(spec)));
  const MarketResult want = run_market(plain, spec);
  const MarketResult got = run_market(wrapped, spec);
  EXPECT_NE(want.final_budget_backlog, 0.0);
  EXPECT_NE(want.average_budget_backlog, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.final_budget_backlog),
            std::bit_cast<std::uint64_t>(got.final_budget_backlog));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.average_budget_backlog),
            std::bit_cast<std::uint64_t>(got.average_budget_backlog));
  EXPECT_EQ(want.payment_series, got.payment_series);
}

TEST(MarketSimulationTest, LtoVcgIsIrAndBudgetStable) {
  MarketSpec spec = small_market();
  spec.rounds = 2000;
  LongTermOnlineVcgMechanism mech(lto_config(spec));
  const MarketResult result = run_market(mech, spec);
  EXPECT_DOUBLE_EQ(result.ir_fraction, 1.0);
  // Long-term budget: the time-average payment approaches B-bar from above
  // only within the O(V)/t transient.
  EXPECT_LE(result.average_payment, spec.per_round_budget * 1.1);
  EXPECT_GT(result.average_payment, 0.0);
}

TEST(MarketSimulationTest, MyopicVcgOverspendsTheSameMarket) {
  MarketSpec spec = small_market();
  spec.rounds = 1000;
  sfl::auction::MyopicVcgMechanism myopic;
  const MarketResult myopic_result = run_market(myopic, spec);
  LongTermOnlineVcgMechanism lto(lto_config(spec));
  const MarketResult lto_result = run_market(lto, spec);
  // The myopic mechanism ignores the budget and spends far more.
  EXPECT_GT(myopic_result.average_payment, spec.per_round_budget * 1.5);
  EXPECT_GT(myopic_result.cumulative_budget_violation,
            lto_result.cumulative_budget_violation * 5.0);
}

TEST(MarketSimulationTest, FirstBestOracleDominatesWelfare) {
  MarketSpec spec = small_market();
  spec.rounds = 500;
  sfl::auction::FirstBestOracleMechanism oracle;
  const MarketResult oracle_result = run_market(oracle, spec);
  LongTermOnlineVcgMechanism lto(lto_config(spec));
  const MarketResult lto_result = run_market(lto, spec);
  sfl::auction::RandomSelectionMechanism random(1.0, 3);
  const MarketResult random_result = run_market(random, spec);
  // Per-round welfare-optimal selection upper-bounds everyone.
  EXPECT_GE(oracle_result.cumulative_welfare, lto_result.cumulative_welfare - 1e-6);
  EXPECT_GT(lto_result.cumulative_welfare, random_result.cumulative_welfare);
}

TEST(MarketSimulationTest, StrategyTableIsRespected) {
  MarketSpec spec = small_market();
  spec.rounds = 50;
  StrategyTable strategies(spec.num_clients);
  for (auto& s : strategies) s = std::make_shared<econ::TruthfulStrategy>();
  strategies[0] = std::make_shared<econ::ScaledMisreportStrategy>(100.0);
  LongTermOnlineVcgMechanism mech(lto_config(spec));
  const MarketResult result = run_market(mech, spec, strategies);
  // Bidding 100x cost prices client 0 out of every auction.
  EXPECT_DOUBLE_EQ(result.participation_counts[0], 0.0);
  EXPECT_THROW((void)run_market(mech, spec, StrategyTable(3)),
               std::invalid_argument);
}

TEST(MarketSimulationTest, DeviationUtilityPeaksAtTruth) {
  MarketSpec spec = small_market();
  spec.rounds = 400;
  const auto utility_at = [&](double factor) {
    LongTermOnlineVcgMechanism mech(lto_config(spec));
    return deviation_utility(mech, spec, 4, factor);
  };
  const double truthful = utility_at(1.0);
  for (const double factor : {0.5, 0.8, 1.3, 2.0}) {
    EXPECT_LE(utility_at(factor), truthful + 1e-6) << "factor " << factor;
  }
}

TEST(MarketSimulationTest, PayAsBidRewardsOverbiddingSomewhere) {
  // The non-truthful baseline: some client has a moderate overbid factor
  // that beats truth-telling (paired seeds make this deterministic).
  MarketSpec spec = small_market();
  spec.rounds = 400;
  const auto utility_at = [&](std::size_t client, double factor) {
    sfl::auction::PayAsBidGreedyMechanism mech;
    return deviation_utility(mech, spec, client, factor);
  };
  bool profitable_deviation_found = false;
  for (std::size_t client = 0; client < 8 && !profitable_deviation_found;
       ++client) {
    const double truthful = utility_at(client, 1.0);
    for (const double factor : {1.05, 1.1, 1.2, 1.4}) {
      if (utility_at(client, factor) > truthful + 1e-9) {
        profitable_deviation_found = true;
        break;
      }
    }
  }
  EXPECT_TRUE(profitable_deviation_found);
}

TEST(MarketSimulationTest, Validation) {
  MarketSpec spec = small_market();
  spec.num_clients = 0;
  sfl::auction::MyopicVcgMechanism mech;
  EXPECT_THROW((void)run_market(mech, spec), std::invalid_argument);
  spec = small_market();
  spec.rounds = 0;
  EXPECT_THROW((void)run_market(mech, spec), std::invalid_argument);
  spec = small_market();
  EXPECT_THROW((void)deviation_utility(mech, spec, 99, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace sfl::core
