#include <gtest/gtest.h>

#include <cmath>

#include "econ/bidding.h"
#include "econ/budget_tracker.h"
#include "econ/cost_model.h"
#include "econ/ledger.h"
#include "util/rng.h"

namespace sfl::econ {
namespace {

TEST(CostModelTest, CostsArePositiveAndHeterogeneous) {
  sfl::util::Rng rng(1);
  CostModelSpec spec;
  spec.base_sigma = 0.8;
  CostModel model(50, spec, {}, rng);
  const auto costs = model.draw_round(rng);
  ASSERT_EQ(costs.size(), 50u);
  double min_cost = costs[0];
  double max_cost = costs[0];
  for (const double c : costs) {
    EXPECT_GT(c, 0.0);
    min_cost = std::min(min_cost, c);
    max_cost = std::max(max_cost, c);
  }
  EXPECT_GT(max_cost / min_cost, 2.0);  // heavy-tailed heterogeneity
}

TEST(CostModelTest, TemporalPersistence) {
  // With high AR(1) persistence, consecutive costs of one client correlate;
  // with rho = 0 they do not.
  const auto lag1_correlation = [](double rho) {
    sfl::util::Rng rng(2);
    CostModelSpec spec;
    spec.base_sigma = 0.0;
    spec.ar_rho = rho;
    spec.ar_sigma = 0.3;
    CostModel model(1, spec, {}, rng);
    std::vector<double> series;
    for (int t = 0; t < 4000; ++t) {
      series.push_back(std::log(model.draw_round(rng)[0]));
    }
    double num = 0.0;
    double den = 0.0;
    double mean = 0.0;
    for (const double v : series) mean += v;
    mean /= static_cast<double>(series.size());
    for (std::size_t t = 0; t + 1 < series.size(); ++t) {
      num += (series[t] - mean) * (series[t + 1] - mean);
      den += (series[t] - mean) * (series[t] - mean);
    }
    return num / den;
  };
  EXPECT_GT(lag1_correlation(0.9), 0.8);
  EXPECT_LT(std::abs(lag1_correlation(0.0)), 0.1);
}

TEST(CostModelTest, ExpectedCostMatchesEmpiricalMean) {
  sfl::util::Rng rng(3);
  CostModelSpec spec;
  spec.base_sigma = 0.0;  // deterministic base = 1 (lognormal with sigma 0)
  spec.ar_rho = 0.5;
  spec.ar_sigma = 0.2;
  CostModel model(1, spec, {}, rng);
  constexpr int kDraws = 30000;
  double sum = 0.0;
  for (int t = 0; t < kDraws; ++t) sum += model.draw_round(rng)[0];
  EXPECT_NEAR(sum / kDraws, model.expected_cost(0), 0.01);
}

TEST(CostModelTest, SizeCostCorrelation) {
  sfl::util::Rng rng(4);
  CostModelSpec spec;
  spec.base_sigma = 0.0;
  spec.ar_sigma = 0.0;
  spec.size_cost_exponent = 1.0;
  const std::vector<double> sizes{1.0, 2.0, 3.0};  // mean 2
  CostModel model(3, spec, sizes, rng);
  EXPECT_NEAR(model.base_cost(0), 0.5, 1e-9);
  EXPECT_NEAR(model.base_cost(1), 1.0, 1e-9);
  EXPECT_NEAR(model.base_cost(2), 1.5, 1e-9);
}

TEST(CostModelTest, Validation) {
  sfl::util::Rng rng(5);
  CostModelSpec spec;
  EXPECT_THROW(CostModel(0, spec, {}, rng), std::invalid_argument);
  spec.ar_rho = 1.0;
  EXPECT_THROW(CostModel(2, spec, {}, rng), std::invalid_argument);
  spec.ar_rho = 0.5;
  spec.size_cost_exponent = 1.0;
  EXPECT_THROW(CostModel(2, spec, {1.0}, rng), std::invalid_argument);
}

TEST(BiddingTest, TruthfulReturnsCost) {
  sfl::util::Rng rng(6);
  const TruthfulStrategy s;
  EXPECT_DOUBLE_EQ(s.bid(2.5, 0, rng), 2.5);
  EXPECT_EQ(s.name(), "truthful");
}

TEST(BiddingTest, ScaledMisreportMultiplies) {
  sfl::util::Rng rng(7);
  const ScaledMisreportStrategy overbid(1.5);
  EXPECT_DOUBLE_EQ(overbid.bid(2.0, 0, rng), 3.0);
  EXPECT_DOUBLE_EQ(overbid.factor(), 1.5);
  EXPECT_EQ(overbid.name(), "misreport-x1.50");
  EXPECT_THROW(ScaledMisreportStrategy(0.0), std::invalid_argument);
}

TEST(BiddingTest, JitterStaysPositiveAndCentersOnCost) {
  sfl::util::Rng rng(8);
  const JitterStrategy jitter(0.2);
  constexpr int kDraws = 20000;
  double log_ratio_sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double b = jitter.bid(2.0, 0, rng);
    EXPECT_GT(b, 0.0);
    log_ratio_sum += std::log(b / 2.0);
  }
  // Median-unbiased in log space.
  EXPECT_NEAR(log_ratio_sum / kDraws, 0.0, 0.01);
}

TEST(BudgetTrackerTest, TracksCumulativeAndViolation) {
  BudgetTracker tracker(2.0);
  tracker.record_round(1.0);  // cum 1, allowed 2
  EXPECT_DOUBLE_EQ(tracker.cumulative_violation(), 0.0);
  tracker.record_round(5.0);  // cum 6, allowed 4
  EXPECT_DOUBLE_EQ(tracker.cumulative_violation(), 2.0);
  EXPECT_DOUBLE_EQ(tracker.peak_violation(), 2.0);
  tracker.record_round(0.0);  // cum 6, allowed 6
  EXPECT_DOUBLE_EQ(tracker.cumulative_violation(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.peak_violation(), 2.0);  // peak remembered
  EXPECT_DOUBLE_EQ(tracker.average_payment(), 2.0);
  EXPECT_NEAR(tracker.violation_round_fraction(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(tracker.rounds(), 3u);
  EXPECT_EQ(tracker.round_payments().size(), 3u);
}

TEST(BudgetTrackerTest, Validation) {
  EXPECT_THROW(BudgetTracker(-1.0), std::invalid_argument);
  BudgetTracker tracker(1.0);
  EXPECT_THROW(tracker.record_round(-0.5), std::invalid_argument);
}

TEST(UtilityLedgerTest, AccountingIdentities) {
  UtilityLedger ledger(3);
  ledger.record({.round = 0, .client = 0, .value = 5.0, .payment = 2.0,
                 .true_cost = 1.0});
  ledger.record({.round = 0, .client = 2, .value = 3.0, .payment = 1.0,
                 .true_cost = 2.0});
  ledger.record({.round = 1, .client = 0, .value = 4.0, .payment = 3.0,
                 .true_cost = 1.5});

  EXPECT_DOUBLE_EQ(ledger.client_utility(0), (2.0 - 1.0) + (3.0 - 1.5));
  EXPECT_DOUBLE_EQ(ledger.client_utility(1), 0.0);
  EXPECT_DOUBLE_EQ(ledger.client_utility(2), -1.0);
  EXPECT_EQ(ledger.participation_count(0), 2u);
  EXPECT_EQ(ledger.participation_count(1), 0u);
  EXPECT_DOUBLE_EQ(ledger.server_utility(), (5.0 - 2.0) + (3.0 - 1.0) + (4.0 - 3.0));
  EXPECT_DOUBLE_EQ(ledger.social_welfare(), 4.0 + 1.0 + 2.5);
  EXPECT_DOUBLE_EQ(ledger.total_payments(), 6.0);
  // Welfare identity: welfare = server utility + sum of client utilities.
  double client_total = 0.0;
  for (const double u : ledger.utility_vector()) client_total += u;
  EXPECT_NEAR(ledger.social_welfare(), ledger.server_utility() + client_total,
              1e-12);
  EXPECT_NEAR(ledger.individually_rational_fraction(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(ledger.entries(), 3u);
}

TEST(UtilityLedgerTest, Validation) {
  EXPECT_THROW(UtilityLedger(0), std::invalid_argument);
  UtilityLedger ledger(2);
  EXPECT_THROW(ledger.record({.round = 0, .client = 5, .value = 1.0,
                              .payment = 1.0, .true_cost = 1.0}),
               std::out_of_range);
  EXPECT_THROW(ledger.record({.round = 0, .client = 0, .value = 1.0,
                              .payment = -1.0, .true_cost = 1.0}),
               std::invalid_argument);
}

TEST(UtilityLedgerTest, ParticipationVector) {
  UtilityLedger ledger(2);
  ledger.record({.round = 0, .client = 1, .value = 1.0, .payment = 1.0,
                 .true_cost = 0.5});
  ledger.record({.round = 1, .client = 1, .value = 1.0, .payment = 1.0,
                 .true_cost = 0.5});
  const auto participation = ledger.participation_vector();
  EXPECT_DOUBLE_EQ(participation[0], 0.0);
  EXPECT_DOUBLE_EQ(participation[1], 2.0);
}

}  // namespace
}  // namespace sfl::econ
