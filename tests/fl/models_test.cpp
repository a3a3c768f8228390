#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "data/synthetic.h"
#include "fl/linear_regression.h"
#include "fl/logistic_regression.h"
#include "fl/mlp.h"
#include "util/rng.h"

namespace sfl::fl {
namespace {

TEST(SoftmaxTest, SumsToOneAndOrdersLogits) {
  std::vector<double> logits{1.0, 2.0, 3.0};
  softmax_inplace(logits);
  double sum = 0.0;
  for (const double p : logits) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_LT(logits[0], logits[1]);
  EXPECT_LT(logits[1], logits[2]);
}

TEST(SoftmaxTest, NumericallyStableForHugeLogits) {
  std::vector<double> logits{1000.0, 1001.0};
  softmax_inplace(logits);
  EXPECT_TRUE(std::isfinite(logits[0]));
  EXPECT_NEAR(logits[0] + logits[1], 1.0, 1e-12);
  EXPECT_GT(logits[1], logits[0]);
}

TEST(LogisticRegressionTest, ParameterRoundTrip) {
  LogisticRegression model(4, 3, 0.0);
  EXPECT_EQ(model.parameter_count(), 4u * 3u + 3u);
  std::vector<double> params(model.parameter_count());
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] = static_cast<double>(i) * 0.1;
  }
  model.set_parameters(params);
  EXPECT_EQ(model.parameters(), params);
  EXPECT_THROW(model.set_parameters(std::vector<double>(3)), std::invalid_argument);
}

TEST(LogisticRegressionTest, ZeroWeightsGiveUniformProbabilities) {
  const LogisticRegression model(2, 4, 0.0);
  const auto probs = model.probabilities(std::vector<double>{1.0, -1.0});
  ASSERT_EQ(probs.size(), 4u);
  for (const double p : probs) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(LogisticRegressionTest, CloneIsIndependentDeepCopy) {
  LogisticRegression model(2, 2, 0.0);
  std::vector<double> params(model.parameter_count(), 1.0);
  model.set_parameters(params);
  const auto copy = model.clone();
  params.assign(params.size(), 2.0);
  model.set_parameters(params);
  EXPECT_DOUBLE_EQ(copy->parameters()[0], 1.0);
  EXPECT_DOUBLE_EQ(model.parameters()[0], 2.0);
}

TEST(LogisticRegressionTest, UniformModelHasLogKLoss) {
  sfl::util::Rng rng(1);
  const data::Dataset ds = data::make_two_blobs(100, 3.0, rng);
  const LogisticRegression model(2, 2, 0.0);
  const auto batch = full_batch(ds);
  EXPECT_NEAR(model.loss(ds, batch), std::log(2.0), 1e-9);
}

TEST(LogisticRegressionTest, PredictsByDecisionBoundary) {
  LogisticRegression model(1, 2, 0.0);
  // W = [[-1], [1]], b = 0: positive x -> class 1.
  model.set_parameters(std::vector<double>{-1.0, 1.0, 0.0, 0.0});
  EXPECT_EQ(model.predict_class(std::vector<double>{5.0}), 1);
  EXPECT_EQ(model.predict_class(std::vector<double>{-5.0}), 0);
}

TEST(LogisticRegressionTest, RegressionDatasetRejected) {
  data::Matrix features(2, 1, {1.0, 2.0});
  const data::Dataset ds(std::move(features), std::vector<double>{1.0, 2.0});
  const LogisticRegression model(1, 2, 0.0);
  const std::vector<std::size_t> batch{0};
  std::vector<double> grad(model.parameter_count());
  EXPECT_THROW((void)model.loss(ds, batch), std::invalid_argument);
  EXPECT_THROW((void)model.loss_and_gradient(ds, batch, grad),
               std::invalid_argument);
}

TEST(LogisticRegressionTest, L2PenaltyIncreasesLossForNonzeroWeights) {
  sfl::util::Rng rng(2);
  const data::Dataset ds = data::make_two_blobs(50, 3.0, rng);
  LogisticRegression no_reg(2, 2, 0.0);
  LogisticRegression with_reg(2, 2, 1.0);
  const std::vector<double> params{0.5, -0.5, 0.5, -0.5, 0.1, -0.1};
  no_reg.set_parameters(params);
  with_reg.set_parameters(params);
  const auto batch = full_batch(ds);
  EXPECT_GT(with_reg.loss(ds, batch), no_reg.loss(ds, batch));
}

TEST(MlpTest, ParameterRoundTripAndCount) {
  sfl::util::Rng rng(3);
  Mlp model(5, 7, 3, rng, 0.0);
  EXPECT_EQ(model.parameter_count(), 5u * 7u + 7u + 7u * 3u + 3u);
  auto params = model.parameters();
  params[0] = 42.0;
  model.set_parameters(params);
  EXPECT_DOUBLE_EQ(model.parameters()[0], 42.0);
  EXPECT_EQ(model.parameters(), params);
}

TEST(MlpTest, CloneIsDeepCopy) {
  sfl::util::Rng rng(4);
  Mlp model(2, 3, 2, rng, 0.0);
  const auto copy = model.clone();
  EXPECT_EQ(copy->parameters(), model.parameters());
  auto params = model.parameters();
  params[0] += 1.0;
  model.set_parameters(params);
  EXPECT_NE(copy->parameters(), model.parameters());
}

TEST(MlpTest, PredictClassIsArgmaxConsistent) {
  sfl::util::Rng rng(5);
  const data::Dataset ds = data::make_two_blobs(20, 4.0, rng);
  const Mlp model(2, 8, 2, rng, 0.0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const int cls = model.predict_class(ds.example(i));
    EXPECT_GE(cls, 0);
    EXPECT_LT(cls, 2);
  }
}

TEST(LinearRegressionTest, PredictMatchesDotProduct) {
  LinearRegression model(2, 0.0);
  model.set_parameters(std::vector<double>{2.0, -1.0, 0.5});
  EXPECT_DOUBLE_EQ(model.predict_value(std::vector<double>{1.0, 1.0}), 1.5);
  EXPECT_EQ(model.parameter_count(), 3u);
}

TEST(LinearRegressionTest, LossIsHalfMse) {
  data::Matrix features(2, 1, {1.0, 2.0});
  const data::Dataset ds(std::move(features), std::vector<double>{2.0, 4.0});
  LinearRegression model(1, 0.0);
  model.set_parameters(std::vector<double>{1.0, 0.0});  // y_hat = x
  // Residuals: -1 and -2 -> 0.5*(1+4)/2 = 1.25.
  EXPECT_NEAR(model.loss(ds, full_batch(ds)), 1.25, 1e-12);
}

TEST(ModelInterfaceTest, WrongPredictKindThrows) {
  const LinearRegression regression(2);
  EXPECT_THROW((void)regression.predict_class(std::vector<double>{1.0, 2.0}),
               std::logic_error);
  const LogisticRegression classifier(2, 2);
  EXPECT_THROW((void)classifier.predict_value(std::vector<double>{1.0, 2.0}),
               std::logic_error);
}

TEST(EvaluateTest, PerfectModelScoresFullAccuracy) {
  LogisticRegression model(1, 2, 0.0);
  model.set_parameters(std::vector<double>{-10.0, 10.0, 0.0, 0.0});
  data::Matrix features(4, 1, {-1.0, -2.0, 1.0, 2.0});
  const data::Dataset ds(std::move(features), std::vector<int>{0, 0, 1, 1}, 2);
  const EvalResult result = evaluate(model, ds);
  EXPECT_TRUE(result.has_accuracy);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
  EXPECT_LT(result.loss, 0.01);
}

TEST(EvaluateTest, RegressionHasNoAccuracy) {
  data::Matrix features(2, 1, {1.0, 2.0});
  const data::Dataset ds(std::move(features), std::vector<double>{1.0, 2.0});
  const LinearRegression model(1);
  const EvalResult result = evaluate(model, ds);
  EXPECT_FALSE(result.has_accuracy);
  EXPECT_GT(result.loss, 0.0);
}

/// Overwrites every parameter with a seeded non-zero draw.
void randomize_parameters(Model& model, std::uint64_t seed) {
  sfl::util::Rng rng(seed);
  std::vector<double> params(model.parameter_count());
  for (double& p : params) p = rng.uniform(-1.5, 1.5);
  model.set_parameters(params);
}

void expect_loss_equals_evaluate_bitwise(const Model& model,
                                         const data::Dataset& ds) {
  const double direct = model.loss(ds, full_batch(ds));
  const double evaluated = evaluate(model, ds).loss;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(direct),
            std::bit_cast<std::uint64_t>(evaluated))
      << "loss " << direct << " vs evaluate().loss " << evaluated;
}

// The orchestrator's reputation probes call Model::loss on a full batch in
// place of evaluate(...).loss; this pins that the two are the same double.
TEST(EvaluateTest, LossOnFullBatchIsBitEqualToEvaluateLoss) {
  sfl::util::Rng data_rng(91);
  data::GaussianMixtureSpec spec;
  spec.num_examples = 150;
  spec.num_classes = 4;
  spec.feature_dim = 6;
  const data::Dataset classes = data::make_gaussian_mixture(spec, data_rng);

  LogisticRegression logistic(6, 4, 1e-3);
  randomize_parameters(logistic, 11);
  expect_loss_equals_evaluate_bitwise(logistic, classes);

  sfl::util::Rng init_rng(12);
  Mlp mlp(6, 9, 4, init_rng, 1e-3);
  randomize_parameters(mlp, 13);
  expect_loss_equals_evaluate_bitwise(mlp, classes);

  const data::LinearRegressionData linear =
      data::make_linear_regression(120, 5, 0.3, data_rng);
  LinearRegression regression(5, 1e-3);
  randomize_parameters(regression, 14);
  expect_loss_equals_evaluate_bitwise(regression, linear.dataset);
}

}  // namespace
}  // namespace sfl::fl
