#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/aggregation.h"
#include "fl/federated_trainer.h"
#include "fl/local_trainer.h"
#include "fl/logistic_regression.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sfl::fl {
namespace {

data::FederatedDataset make_fed_data(std::size_t clients, std::uint64_t seed,
                                     std::size_t train_n = 400,
                                     std::size_t test_n = 100) {
  sfl::util::Rng rng(seed);
  data::GaussianMixtureSpec spec;
  // One draw for train+test so both share the same class means (the
  // generator re-draws means per call).
  spec.num_examples = train_n + test_n;
  spec.num_classes = 4;
  spec.feature_dim = 6;
  spec.class_separation = 3.0;
  const data::Dataset all = data::make_gaussian_mixture(spec, rng);
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const std::span<const std::size_t> indices(order);
  data::Dataset train = all.subset(indices.subspan(0, train_n));
  data::Dataset test = all.subset(indices.subspan(train_n));
  const auto partition = data::partition_iid(train.size(), clients, rng);
  return data::FederatedDataset(std::move(train), std::move(test), partition);
}

LocalTrainingSpec default_spec() {
  LocalTrainingSpec spec;
  spec.local_steps = 5;
  spec.batch_size = 16;
  spec.optimizer.learning_rate = 0.1;
  return spec;
}

TEST(LocalTrainerTest, ReducesLossOnSeparableData) {
  sfl::util::Rng rng(1);
  const data::Dataset shard = data::make_two_blobs(200, 5.0, rng);
  const LogisticRegression model(2, 2, 0.0);
  LocalTrainingSpec spec = default_spec();
  spec.local_steps = 50;
  const LocalUpdate update = run_local_training(model, shard, spec, rng);
  EXPECT_LT(update.final_loss, update.initial_loss);
  EXPECT_EQ(update.examples, 200u);
  EXPECT_EQ(update.delta.size(), model.parameter_count());
}

TEST(LocalTrainerTest, DoesNotMutateGlobalModel) {
  sfl::util::Rng rng(2);
  const data::Dataset shard = data::make_two_blobs(50, 3.0, rng);
  const LogisticRegression model(2, 2, 0.0);
  const auto before = model.parameters();
  (void)run_local_training(model, shard, default_spec(), rng);
  EXPECT_EQ(model.parameters(), before);
}

TEST(LocalTrainerTest, DeltaAppliedReproducesLocalModel) {
  // delta must equal (trained params - initial params) exactly.
  sfl::util::Rng rng(3);
  const data::Dataset shard = data::make_two_blobs(50, 3.0, rng);
  LogisticRegression model(2, 2, 0.0);
  sfl::util::Rng train_rng(7);
  const LocalUpdate update = run_local_training(model, shard, default_spec(),
                                                train_rng);
  // Zero-initialized model: trained params == delta.
  auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] += update.delta[i];
  }
  // Re-run with identical RNG stream to confirm determinism.
  sfl::util::Rng train_rng2(7);
  const LocalUpdate update2 = run_local_training(model, shard, default_spec(),
                                                 train_rng2);
  EXPECT_EQ(update.delta, update2.delta);
}

TEST(LocalTrainerTest, Validation) {
  sfl::util::Rng rng(4);
  const data::Dataset shard = data::make_two_blobs(10, 3.0, rng);
  const LogisticRegression model(2, 2, 0.0);
  LocalTrainingSpec spec = default_spec();
  spec.local_steps = 0;
  EXPECT_THROW((void)run_local_training(model, shard, spec, rng),
               std::invalid_argument);
  spec = default_spec();
  spec.batch_size = 0;
  EXPECT_THROW((void)run_local_training(model, shard, spec, rng),
               std::invalid_argument);
}

TEST(AggregationTest, WeightedDeltasAreConvexCombination) {
  std::vector<LocalUpdate> updates(2);
  updates[0].delta = {1.0, 0.0};
  updates[0].examples = 10;
  updates[1].delta = {0.0, 1.0};
  updates[1].examples = 30;
  const auto agg = aggregate_fedavg(updates);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_DOUBLE_EQ(agg[0], 0.25);
  EXPECT_DOUBLE_EQ(agg[1], 0.75);
}

TEST(AggregationTest, ExplicitWeightsOverrideExampleCounts) {
  std::vector<LocalUpdate> updates(2);
  updates[0].delta = {2.0};
  updates[1].delta = {4.0};
  const auto agg = aggregate_weighted_deltas(updates, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(agg[0], 3.0);
}

TEST(AggregationTest, Validation) {
  std::vector<LocalUpdate> updates(2);
  updates[0].delta = {1.0};
  updates[1].delta = {1.0, 2.0};  // dimension mismatch
  EXPECT_THROW((void)aggregate_weighted_deltas(updates, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)aggregate_weighted_deltas({}, {}), std::invalid_argument);
  updates[1].delta = {1.0};
  EXPECT_THROW((void)aggregate_weighted_deltas(updates, {0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)aggregate_weighted_deltas(updates, {-1.0, 2.0}),
               std::invalid_argument);
}

TEST(AggregationTest, ApplyServerUpdate) {
  std::vector<double> params{1.0, 2.0};
  apply_server_update(params, std::vector<double>{0.5, -0.5}, 2.0);
  EXPECT_DOUBLE_EQ(params[0], 2.0);
  EXPECT_DOUBLE_EQ(params[1], 1.0);
  EXPECT_THROW(apply_server_update(params, std::vector<double>{1.0}, 1.0),
               std::invalid_argument);
}

TEST(FederatedTrainerTest, AccuracyImprovesWithTraining) {
  const auto fed = make_fed_data(8, 10);
  FederatedTrainer trainer(fed, std::make_unique<LogisticRegression>(6, 4, 1e-4),
                           default_spec(), 99);
  const double before = trainer.evaluate_test().accuracy;
  const std::vector<std::size_t> everyone{0, 1, 2, 3, 4, 5, 6, 7};
  for (int round = 0; round < 30; ++round) {
    (void)trainer.run_round(everyone);
  }
  const double after = trainer.evaluate_test().accuracy;
  EXPECT_GT(after, before + 0.3);
  EXPECT_GT(after, 0.7);
  EXPECT_EQ(trainer.rounds_run(), 30u);
}

TEST(FederatedTrainerTest, EmptyRoundIsNoOp) {
  const auto fed = make_fed_data(4, 11);
  FederatedTrainer trainer(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                           default_spec(), 1);
  const auto before = trainer.parameters();
  const RoundSummary summary = trainer.run_round({});
  EXPECT_EQ(summary.participants, 0u);
  EXPECT_EQ(trainer.parameters(), before);
  EXPECT_EQ(trainer.rounds_run(), 0u);
}

TEST(FederatedTrainerTest, RejectsDuplicateAndOutOfRangeParticipants) {
  const auto fed = make_fed_data(4, 12);
  FederatedTrainer trainer(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                           default_spec(), 1);
  const std::vector<std::size_t> dup{1, 1};
  EXPECT_THROW((void)trainer.run_round(dup), std::invalid_argument);
  const std::vector<std::size_t> oob{9};
  EXPECT_THROW((void)trainer.run_round(oob), std::invalid_argument);
}

TEST(FederatedTrainerTest, SameSeedSameTrajectory) {
  const auto fed = make_fed_data(6, 13);
  const std::vector<std::size_t> participants{0, 2, 4};
  FederatedTrainer a(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                     default_spec(), 55);
  FederatedTrainer b(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                     default_spec(), 55);
  for (int round = 0; round < 5; ++round) {
    (void)a.run_round(participants);
    (void)b.run_round(participants);
  }
  EXPECT_EQ(a.parameters(), b.parameters());
}

TEST(FederatedTrainerTest, ParallelMatchesSequential) {
  const auto fed = make_fed_data(6, 14);
  const std::vector<std::size_t> participants{0, 1, 2, 3, 4, 5};
  FederatedTrainer sequential(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                              default_spec(), 77);
  sfl::util::ThreadPool pool(3);
  FederatedTrainer parallel(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                            default_spec(), 77, &pool);
  for (int round = 0; round < 4; ++round) {
    (void)sequential.run_round(participants);
    (void)parallel.run_round(participants);
  }
  EXPECT_EQ(sequential.parameters(), parallel.parameters());
}

TEST(FederatedTrainerTest, PooledTrainingErrorReachesTheCaller) {
  // A participant whose local training throws must surface as the same
  // catchable error on the pooled path as on the sequential one.
  const auto fed = make_fed_data(4, 14);
  LocalTrainingSpec spec = default_spec();
  spec.local_steps = 0;  // rejected by every local training run
  sfl::util::ThreadPool pool(2);
  FederatedTrainer sequential(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                              spec, 5);
  FederatedTrainer parallel(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                            spec, 5, &pool);
  const std::vector<std::size_t> participants{0, 1, 2, 3};
  EXPECT_THROW((void)sequential.run_round(participants), std::invalid_argument);
  EXPECT_THROW((void)parallel.run_round(participants), std::invalid_argument);
}

TEST(FederatedTrainerTest, DetailedRoundExposesAlignedUpdates) {
  const auto fed = make_fed_data(5, 15);
  FederatedTrainer trainer(fed, std::make_unique<LogisticRegression>(6, 4, 0.0),
                           default_spec(), 3);
  const std::vector<std::size_t> participants{1, 3};
  const DetailedRound detail = trainer.run_round_detailed(participants);
  ASSERT_EQ(detail.updates.size(), 2u);
  EXPECT_EQ(detail.updates[0].examples, fed.shard_size(1));
  EXPECT_EQ(detail.updates[1].examples, fed.shard_size(3));
  EXPECT_EQ(detail.aggregate.size(), trainer.parameters().size());
  EXPECT_EQ(detail.summary.participants, 2u);
  EXPECT_GT(detail.summary.update_norm, 0.0);
}

TEST(FederatedTrainerTest, PartialParticipationStillLearns) {
  const auto fed = make_fed_data(10, 16, 600, 150);
  FederatedTrainer trainer(fed, std::make_unique<LogisticRegression>(6, 4, 1e-4),
                           default_spec(), 5);
  sfl::util::Rng rng(6);
  for (int round = 0; round < 40; ++round) {
    const auto participants = rng.sample_without_replacement(10, 3);
    (void)trainer.run_round(participants);
  }
  EXPECT_GT(trainer.evaluate_test().accuracy, 0.6);
}

}  // namespace
}  // namespace sfl::fl
