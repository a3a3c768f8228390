#include "fl/federated_trainer.h"

#include <exception>
#include <unordered_set>

#include "data/matrix.h"
#include "util/require.h"

namespace sfl::fl {

using sfl::util::require;

FederatedTrainer::FederatedTrainer(const data::FederatedDataset& data,
                                   std::unique_ptr<Model> model,
                                   LocalTrainingSpec spec, std::uint64_t seed,
                                   sfl::util::ThreadPool* pool)
    : data_(&data), model_(std::move(model)), spec_(spec), pool_(pool) {
  require(model_ != nullptr, "trainer needs a model");
  sfl::util::Rng root(seed);
  client_rngs_.reserve(data_->num_clients());
  for (std::size_t i = 0; i < data_->num_clients(); ++i) {
    client_rngs_.push_back(root.split());
  }
}

RoundSummary FederatedTrainer::run_round(std::span<const std::size_t> participants) {
  return run_round_detailed(participants).summary;
}

DetailedRound FederatedTrainer::run_round_detailed(
    std::span<const std::size_t> participants) {
  DetailedRound round;
  if (participants.empty()) return round;

  std::unordered_set<std::size_t> unique(participants.begin(), participants.end());
  require(unique.size() == participants.size(), "duplicate participant ids");
  for (const std::size_t client : participants) {
    require(client < data_->num_clients(), "participant id out of range");
  }

  LocalTrainingSpec round_spec = spec_;
  if (schedule_.has_value()) {
    round_spec.optimizer.learning_rate = schedule_->rate(rounds_run_);
  }

  round.updates.resize(participants.size());
  const auto train_one = [&](std::size_t slot) {
    const std::size_t client = participants[slot];
    round.updates[slot] = run_local_training(*model_, data_->shard(client),
                                             round_spec, client_rngs_[client]);
  };
  if (pool_ != nullptr && participants.size() > 1) {
    // One chunk per participant: chunk c covers exactly slot c. The pool's
    // fn must not throw, so a slot's error is parked and the first one
    // rethrown after the join, as on the sequential path.
    std::vector<std::exception_ptr> slot_errors(participants.size());
    pool_->parallel_for_chunks(
        participants.size(), participants.size(),
        [&](std::size_t slot, std::size_t, std::size_t) {
          try {
            train_one(slot);
          } catch (...) {
            slot_errors[slot] = std::current_exception();
          }
        });
    for (const std::exception_ptr& error : slot_errors) {
      if (error) std::rethrow_exception(error);
    }
  } else {
    for (std::size_t slot = 0; slot < participants.size(); ++slot) train_one(slot);
  }

  round.aggregate = aggregate_fedavg(round.updates);
  if (server_momentum_ > 0.0) {
    if (momentum_buffer_.size() != round.aggregate.size()) {
      momentum_buffer_.assign(round.aggregate.size(), 0.0);
    }
    for (std::size_t i = 0; i < round.aggregate.size(); ++i) {
      momentum_buffer_[i] =
          server_momentum_ * momentum_buffer_[i] + round.aggregate[i];
      round.aggregate[i] = momentum_buffer_[i];
    }
  }
  std::vector<double> params = model_->parameters();
  apply_server_update(params, round.aggregate);
  model_->set_parameters(params);

  round.summary.participants = participants.size();
  for (const auto& update : round.updates) {
    round.summary.mean_initial_loss += update.initial_loss;
    round.summary.mean_final_loss += update.final_loss;
  }
  const auto n = static_cast<double>(participants.size());
  round.summary.mean_initial_loss /= n;
  round.summary.mean_final_loss /= n;
  round.summary.update_norm = data::l2_norm(round.aggregate);
  ++rounds_run_;
  return round;
}

void FederatedTrainer::set_server_momentum(double beta) {
  require(beta >= 0.0 && beta < 1.0, "server momentum must be in [0, 1)");
  server_momentum_ = beta;
  if (beta == 0.0) momentum_buffer_.clear();
}

double FederatedTrainer::current_learning_rate() const {
  return schedule_.has_value() ? schedule_->rate(rounds_run_)
                               : spec_.optimizer.learning_rate;
}

EvalResult FederatedTrainer::evaluate_test() const {
  return evaluate(*model_, data_->test_set());
}

EvalResult FederatedTrainer::evaluate_shard(std::size_t client) const {
  return evaluate(*model_, data_->shard(client));
}

}  // namespace sfl::fl
