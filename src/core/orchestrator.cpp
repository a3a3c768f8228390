#include "core/orchestrator.h"

#include <algorithm>
#include <cmath>

#include "core/async_settler.h"
#include "core/long_term_online_vcg.h"
#include "econ/budget_tracker.h"
#include "econ/ledger.h"
#include "fl/local_trainer.h"
#include "reputation/reputation.h"
#include "util/require.h"

namespace sfl::core {

using sfl::auction::CandidateBatch;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;
using sfl::auction::RoundSettlement;
using sfl::auction::WinnerSettlement;
using sfl::util::require;

namespace {
/// Steepness of the validation-loss-to-quality squash; 50 maps a 0.05-nat
/// validation-loss increase to quality ~0.08, so persistent harm (noisy
/// labels) drives q-hat low enough that cheapness cannot compensate.
constexpr double kQualitySquash = 50.0;
}  // namespace

std::vector<std::string> RunResult::csv_header() {
  return {"round",  "available",          "participants",  "payment",
          "cum_payment", "budget_backlog", "welfare",       "cum_welfare",
          "evaluated",   "test_accuracy",  "test_loss"};
}

void RunResult::write_rounds_csv(sfl::util::CsvWriter& csv) const {
  for (const RoundRecord& r : rounds) {
    csv.row(r.round, r.available, r.participants, r.payment, r.cumulative_payment,
            r.budget_backlog, r.welfare, r.cumulative_welfare,
            r.evaluated ? 1 : 0, r.test_accuracy, r.test_loss);
  }
}

SustainableFlOrchestrator::SustainableFlOrchestrator(
    const sim::Scenario& scenario, std::unique_ptr<fl::Model> model,
    fl::LocalTrainingSpec training,
    std::unique_ptr<sfl::auction::Mechanism> mechanism, OrchestratorConfig config,
    StrategyTable strategies)
    : scenario_(&scenario),
      trainer_(scenario.data, std::move(model), training, config.seed ^ 0xf1f1f1f1ULL),
      mechanism_(std::move(mechanism)),
      config_(config),
      strategies_(std::move(strategies)) {
  require(mechanism_ != nullptr, "orchestrator needs a mechanism");
  if (config_.async_settle && mechanism_->underlying() == mechanism_.get()) {
    // Streamed settlement: settle() returns immediately and the queue
    // updates run on the shared pool while the round does local training.
    // The loop's flush points keep trajectories bit-identical to sync.
    // Already-async mechanisms (registry lto-vcg-async / lto.async_settle)
    // stream on their own and are not wrapped twice.
    mechanism_ = std::make_unique<AsyncSettlementMechanism>(
        std::move(mechanism_));
  }
  require(config_.rounds > 0, "orchestrator needs at least one round");
  require(config_.valuation_scale > 0.0, "valuation scale must be > 0");
  require(strategies_.empty() || strategies_.size() == scenario.num_clients(),
          "strategies must be empty or one per client");
  require(config_.cost_multipliers.empty() ||
              config_.cost_multipliers.size() == scenario.num_clients(),
          "cost multipliers must be empty or one per client");
  for (const double m : config_.cost_multipliers) {
    require(m > 0.0, "cost multipliers must be > 0");
  }
  require(config_.dropout_probability >= 0.0 &&
              config_.dropout_probability <= 1.0,
          "dropout probability must be in [0, 1]");
}

RunResult SustainableFlOrchestrator::run() {
  const std::size_t num_clients = scenario_->num_clients();
  sfl::util::Rng rng(config_.seed);
  sfl::util::Rng cost_rng = rng.split();
  sfl::util::Rng bid_rng = rng.split();
  sfl::util::Rng energy_rng = rng.split();
  sfl::util::Rng dropout_rng = rng.split();

  econ::CostModel cost_model(num_clients, config_.cost, scenario_->data_sizes,
                             cost_rng);
  econ::UtilityLedger ledger(num_clients);
  econ::BudgetTracker budget(config_.per_round_budget);
  reputation::ReputationTracker reputation(num_clients, config_.reputation_prior,
                                           config_.reputation_alpha);
  std::optional<sim::EnergySystem> energy;
  if (config_.enable_energy) {
    energy.emplace(num_clients, config_.energy);
  }
  const econ::TruthfulStrategy truthful;
  // underlying() unwraps execution decorators (async settlement), so queue
  // diagnostics keep reading the real rule.
  auto* lto =
      dynamic_cast<LongTermOnlineVcgMechanism*>(mechanism_->underlying());

  const double mean_size = scenario_->mean_data_size();

  RunResult result;
  result.mechanism_name = mechanism_->name();
  result.rounds.reserve(config_.rounds);
  double cumulative_welfare = 0.0;

  // Round-pipeline buffers hoisted out of the loop: the slate, the winner
  // lookup, and the mechanism result are cleared and refilled within their
  // existing capacity each round, so the auction side of a steady-state
  // round allocates nothing.
  CandidateBatch batch;
  batch.reserve(num_clients);
  std::vector<std::size_t> slot_of_client;
  MechanismResult outcome;
  std::vector<bool> dropped_flag;
  std::vector<std::size_t> participants;
  RoundSettlement settlement;
  // Reputation probes need only the validation loss, so they call
  // Model::loss on this batch directly (what fl::evaluate(...).loss
  // computes) and skip evaluate's accuracy pass.
  const std::vector<std::size_t> validation_batch =
      fl::full_batch(scenario_->validation);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    if (energy.has_value()) {
      energy->harvest_round(energy_rng);
    }
    std::vector<double> costs = cost_model.draw_round(cost_rng);
    if (!config_.cost_multipliers.empty()) {
      for (std::size_t i = 0; i < costs.size(); ++i) {
        costs[i] *= config_.cost_multipliers[i];
      }
    }

    // Build the candidate slate (SoA batch) from available clients;
    // slot_of_client maps a winning id back to its batch row.
    batch.clear();
    slot_of_client.assign(num_clients, num_clients);
    for (std::size_t i = 0; i < num_clients; ++i) {
      const double e_i = scenario_->energy_costs[i];
      if (energy.has_value() && !energy->available(i, e_i)) {
        energy->note_starvation(i);
        continue;
      }
      const econ::BiddingStrategy& strategy =
          (!strategies_.empty() && strategies_[i] != nullptr) ? *strategies_[i]
                                                              : truthful;
      const double quality =
          config_.use_reputation ? reputation.quality(i) : 1.0;
      slot_of_client[i] = batch.size();
      batch.emplace(
          i,
          config_.valuation_scale * (scenario_->data_sizes[i] / mean_size) *
              quality,
          strategy.bid(costs[i], round, bid_rng), e_i);
    }

    RoundContext context;
    context.round = round;
    context.max_winners = config_.max_winners;
    context.per_round_budget = config_.per_round_budget;

    outcome.winners.clear();
    outcome.payments.clear();
    if (!batch.empty()) {
      mechanism_->run_round_into(batch, context, outcome);
    }

    // Failure injection: winners may drop before doing any work. Dropped
    // winners are unpaid and train nothing; the settlement below reports
    // them with a dropout flag instead of erasing them.
    std::size_t dropped = 0;
    dropped_flag.assign(outcome.winners.size(), false);
    if (config_.dropout_probability > 0.0 && !outcome.winners.empty()) {
      for (std::size_t w = 0; w < outcome.winners.size(); ++w) {
        if (dropout_rng.bernoulli(config_.dropout_probability)) {
          dropped_flag[w] = true;
          ++dropped;
        }
      }
    }

    // Settle: payments, energy, ledger, and the mechanism's settlement.
    double round_welfare = 0.0;
    double round_payment = 0.0;
    participants.clear();
    participants.reserve(outcome.winners.size());
    settlement.round = round;
    settlement.total_payment = 0.0;
    settlement.winners.clear();
    settlement.winners.reserve(outcome.winners.size());
    for (std::size_t w = 0; w < outcome.winners.size(); ++w) {
      const std::size_t client = outcome.winners[w];
      require(client < num_clients, "mechanism returned an unknown winner id");
      const std::size_t slot = slot_of_client[client];
      require(slot < batch.size(),
              "mechanism returned a winner that was not a candidate");
      const double value = batch.values()[slot];
      settlement.winners.push_back(
          WinnerSettlement{.client = client,
                           .bid = batch.bids()[slot],
                           .payment = dropped_flag[w] ? 0.0 : outcome.payments[w],
                           .energy_cost = batch.energy_costs()[slot],
                           .dropped = dropped_flag[w]});
      if (dropped_flag[w]) continue;
      participants.push_back(client);
      ledger.record(econ::LedgerEntry{.round = round,
                                      .client = client,
                                      .value = value,
                                      .payment = outcome.payments[w],
                                      .true_cost = costs[client]});
      round_welfare += value - costs[client];
      round_payment += outcome.payments[w];
      if (energy.has_value()) {
        energy->consume(client, scenario_->energy_costs[client]);
      }
    }
    settlement.total_payment = round_payment;
    budget.record_round(round_payment);
    mechanism_->settle(settlement);

    // Local training + aggregation. Reputation observes, for each winner,
    // how that client's update alone would move the server-held validation
    // loss: noisy-label clients consistently increase it (their local
    // optimum differs from the clean task), so their q-hat decays. This
    // avoids the self-correlation trap of comparing a client's update
    // against an aggregate that contains it.
    if (!participants.empty()) {
      const std::vector<double> params_before = trainer_.parameters();
      const double base_loss =
          trainer_.model().loss(scenario_->validation, validation_batch);
      const fl::DetailedRound detail = trainer_.run_round_detailed(participants);
      const std::unique_ptr<fl::Model> probe = trainer_.model().clone();
      std::vector<double> probe_params(params_before.size());
      for (std::size_t slot = 0; slot < participants.size(); ++slot) {
        for (std::size_t i = 0; i < params_before.size(); ++i) {
          probe_params[i] = params_before[i] + detail.updates[slot].delta[i];
        }
        probe->set_parameters(probe_params);
        const double solo_loss =
            probe->loss(scenario_->validation, validation_batch);
        // Squash the validation-loss delta into a [0, 1] quality
        // observation: improvement -> above 0.5, harm -> below 0.5.
        const double quality_obs =
            1.0 / (1.0 + std::exp(kQualitySquash * (solo_loss - base_loss)));
        reputation.observe(participants[slot], quality_obs);
      }
    }

    cumulative_welfare += round_welfare;

    // Settlement barrier: the record below reads queue state for THIS
    // round, so the async pipeline (which overlapped the mechanism's queue
    // updates with the training block above) must drain first. No-op for
    // synchronous mechanisms.
    mechanism_->flush();

    RoundRecord record;
    record.round = round;
    record.available = batch.size();
    record.participants = participants.size();
    record.dropped = dropped;
    record.payment = round_payment;
    record.cumulative_payment = budget.cumulative_payment();
    record.budget_backlog = lto != nullptr ? lto->budget_backlog() : 0.0;
    record.welfare = round_welfare;
    record.cumulative_welfare = cumulative_welfare;
    const bool evaluate_now = (round + 1) % std::max<std::size_t>(config_.eval_every, 1) == 0 ||
                              round + 1 == config_.rounds;
    if (evaluate_now) {
      const fl::EvalResult eval = trainer_.evaluate_test();
      record.test_accuracy = eval.accuracy;
      record.test_loss = eval.loss;
      record.evaluated = true;
      result.final_accuracy = eval.accuracy;
      result.final_loss = eval.loss;
    }
    result.rounds.push_back(record);
  }

  result.cumulative_welfare = cumulative_welfare;
  result.cumulative_payment = budget.cumulative_payment();
  result.average_payment = budget.average_payment();
  result.budget_violation = budget.cumulative_violation();
  result.peak_budget_violation = budget.peak_violation();
  result.ir_fraction = ledger.individually_rational_fraction();
  result.client_utilities = ledger.utility_vector();
  result.participation_counts = ledger.participation_vector();
  result.final_reputation = reputation.quality_vector();
  if (energy.has_value()) {
    result.final_battery = energy->battery_levels();
    result.starvation_counts.resize(num_clients);
    for (std::size_t i = 0; i < num_clients; ++i) {
      result.starvation_counts[i] = energy->starvation_count(i);
    }
  }
  return result;
}

}  // namespace sfl::core
