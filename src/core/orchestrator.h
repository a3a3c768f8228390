// SustainableFlOrchestrator: the full system round loop.
//
// Each round:
//   1. the cost process advances; energy harvest arrives (if enabled);
//   2. available clients submit bids (strategy table; truthful by default);
//   3. the server forms candidate profiles with values
//        v_i = valuation_scale * (d_i / mean_d) * q-hat_i
//      (q-hat from the reputation tracker when value-aware, else 1);
//   4. the mechanism picks winners and payments; batteries drain;
//   5. winners run T local SGD steps; the server aggregates (FedAvg);
//   6. the reputation tracker observes, per winner, the effect of that
//      client's solo update on a server-held validation loss;
//   7. metrics are recorded; the model is evaluated every eval_every rounds.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "auction/mechanism.h"
#include "data/partition.h"
#include "econ/bidding.h"
#include "econ/cost_model.h"
#include "fl/federated_trainer.h"
#include "sim/energy.h"
#include "sim/scenario.h"
#include "util/csv.h"

namespace sfl::core {

struct OrchestratorConfig {
  std::size_t rounds = 200;
  std::size_t max_winners = 10;
  double per_round_budget = 5.0;
  double valuation_scale = 2.0;
  /// Use reputation-estimated quality in valuations (true) or value-blind
  /// q-hat = 1 (false) — the E11 comparison.
  bool use_reputation = true;
  double reputation_prior = 0.8;
  double reputation_alpha = 0.2;
  std::size_t eval_every = 10;
  bool enable_energy = false;
  sim::EnergySpec energy{};
  econ::CostModelSpec cost{};
  /// Failure injection: each auction winner independently fails to deliver
  /// its update with this probability. Dropped winners are not paid, do not
  /// train, and do not drain energy; the mechanism's queues see the realized
  /// (reduced) payments. In [0, 1].
  double dropout_probability = 0.0;
  /// Optional per-client multipliers applied to every drawn cost (empty =
  /// all 1). Lets scenarios correlate cost with quality — e.g. noisy-label
  /// clients that are also cheap, the adverse-selection case quality-blind
  /// mechanisms fall for.
  std::vector<double> cost_multipliers{};
  std::uint64_t seed = 1;
};

struct RoundRecord {
  std::size_t round = 0;
  std::size_t available = 0;      ///< clients with energy to bid
  std::size_t participants = 0;   ///< winners that delivered
  std::size_t dropped = 0;        ///< winners lost to failure injection
  double payment = 0.0;
  double cumulative_payment = 0.0;
  double budget_backlog = 0.0;    ///< mechanism Q(t) (0 for stateless rules)
  double welfare = 0.0;           ///< true welfare this round
  double cumulative_welfare = 0.0;
  double test_accuracy = 0.0;     ///< only meaningful when `evaluated`
  double test_loss = 0.0;
  bool evaluated = false;
};

struct RunResult {
  std::string mechanism_name;
  std::vector<RoundRecord> rounds;

  double final_accuracy = 0.0;
  double final_loss = 0.0;
  double cumulative_welfare = 0.0;
  double cumulative_payment = 0.0;
  double average_payment = 0.0;
  double budget_violation = 0.0;        ///< cumulative overshoot at the end
  double peak_budget_violation = 0.0;
  double ir_fraction = 1.0;
  std::vector<double> client_utilities;
  std::vector<double> participation_counts;
  std::vector<double> final_reputation;
  std::vector<double> final_battery;    ///< empty when energy disabled
  std::vector<std::size_t> starvation_counts;  ///< empty when energy disabled

  /// Writes one row per round to `csv` (header managed by the caller).
  void write_rounds_csv(sfl::util::CsvWriter& csv) const;

  /// Column names matching write_rounds_csv.
  [[nodiscard]] static std::vector<std::string> csv_header();
};

/// Per-client bidding strategies; empty = all truthful.
using StrategyTable = std::vector<std::shared_ptr<const econ::BiddingStrategy>>;

class SustainableFlOrchestrator {
 public:
  /// `scenario` must outlive the orchestrator. The mechanism is owned.
  SustainableFlOrchestrator(const sim::Scenario& scenario,
                            std::unique_ptr<fl::Model> model,
                            fl::LocalTrainingSpec training,
                            std::unique_ptr<sfl::auction::Mechanism> mechanism,
                            OrchestratorConfig config,
                            StrategyTable strategies = {});

  /// Runs the configured number of rounds and returns the full record.
  [[nodiscard]] RunResult run();

  [[nodiscard]] const sfl::auction::Mechanism& mechanism() const noexcept {
    return *mechanism_;
  }

 private:
  const sim::Scenario* scenario_;
  fl::FederatedTrainer trainer_;
  std::unique_ptr<sfl::auction::Mechanism> mechanism_;
  OrchestratorConfig config_;
  StrategyTable strategies_;
};

}  // namespace sfl::core
