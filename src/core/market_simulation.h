// Auction-only market simulation (no FL training).
//
// For economics-side experiments (budget tracking E3, truthfulness E4/E5,
// Lyapunov V tradeoff E6, regret E10) the learning loop is irrelevant and
// would dominate runtime. This simulation runs the mechanism against the
// stochastic cost process alone, tracking welfare, payments, queues, and
// per-client utilities over thousands of rounds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "auction/mechanism.h"
#include "econ/bidding.h"
#include "econ/budget_tracker.h"
#include "econ/cost_model.h"
#include "econ/ledger.h"

namespace sfl::core {

/// Online/streaming arrival (scenario "online", E14): clients arrive and
/// depart mid-horizon and carry per-client win budgets, so the per-round
/// slate changes between rounds. Arrival, sojourn, and budget draws come
/// from a dedicated rng stream split AFTER the value/cost/bid streams, so
/// enabling the scenario never perturbs the stationary trajectories.
struct OnlineArrivalSpec {
  bool enabled = false;
  /// Client i's arrival round is uniform in [0, arrival_window * rounds).
  double arrival_window = 0.5;
  /// Sojourn length is uniform in [min, max] * rounds after arrival.
  double min_sojourn_fraction = 0.25;
  double max_sojourn_fraction = 1.0;
  /// Per-client win budget, uniform integer in [min, max]: a client that
  /// has won that many rounds stops bidding (hard participation cap on top
  /// of the mechanism's soft Z-queue pacing). max == 0 disables the cap.
  std::size_t min_win_budget = 0;
  std::size_t max_win_budget = 0;
};

struct MarketSpec {
  std::size_t num_clients = 100;
  std::size_t rounds = 1000;
  std::size_t max_winners = 10;
  double per_round_budget = 5.0;
  /// Client values: v_i = valuation_scale * mass_i with per-client mass
  /// drawn once from lognormal(0, value_sigma) (data-size surrogate).
  double valuation_scale = 2.0;
  double value_sigma = 0.35;
  econ::CostModelSpec cost{};
  /// Streamed settlement: route mechanism.settle() through a
  /// core::AsyncSettler on the shared pool, with a flush barrier before
  /// each run_round and before final queue reads — results are
  /// bit-identical to the synchronous path (the async determinism suite
  /// enforces this for every registry mechanism).
  bool async_settle = false;
  /// Streaming arrival/departure with per-client win budgets.
  OnlineArrivalSpec online{};
  std::uint64_t seed = 7;
};

struct MarketResult {
  std::string mechanism_name;
  std::size_t rounds = 0;

  // Welfare at true costs.
  double cumulative_welfare = 0.0;
  double time_average_welfare = 0.0;
  std::vector<double> welfare_series;  ///< per-round true welfare

  // Payments and budget.
  double cumulative_payment = 0.0;
  double average_payment = 0.0;
  double cumulative_budget_violation = 0.0;
  double peak_budget_violation = 0.0;
  double violation_round_fraction = 0.0;
  std::vector<double> payment_series;
  std::vector<double> cumulative_payment_series;

  // Per-client economics.
  std::vector<double> client_utilities;
  std::vector<double> participation_counts;
  double ir_fraction = 1.0;

  // Final mechanism-side queue diagnostics (0 for stateless mechanisms).
  double final_budget_backlog = 0.0;
  double average_budget_backlog = 0.0;

  // Online-arrival diagnostics (empty / 0 for stationary markets).
  std::vector<double> active_clients_series;  ///< bidders present per round
  std::size_t budget_exhausted_clients = 0;   ///< clients that spent their cap
};

/// Per-client bidding strategies; empty = everyone truthful.
using StrategyTable = std::vector<std::shared_ptr<const econ::BiddingStrategy>>;

/// Runs `mechanism` for spec.rounds rounds. The same seed produces the same
/// cost/value realizations regardless of mechanism, so results are paired
/// across mechanisms for fair comparison.
[[nodiscard]] MarketResult run_market(sfl::auction::Mechanism& mechanism,
                                      const MarketSpec& spec,
                                      const StrategyTable& strategies = {});

/// Convenience for E4-style deviation studies: utility accumulated by
/// `deviator` when it bids factor*cost while everyone else is truthful.
[[nodiscard]] double deviation_utility(sfl::auction::Mechanism& mechanism,
                                       const MarketSpec& spec, std::size_t deviator,
                                       double misreport_factor);

/// Multi-requester market (scenario "multi", E14): several federated-learning
/// requesters auction over ONE shared client population each round. Every
/// requester runs its own LTO mechanism (independent Q/Z queues and budget),
/// but a client can train for at most one requester per round, so the R
/// per-requester rounds are cleared together as an exclusive MarketBatch
/// (MarketBatch::set_exclusive) through one fused engine pass, and each
/// requester's winners/payments flow back through the mechanism's
/// external-round API (external_round_inputs / commit_external_round).
struct MultiRequesterSpec {
  std::size_t requesters = 3;
  std::size_t num_clients = 100;
  std::size_t rounds = 500;
  std::size_t max_winners = 5;    ///< per requester per round
  double per_round_budget = 5.0;  ///< per requester
  /// Requester r values client i at
  /// valuation_scale * (1 + r * requester_value_spread) * mass_i with one
  /// shared lognormal(0, value_sigma) mass per client — asymmetric
  /// competition for the same population.
  double valuation_scale = 2.0;
  double requester_value_spread = 0.25;
  double value_sigma = 0.35;
  econ::CostModelSpec cost{};
  /// Shard lanes for the fused exclusive clear (ShardedWdp semantics:
  /// 0 = auto, 1 = serial). Bit-identical results at every count.
  std::size_t shards = 1;
  std::uint64_t seed = 7;
};

struct MultiRequesterResult {
  std::size_t rounds = 0;
  std::size_t requesters = 0;
  // Per-requester cumulative aggregates (size == requesters).
  std::vector<double> requester_welfare;   ///< sum of (value - true cost)
  std::vector<double> requester_payment;   ///< realized payments
  std::vector<double> requester_backlog;   ///< final budget-queue backlog Q
  std::vector<std::size_t> requester_wins; ///< rounds won, summed over clients
  // Market-wide per-round trajectories (summed across requesters).
  std::vector<double> welfare_series;
  std::vector<double> payment_series;
  std::vector<double> queue_series;  ///< total Q backlog after each round
  /// Winner rows whose client had already won another requester's market in
  /// the same round — the cross-market exclusivity invariant. Always 0 for
  /// a correct engine; surfaced (rather than asserted) so the property
  /// harness and the E14 bench can check it end to end.
  std::size_t duplicate_wins = 0;
};

/// Runs the multi-requester market for spec.rounds rounds; `mechanism` is a
/// registry key whose underlying mechanism must be an LTO instance
/// supporting external rounds (critical-value payments).
/// Settlement is applied synchronously per requester, so results are
/// deterministic in the seed for every such key and every shard count.
[[nodiscard]] MultiRequesterResult run_multi_requester_market(
    const MultiRequesterSpec& spec, const std::string& mechanism = "lto-vcg");

}  // namespace sfl::core
