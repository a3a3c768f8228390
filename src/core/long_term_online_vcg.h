// The paper's primary contribution: Long-Term Online VCG (LTO-VCG).
//
// Per round t the mechanism:
//   1. forms drift-plus-penalty scores
//        phi_i = V*v_i - (V + Q(t))*b_i - Z_i(t)*e_i
//      where Q(t) is the budget virtual queue (arrival: round payment,
//      service: B-bar) and Z_i(t) the per-client sustainability queue
//      (arrival: e_i when i wins, service: r_i, i's energy-harvest rate);
//   2. selects the top-m positive-score candidates (an affine maximizer in
//      the bids: uniform positive weight V+Q(t) on every bid plus
//      bid-independent offsets, hence monotone in each bid);
//   3. pays winners their critical value
//        p_i = (V*v_i - Z_i*e_i - theta_i) / (V + Q(t)),
//      theta_i = best excluded score — dominant-strategy truthful and
//      individually rational per round by Myerson's lemma;
//   4. on settle(), pushes the realized round payment into Q and the
//      winners' energy costs into Z. Queue arrivals count every auction
//      winner (dropped or not): selection is what the drift bound and the
//      pacing constraint are written on. Settling costs O(winners), not
//      O(clients): only the winners' Z queues take an arrival, and the
//      lazily-drained QueueBank applies every other queue's r_i drain on
//      its next read — bit-identical to sweeping all of them each round.
//
// Steps 1-3 run on the mechanism's ShardedWdp against a (mechanism-owned or
// shared) RoundScratch: the engine scores `shards` contiguous spans of the
// CandidateBatch in parallel on the shared thread pool and merges exactly
// (shards = 1 is the serial path, bit-identical to the span solvers), so
// every shard count produces bit-identical allocations and payments.
// Steady-state rounds through run_round_into perform zero heap allocations
// after warm-up.
//
// Lyapunov guarantees (verified empirically in E6): time-average welfare
// within O(1/V) of the constrained optimum, queue backlog (and hence budget
// violation transient) O(V).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "auction/mechanism.h"
#include "auction/round_scratch.h"
#include "auction/sharded_wdp.h"
#include "lyapunov/virtual_queue.h"

namespace sfl::core {

/// Which truthful payment rule to apply (they coincide for the modular
/// objective; kept separate for the E12 ablation).
enum class PaymentRule { kCriticalValue, kVcgExternality };

/// What arrival the budget queue sees: the realized payments (default) or
/// the sum of winning bids (the proxy used inside the drift objective).
enum class QueueArrivalMode { kRealizedPayment, kBidProxy };

struct LtoVcgConfig {
  /// Lyapunov penalty weight V > 0: higher V emphasizes per-round welfare,
  /// lower V emphasizes budget-queue stability.
  double v_weight = 10.0;
  /// Long-term per-round payment budget B-bar > 0.
  double per_round_budget = 5.0;
  PaymentRule payment_rule = PaymentRule::kCriticalValue;
  QueueArrivalMode queue_arrival = QueueArrivalMode::kRealizedPayment;
  /// Per-client sustainable participation-energy rates r_i (service rates of
  /// the Z queues). Empty disables the sustainability queues.
  std::vector<double> energy_rates{};
  /// Optional time-varying budget: round t's queue service is
  /// budget_schedule[t % size] (all > 0; e.g. a diurnal or weekly budget
  /// profile). The long-term constraint becomes the schedule's mean. Empty
  /// uses the constant per_round_budget.
  std::vector<double> budget_schedule{};
  /// WDP shard count: 1 = serial (default), 0 = auto
  /// (ShardedWdpConfig::shards), k > 1 = exactly k contiguous batch spans. Every shard
  /// count produces bit-identical allocations and payments; sharding only
  /// changes wall time.
  std::size_t shards = 1;
  /// Externally-owned round scratch shared across mechanisms (nullptr =
  /// the mechanism owns a private one). Sharing is safe for mechanisms
  /// whose rounds never run concurrently — the scratch carries no state
  /// between rounds; multi-mechanism comparison runs use one warmed
  /// scratch for the whole roster to skip per-mechanism growth.
  sfl::auction::RoundScratch* shared_scratch = nullptr;
  /// Registry key this instance was built under (reported by name()).
  std::string name = "lto-vcg";
};

class LongTermOnlineVcgMechanism final : public sfl::auction::Mechanism {
 public:
  explicit LongTermOnlineVcgMechanism(const LtoVcgConfig& config);

  [[nodiscard]] std::string name() const override { return config_.name; }
  using sfl::auction::Mechanism::run_round;
  /// Scores, selects, and prices directly on the batch arrays.
  [[nodiscard]] sfl::auction::MechanismResult run_round(
      const sfl::auction::CandidateBatch& batch,
      const sfl::auction::RoundContext& context) override;
  /// Zero-allocation steady-state path: reuses the mechanism's RoundScratch
  /// and the caller's result buffers. Identical results to run_round.
  void run_round_into(const sfl::auction::CandidateBatch& batch,
                      const sfl::auction::RoundContext& context,
                      sfl::auction::MechanismResult& out) override;

  /// Queue updates from the full settlement: Q sees the realized payments
  /// (or the bid proxy), each winner's Z sees its energy cost.
  ///
  /// Idempotent per round: with no new auction round opened since the
  /// last applied settlement, a retried report with the same round stamp
  /// is dropped, so a retry cannot double-apply the queue updates.
  ///
  /// Exception-atomic: a settlement with an out-of-table winner, a
  /// non-finite or negative winner energy cost, or a non-finite or
  /// negative Q arrival throws std::invalid_argument before any queue
  /// moves, so the corrected report applies exactly once.
  void settle(const sfl::auction::RoundSettlement& settlement) override;

  [[nodiscard]] bool is_truthful() const noexcept override { return true; }

  /// Current budget-queue backlog Q(t).
  [[nodiscard]] double budget_backlog() const noexcept {
    return budget_queue_.backlog();
  }
  /// Time-average budget backlog (O(V) check).
  [[nodiscard]] double average_budget_backlog() const noexcept {
    return budget_queue_.average_backlog();
  }
  /// Z_i backlog for a client (0 when sustainability queues are disabled).
  [[nodiscard]] double sustainability_backlog(sfl::auction::ClientId id) const;

  [[nodiscard]] const LtoVcgConfig& config() const noexcept { return config_; }

  /// The affine-maximizer weights the next round would use (exposed for
  /// tests and diagnostics).
  [[nodiscard]] sfl::auction::ScoreWeights current_weights() const noexcept;

  // --- external-round API -------------------------------------------------
  //
  // For hosts that run winner determination themselves: the mechanism
  // exports its round inputs (weights + penalties), the host clears, and
  // the winners/payments come back through commit_external_round. The
  // multi-requester market clears every requester's round in one exclusive
  // batch (auction::clear_exclusive); perfbench's clear-diurnal workload
  // runs ShardedWdp::select_top_m and critical_payments in between, which
  // is bit-identical to run_round_into (same inputs, same engine).

  /// Whether this instance's rounds may be cleared externally: the
  /// critical-value payment rule.
  [[nodiscard]] bool supports_external_rounds() const noexcept {
    return config_.payment_rule == PaymentRule::kCriticalValue;
  }

  /// Exports the next round's affine-maximizer inputs for `batch`: writes
  /// the Z_i(t)*e_i penalties into `out` (empty when the sustainability
  /// queues are off) and returns the current weights. Pure observation: no
  /// round is opened until commit_external_round.
  sfl::auction::ScoreWeights external_round_inputs(
      const sfl::auction::CandidateBatch& batch,
      sfl::auction::Penalties& out);

  /// Publishes an externally-computed round (winners as batch indices,
  /// ascending, with their critical payments) exactly as run_round_into
  /// would have: opens the round for the settle() idempotency guard and
  /// fills `out`. The inputs must have come from external_round_inputs on
  /// the same queue state with no settle in between.
  void commit_external_round(const sfl::auction::CandidateBatch& batch,
                             std::span<const std::size_t> selected,
                             std::span<const double> payments,
                             sfl::auction::MechanismResult& out);

 private:
  /// Writes Z_i(t)*e_i penalties for the slate into `out` (resized to the
  /// slate; left empty when the sustainability queues are off, and when an
  /// id outside the energy-rate table makes it throw).
  void penalties_into(std::span<const sfl::auction::ClientId> ids,
                      std::span<const double> energy_costs,
                      sfl::auction::Penalties& out);

  /// Shared tail of the round paths: publishes winners/payments into `out`
  /// (reusing its capacity).
  void fill_result(const sfl::auction::CandidateBatch& batch,
                   std::span<const std::size_t> selected,
                   std::span<const double> payments,
                   sfl::auction::MechanismResult& out);

  LtoVcgConfig config_;
  sfl::lyapunov::VirtualQueue budget_queue_;
  std::optional<sfl::lyapunov::QueueBank> sustainability_queues_;

  /// The per-round buffers: the configured shared scratch, or the private
  /// one. One scratch per mechanism round: run_round is not re-entrant (it
  /// never was — queue state already serializes rounds).
  [[nodiscard]] sfl::auction::RoundScratch& scratch() noexcept {
    return config_.shared_scratch != nullptr ? *config_.shared_scratch
                                             : scratch_;
  }

  /// The WDP + payment engine (config.shards contiguous spans).
  sfl::auction::ShardedWdp wdp_;
  sfl::auction::RoundScratch scratch_;
  /// Leave-one-out buffers for the kVcgExternality payment rule (unused —
  /// and empty — under the critical-value rule).
  sfl::auction::OracleScratch oracle_scratch_;
  /// Reused winner order (by client, then listing) that settle() sums
  /// duplicate winners' arrivals over; keeps settle() allocation-free.
  std::vector<std::size_t> settle_order_;

  /// Per-round idempotency guard behind settle(): run_round opens a round;
  /// the first settlement applied closes it. A settlement arriving with
  /// the round closed AND re-reporting the last settled round stamp is a
  /// retry and is dropped. Keying on the flag (not the stamp alone) keeps
  /// drivers working that settle many rounds without ever stamping
  /// RoundSettlement::round.
  bool round_open_ = true;
  std::size_t last_settled_round_ = static_cast<std::size_t>(-1);
};

}  // namespace sfl::core
