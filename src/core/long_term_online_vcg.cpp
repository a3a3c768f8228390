#include "core/long_term_online_vcg.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "auction/payments.h"
#include "auction/winner_determination.h"
#include "util/require.h"

namespace sfl::core {

using sfl::auction::Allocation;
using sfl::auction::Candidate;
using sfl::auction::CandidateBatch;
using sfl::auction::MechanismResult;
using sfl::auction::Penalties;
using sfl::auction::RoundContext;
using sfl::auction::RoundSettlement;
using sfl::auction::ScoreWeights;
using sfl::auction::RoundScratch;
using sfl::auction::ShardedWdpConfig;
using sfl::auction::WinnerSettlement;
using sfl::util::require;

LongTermOnlineVcgMechanism::LongTermOnlineVcgMechanism(const LtoVcgConfig& config)
    : config_(config),
      budget_queue_(config.per_round_budget),
      wdp_(ShardedWdpConfig{.shards = config.shards}) {
  require(config.v_weight > 0.0, "V weight must be > 0");
  require(config.per_round_budget > 0.0, "per-round budget must be > 0");
  if (!config.energy_rates.empty()) {
    for (const double rate : config.energy_rates) {
      require(rate >= 0.0, "energy rates must be >= 0");
    }
    sustainability_queues_.emplace(config.energy_rates);
  }
  for (const double budget : config.budget_schedule) {
    require(budget > 0.0, "scheduled budgets must be > 0");
  }
}

ScoreWeights LongTermOnlineVcgMechanism::current_weights() const noexcept {
  return ScoreWeights{.value_weight = config_.v_weight,
                      .bid_weight = config_.v_weight + budget_queue_.backlog()};
}

double LongTermOnlineVcgMechanism::sustainability_backlog(
    sfl::auction::ClientId id) const {
  if (!sustainability_queues_.has_value()) return 0.0;
  return sustainability_queues_->backlog(id);
}

void LongTermOnlineVcgMechanism::penalties_into(
    std::span<const sfl::auction::ClientId> ids,
    std::span<const double> energy_costs, Penalties& out) {
  if (!sustainability_queues_.has_value()) {
    out.clear();
    return;
  }
  out.resize(ids.size());
  if (sustainability_queues_->scaled_backlogs(ids, energy_costs, out) !=
      ids.size()) {
    out.clear();
    throw std::invalid_argument(
        "candidate id outside the configured energy-rate table");
  }
}

MechanismResult LongTermOnlineVcgMechanism::run_round(
    const CandidateBatch& batch, const RoundContext& context) {
  MechanismResult result;
  run_round_into(batch, context, result);
  return result;
}

void LongTermOnlineVcgMechanism::run_round_into(const CandidateBatch& batch,
                                                const RoundContext& context,
                                                MechanismResult& out) {
  // Opens the round for the idempotency guard: the next settlement (and
  // only the next) may apply queue updates.
  round_open_ = true;
  const ScoreWeights weights = current_weights();
  penalties_into(batch.ids(), batch.energy_costs(), scratch().penalties);

  if (config_.payment_rule == PaymentRule::kCriticalValue) {
    // The steady-state hot path: one engine round against the reusable
    // scratch — slate validated once, selection and payments share the
    // merged order, nothing allocates after warm-up.
    RoundScratch& round_scratch = scratch();
    wdp_.run_round(batch, weights, context.max_winners,
                   round_scratch.penalties, round_scratch);
    fill_result(batch, round_scratch.allocation.selected,
                round_scratch.payments, out);
    return;
  }

  // The externality rule re-solves the WDP per winner; it is the E12
  // ablation path, so the AoS materialization cost is acceptable. The m
  // independent re-solves run across the pool per config.oracle_threads
  // (bit-identical payments at every lane count).
  RoundScratch& round_scratch = scratch();
  const Allocation& allocation =
      wdp_.select_top_m(batch, weights, context.max_winners,
                        round_scratch.penalties, round_scratch);
  std::vector<Candidate>& slate = oracle_scratch_.aos;
  slate.clear();
  slate.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) slate.push_back(batch.at(i));
  const std::vector<double> payments = sfl::auction::vcg_payments(
      slate, weights, context.max_winners, allocation,
      [](const std::vector<Candidate>& reduced, const ScoreWeights& w,
         std::size_t m, const Penalties& p) {
        return sfl::auction::select_top_m(reduced, w, m, p);
      },
      round_scratch.penalties, config_.oracle_threads, oracle_scratch_);
  fill_result(batch, allocation.selected, payments, out);
}

ScoreWeights LongTermOnlineVcgMechanism::external_round_inputs(
    const CandidateBatch& batch, Penalties& out) {
  require(supports_external_rounds(),
          "external_round_inputs requires the critical-value payment rule");
  penalties_into(batch.ids(), batch.energy_costs(), out);
  return current_weights();
}

void LongTermOnlineVcgMechanism::commit_external_round(
    const CandidateBatch& batch, std::span<const std::size_t> selected,
    std::span<const double> payments, MechanismResult& out) {
  require(supports_external_rounds(),
          "commit_external_round requires the critical-value payment rule");
  // Mirrors run_round_into's round-open bookkeeping: the next settlement
  // (and only the next) applies the queue updates.
  round_open_ = true;
  fill_result(batch, selected, payments, out);
}

void LongTermOnlineVcgMechanism::fill_result(const CandidateBatch& batch,
                                             std::span<const std::size_t> selected,
                                             std::span<const double> payments,
                                             MechanismResult& out) {
  require(payments.size() == selected.size(),
          "one payment per winner required");
  const std::span<const sfl::auction::ClientId> ids = batch.ids();

  out.winners.clear();
  out.payments.clear();
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const std::size_t index =
        sfl::util::checked_index(selected[k], batch.size(), "winner");
    out.winners.push_back(ids[index]);
    out.payments.push_back(payments[k]);
  }
}

void LongTermOnlineVcgMechanism::settle(const RoundSettlement& settlement) {
  // Idempotency guard: a retried settlement must not push the same round
  // into the queues twice. A duplicate is a settlement that arrives with no
  // new auction round opened since the last one AND the same round stamp —
  // so drivers that settle once per run_round (stamped or not) are
  // untouched.
  if (!round_open_ && settlement.round == last_settled_round_) return;

  // Q arrival: realized payments are what the long-term constraint is
  // written on; the bid proxy is the drift objective's internal surrogate.
  const double arrival =
      config_.queue_arrival == QueueArrivalMode::kRealizedPayment
          ? settlement.total_payment
          : settlement.total_bid();

  // Validate BEFORE mutating any queue: settle() is exception-atomic, so a
  // rejected settlement can be corrected and retried without Q (or an
  // earlier winner's Z) having already absorbed its arrival.
  require(std::isfinite(arrival) && arrival >= 0.0,
          "budget-queue arrival must be finite and >= 0");
  if (sustainability_queues_.has_value()) {
    for (const WinnerSettlement& w : settlement.winners) {
      require(w.client < sustainability_queues_->size(),
              "settled winner outside the configured energy-rate table");
      require(std::isfinite(w.energy_cost) && w.energy_cost >= 0.0,
              "settled winner energy cost must be finite and >= 0");
    }
  }

  if (config_.budget_schedule.empty()) {
    budget_queue_.update(arrival);
  } else {
    const double service =
        config_.budget_schedule[settlement.round % config_.budget_schedule.size()];
    budget_queue_.update_with_service(arrival, service);
  }
  if (sustainability_queues_.has_value()) {
    // Every auction winner's Z queue is charged, dropped or not: the pacing
    // constraint bounds how often a client is *selected*, which is also the
    // only quantity the mechanism controls. A client listed more than once
    // gets one arrival, summed in winner order (0.0 + e1 + e2); every other
    // queue drains lazily when the bank advances.
    const std::vector<WinnerSettlement>& winners = settlement.winners;
    settle_order_.resize(winners.size());
    std::iota(settle_order_.begin(), settle_order_.end(), std::size_t{0});
    std::sort(settle_order_.begin(), settle_order_.end(),
              [&winners](std::size_t a, std::size_t b) {
                return winners[a].client != winners[b].client
                           ? winners[a].client < winners[b].client
                           : a < b;
              });
    for (std::size_t k = 0; k < settle_order_.size();) {
      const sfl::auction::ClientId client = winners[settle_order_[k]].client;
      double energy = 0.0;
      for (; k < settle_order_.size() &&
             winners[settle_order_[k]].client == client;
           ++k) {
        energy += winners[settle_order_[k]].energy_cost;
      }
      sustainability_queues_->arrive(client, energy);
    }
    sustainability_queues_->advance();
  }
  // Stamped only after a fully-applied settlement, so a rejected
  // settlement is not remembered as settled.
  last_settled_round_ = settlement.round;
  round_open_ = false;
}

}  // namespace sfl::core
