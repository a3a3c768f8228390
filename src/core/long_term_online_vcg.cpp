#include "core/long_term_online_vcg.h"

#include "auction/payments.h"
#include "auction/sharded_wdp.h"
#include "auction/winner_determination.h"
#include "dist/distributed_wdp.h"
#include "util/require.h"

namespace sfl::core {

using sfl::auction::Allocation;
using sfl::auction::Candidate;
using sfl::auction::CandidateBatch;
using sfl::auction::MechanismResult;
using sfl::auction::Penalties;
using sfl::auction::RoundContext;
using sfl::auction::RoundObservation;
using sfl::auction::RoundSettlement;
using sfl::auction::ScoreWeights;
using sfl::auction::RoundScratch;
using sfl::auction::ShardedWdp;
using sfl::auction::ShardedWdpConfig;
using sfl::auction::WinnerSettlement;
using sfl::util::require;

LongTermOnlineVcgMechanism::LongTermOnlineVcgMechanism(const LtoVcgConfig& config)
    : config_(config), budget_queue_(config.per_round_budget) {
  if (config.dist_workers > 0) {
    wdp_ = std::make_unique<sfl::dist::DistributedWdp>(
        sfl::dist::DistributedWdpConfig{.shards = config.shards,
                                        .workers = config.dist_workers,
                                        .hedge = config.dist_hedge});
  } else {
    wdp_ = std::make_unique<ShardedWdp>(
        ShardedWdpConfig{.shards = config.shards});
  }
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
  out.clear();
  if (!sustainability_queues_.has_value()) return;
  out.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    require(ids[i] < sustainability_queues_->size(),
            "candidate id outside the configured energy-rate table");
    out.push_back(sustainability_queues_->backlog(ids[i]) * energy_costs[i]);
  }
}

MechanismResult LongTermOnlineVcgMechanism::run_round(
    const std::vector<Candidate>& candidates, const RoundContext& context) {
  // Single implementation: the AoS slate is gathered into SoA form and runs
  // the same batch path, so both entry points agree bit-for-bit.
  return run_round(CandidateBatch::from_aos(candidates), context);
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
    wdp_->run_round(batch, weights, context.max_winners,
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
      wdp_->select_top_m(batch, weights, context.max_winners,
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
  const std::span<const double> bids = batch.bids();
  const std::span<const double> energy_costs = batch.energy_costs();

  out.winners.clear();
  out.payments.clear();
  // Cache this round's winners for the deprecated observe() shim; settle()
  // never reads it.
  last_round_winners_.clear();
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const std::size_t index =
        sfl::util::checked_index(selected[k], batch.size(), "winner");
    out.winners.push_back(ids[index]);
    out.payments.push_back(payments[k]);
    last_round_winners_.push_back(
        WinnerSettlement{.client = ids[index],
                         .bid = bids[index],
                         .payment = 0.0,
                         .energy_cost = energy_costs[index],
                         .dropped = false});
  }
}

void LongTermOnlineVcgMechanism::settle(const RoundSettlement& settlement) {
  // Idempotency guard: the settle()+observe() double-report pattern (or a
  // retried settlement) must not push the same round into the queues
  // twice. A duplicate is a settlement that arrives with no new auction
  // round opened since the last one AND the same round stamp — so drivers
  // that settle once per run_round (stamped or not) are untouched.
  if (!round_open_ && settlement.round == last_settled_round_) return;

  // Validate BEFORE mutating any queue: settle() is exception-atomic, so a
  // rejected settlement can be corrected and retried without Q having
  // already absorbed the payment arrival.
  if (sustainability_queues_.has_value()) {
    for (const WinnerSettlement& w : settlement.winners) {
      require(w.client < sustainability_queues_->size(),
              "settled winner outside the configured energy-rate table");
    }
  }

  // Q arrival: realized payments are what the long-term constraint is
  // written on; the bid proxy is the drift objective's internal surrogate.
  const double arrival =
      config_.queue_arrival == QueueArrivalMode::kRealizedPayment
          ? settlement.total_payment
          : settlement.total_bid();
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
    // only quantity the mechanism controls.
    settle_arrivals_.assign(sustainability_queues_->size(), 0.0);
    for (const WinnerSettlement& w : settlement.winners) {
      settle_arrivals_[w.client] += w.energy_cost;
    }
    sustainability_queues_->update_all(settle_arrivals_);
  }
  // Stamped only after a fully-applied settlement, so a throwing settle
  // (bad winner id) is not remembered as settled. The observe() cache is
  // consumed: the shim can no longer rebuild (and double-apply) a round
  // that settle() already handled, whatever round stamp it carries.
  last_settled_round_ = settlement.round;
  round_open_ = false;
  last_round_winners_.clear();
}

void LongTermOnlineVcgMechanism::observe(const RoundObservation& observation) {
  // Double-report guard, stamp-independent: a closed round whose winner
  // cache is gone was already settled through settle(), so this
  // observation is the legacy half of a double report — even when the two
  // reports disagree on round stamps (unstamped settle + stamped observe).
  if (!round_open_ && last_round_winners_.empty()) return;

  // Deprecated shim: legacy callers only report the round total, so the
  // per-winner breakdown (bids for the proxy queue, energy costs for the Z
  // queues) is rebuilt from this round's own allocation.
  RoundSettlement settlement;
  settlement.round = observation.round;
  settlement.total_payment = observation.total_payment;
  settlement.winners = last_round_winners_;
  last_round_winners_.clear();
  settle(settlement);
}

}  // namespace sfl::core
