#include "auction/payments.h"

#include <algorithm>
#include <exception>

#include "auction/sharded_wdp.h"
#include "auction/winner_determination.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace sfl::auction {

using sfl::util::check_invariant;
using sfl::util::require;

namespace {

/// Accessor-based critical-payment core shared by the AoS and SoA overloads
/// (reads candidates in place, no gather copies). Loser scores go through
/// the one shared score() expression so both paths produce bit-identical
/// payments.
template <typename ValueAt, typename BidAt>
std::vector<double> critical_payments_core(std::size_t num_candidates,
                                           ValueAt value_at, BidAt bid_at,
                                           const ScoreWeights& weights,
                                           std::size_t max_winners,
                                           const Allocation& allocation,
                                           const Penalties& penalties) {
  require(weights.bid_weight > 0.0, "bid weight must be > 0");
  require(penalties.empty() || penalties.size() == num_candidates,
          "penalties must be empty or one per candidate");
  require(allocation.selected.size() <= max_winners,
          "allocation exceeds the winner cap");

  // Best score among losers: the bar a winner's score must stay above when
  // the slate is full. (When fewer than max_winners won, every positive
  // score was taken, so the bar is 0.)
  double best_loser_score = 0.0;
  for (std::size_t i = 0; i < num_candidates; ++i) {
    if (allocation.contains(i)) continue;
    const double loser_score =
        score(value_at(i), bid_at(i), weights, penalty_at(penalties, i));
    best_loser_score = std::max(best_loser_score, loser_score);
  }
  const bool slate_full = allocation.selected.size() == max_winners;
  const double threshold = slate_full ? best_loser_score : 0.0;

  std::vector<double> payments;
  payments.reserve(allocation.selected.size());
  for (const std::size_t raw_index : allocation.selected) {
    const std::size_t index =
        sfl::util::checked_index(raw_index, num_candidates, "winner");
    // phi_i(b) = vw*v_i - bw*b - pen_i stays above `threshold` while
    // b < (vw*v_i - pen_i - threshold)/bw: that boundary is the payment.
    const double critical_bid =
        (weights.value_weight * value_at(index) - penalty_at(penalties, index) -
         threshold) /
        weights.bid_weight;
    check_invariant(critical_bid >= bid_at(index) - 1e-9,
                    "critical payment below the winning bid");
    payments.push_back(std::max(critical_bid, bid_at(index)));
  }
  return payments;
}

}  // namespace

std::vector<double> critical_payments(const std::vector<Candidate>& candidates,
                                      const ScoreWeights& weights,
                                      std::size_t max_winners,
                                      const Allocation& allocation,
                                      const Penalties& penalties) {
  return critical_payments_core(
      candidates.size(), [&](std::size_t i) { return candidates[i].value; },
      [&](std::size_t i) { return candidates[i].bid; }, weights, max_winners,
      allocation, penalties);
}

std::vector<double> critical_payments(const CandidateBatch& batch,
                                      const ScoreWeights& weights,
                                      std::size_t max_winners,
                                      const Allocation& allocation,
                                      const Penalties& penalties) {
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  return critical_payments_core(
      batch.size(), [&](std::size_t i) { return values[i]; },
      [&](std::size_t i) { return bids[i]; }, weights, max_winners, allocation,
      penalties);
}

const std::vector<double>& critical_payments(const CandidateBatch& batch,
                                             const ScoreWeights& weights,
                                             std::size_t max_winners,
                                             const Penalties& penalties,
                                             RoundScratch& scratch) {
  static const ShardedWdp serial_engine{ShardedWdpConfig{.shards = 1}};
  return serial_engine.critical_payments(batch, weights, max_winners,
                                         penalties, scratch);
}

namespace {

/// One winner's leave-one-out payment: builds the reduced slate into the
/// caller-provided buffers (capacity reused across winners within a lane),
/// re-solves, and returns the money-space externality payment. Shared by
/// the serial and parallel overloads, so every lane count runs the exact
/// same per-winner arithmetic.
double vcg_payment_for(const std::vector<Candidate>& candidates,
                       const ScoreWeights& weights, std::size_t max_winners,
                       const Allocation& allocation, const WdpSolver& solver,
                       const Penalties& penalties, std::size_t index,
                       std::vector<Candidate>& reduced,
                       Penalties& reduced_penalties) {
  const Candidate& winner =
      candidates[sfl::util::checked_index(index, candidates.size(), "winner")];

  // Re-solve without the winner.
  reduced.clear();
  reduced_penalties.clear();
  reduced.reserve(candidates.size() - 1);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i == index) continue;
    reduced.push_back(candidates[i]);
    if (!penalties.empty()) reduced_penalties.push_back(penalties[i]);
  }
  const Allocation without =
      solver(reduced, weights, max_winners, reduced_penalties);

  // Money-space externality: b_i + (OPT(all) - OPT(-i)) / bid_weight.
  const double externality =
      (allocation.total_score - without.total_score) / weights.bid_weight;
  check_invariant(externality >= -1e-9, "negative VCG externality");
  return winner.bid + std::max(externality, 0.0);
}

}  // namespace

std::vector<double> vcg_payments(const std::vector<Candidate>& candidates,
                                 const ScoreWeights& weights,
                                 std::size_t max_winners,
                                 const Allocation& allocation,
                                 const WdpSolver& solver,
                                 const Penalties& penalties) {
  OracleScratch scratch;
  return vcg_payments(candidates, weights, max_winners, allocation, solver,
                      penalties, /*threads=*/1, scratch);
}

std::vector<double> vcg_payments(const std::vector<Candidate>& candidates,
                                 const ScoreWeights& weights,
                                 std::size_t max_winners,
                                 const Allocation& allocation,
                                 const WdpSolver& solver,
                                 const Penalties& penalties,
                                 std::size_t threads, OracleScratch& scratch) {
  require(static_cast<bool>(solver), "vcg_payments needs a WDP solver");
  require(weights.bid_weight > 0.0, "bid weight must be > 0");
  require(penalties.empty() || penalties.size() == candidates.size(),
          "penalties must be empty or one per candidate");

  const std::size_t winners = allocation.selected.size();
  std::vector<double> payments(winners, 0.0);

  std::size_t lanes = threads == 0
                          ? sfl::util::shared_pool().thread_count()
                          : threads;
  lanes = std::clamp<std::size_t>(lanes, 1, std::max<std::size_t>(winners, 1));
  if (static_cast<std::size_t>(scratch.lane_slates.size()) < lanes) {
    scratch.lane_slates.resize(lanes);
  }
  if (static_cast<std::size_t>(scratch.lane_penalties.size()) < lanes) {
    scratch.lane_penalties.resize(lanes);
  }

  if (lanes <= 1) {
    for (std::size_t j = 0; j < winners; ++j) {
      payments[j] = vcg_payment_for(candidates, weights, max_winners,
                                    allocation, solver, penalties,
                                    allocation.selected[j],
                                    scratch.lane_slates[0],
                                    scratch.lane_penalties[0]);
    }
    return payments;
  }

  // Each lane owns a contiguous winner span and its own reduced-slate
  // buffers; per-winner payments are independent, so any partition yields
  // bit-identical results. The pool's fn must not throw — lane errors are
  // parked and the first one rethrown after the join.
  std::vector<std::exception_ptr> lane_errors(lanes);
  sfl::util::shared_pool().parallel_for_chunks(
      winners, lanes,
      [&](std::size_t lane, std::size_t begin, std::size_t end) {
        try {
          for (std::size_t j = begin; j < end; ++j) {
            payments[j] = vcg_payment_for(candidates, weights, max_winners,
                                          allocation, solver, penalties,
                                          allocation.selected[j],
                                          scratch.lane_slates[lane],
                                          scratch.lane_penalties[lane]);
          }
        } catch (...) {
          lane_errors[lane] = std::current_exception();
        }
      });
  for (const std::exception_ptr& error : lane_errors) {
    if (error) std::rethrow_exception(error);
  }
  return payments;
}

MechanismResult make_result(const std::vector<Candidate>& candidates,
                            const Allocation& allocation,
                            std::vector<double> payments) {
  require(payments.size() == allocation.selected.size(),
          "one payment per winner required");
  MechanismResult result;
  result.winners.reserve(allocation.selected.size());
  for (const std::size_t index : allocation.selected) {
    result.winners.push_back(
        candidates[sfl::util::checked_index(index, candidates.size(), "winner")].id);
  }
  result.payments = std::move(payments);
  return result;
}

MechanismResult make_result(const CandidateBatch& batch,
                            const Allocation& allocation,
                            std::vector<double> payments) {
  require(payments.size() == allocation.selected.size(),
          "one payment per winner required");
  const std::span<const ClientId> ids = batch.ids();
  MechanismResult result;
  result.winners.reserve(allocation.selected.size());
  for (const std::size_t index : allocation.selected) {
    result.winners.push_back(
        ids[sfl::util::checked_index(index, batch.size(), "winner")]);
  }
  result.payments = std::move(payments);
  return result;
}

}  // namespace sfl::auction
