#include "auction/baselines.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "auction/payments.h"
#include "auction/winner_determination.h"
#include "util/require.h"

namespace sfl::auction {

using sfl::util::require;

MechanismResult MyopicVcgMechanism::run_round(const CandidateBatch& batch,
                                              const RoundContext& context) {
  const ScoreWeights weights{.value_weight = 1.0, .bid_weight = 1.0};
  const Allocation allocation =
      select_top_m(batch, weights, context.max_winners);
  std::vector<double> payments =
      critical_payments(batch, weights, context.max_winners, allocation);
  return make_result(batch, allocation, std::move(payments));
}

MechanismResult PayAsBidGreedyMechanism::run_round(const CandidateBatch& batch,
                                                   const RoundContext& context) {
  const ScoreWeights weights{.value_weight = 1.0, .bid_weight = 1.0};
  const Allocation allocation =
      select_top_m(batch, weights, context.max_winners);
  const std::span<const double> bids = batch.bids();
  std::vector<double> payments;
  payments.reserve(allocation.selected.size());
  for (const std::size_t index : allocation.selected) {
    payments.push_back(bids[index]);
  }
  return make_result(batch, allocation, std::move(payments));
}

FixedPriceMechanism::FixedPriceMechanism(double price) : price_(price) {
  require(price > 0.0, "posted price must be > 0");
}

std::vector<std::size_t> posted_price_winners(std::span<const double> values,
                                              std::span<const double> bids,
                                              double price,
                                              std::size_t max_winners) {
  std::vector<std::size_t> accepting;
  for (std::size_t i = 0; i < bids.size(); ++i) {
    if (bids[i] <= price) accepting.push_back(i);
  }
  std::sort(accepting.begin(), accepting.end(),
            [&values](std::size_t a, std::size_t b) {
              if (values[a] != values[b]) return values[a] > values[b];
              return a < b;
            });
  if (accepting.size() > max_winners) {
    accepting.resize(max_winners);
  }
  std::sort(accepting.begin(), accepting.end());
  return accepting;
}

MechanismResult FixedPriceMechanism::run_round(const CandidateBatch& batch,
                                               const RoundContext& context) {
  Allocation allocation;
  allocation.selected = posted_price_winners(batch.values(), batch.bids(),
                                             price_, context.max_winners);
  std::vector<double> payments(allocation.selected.size(), price_);
  return make_result(batch, allocation, std::move(payments));
}

RandomSelectionMechanism::RandomSelectionMechanism(double stipend, std::uint64_t seed)
    : stipend_(stipend), rng_(seed) {
  require(stipend >= 0.0, "stipend must be >= 0");
}

MechanismResult RandomSelectionMechanism::run_round(const CandidateBatch& batch,
                                                    const RoundContext& context) {
  const std::size_t winners = std::min(context.max_winners, batch.size());
  Allocation allocation;
  if (winners > 0) {
    allocation.selected = rng_.sample_without_replacement(batch.size(), winners);
    std::sort(allocation.selected.begin(), allocation.selected.end());
  }
  std::vector<double> payments(allocation.selected.size(), stipend_);
  return make_result(batch, allocation, std::move(payments));
}

MechanismResult FirstBestOracleMechanism::run_round(const CandidateBatch& batch,
                                                    const RoundContext& context) {
  const ScoreWeights weights{.value_weight = 1.0, .bid_weight = 1.0};
  const Allocation allocation =
      select_top_m(batch, weights, context.max_winners);
  const std::span<const double> bids = batch.bids();
  std::vector<double> payments;
  payments.reserve(allocation.selected.size());
  for (const std::size_t index : allocation.selected) {
    payments.push_back(bids[index]);  // bid == true cost by contract
  }
  return make_result(batch, allocation, std::move(payments));
}

namespace {

constexpr std::size_t kNoOverride = static_cast<std::size_t>(-1);

/// Winners of the proportional-share allocation: sort by bid/value
/// (cost-effectiveness), take the largest prefix — capped at max_winners —
/// in which every member's bid fits its proportional share of the budget.
/// The rule is monotone in each bid (raising a bid moves the client later
/// in the order and only tightens its own share condition), which is what
/// makes Myerson critical payments truthful. `override_index`/`override_bid`
/// let the payment bisection probe one deviating bid without copying the
/// slate.
[[nodiscard]] std::vector<std::size_t> proportional_share_winners(
    std::span<const double> values, std::span<const double> bids,
    double budget, std::size_t max_winners,
    std::size_t override_index = kNoOverride, double override_bid = 0.0) {
  const auto bid_at = [&](std::size_t i) {
    return i == override_index ? override_bid : bids[i];
  };
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] > 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ra = bid_at(a) / values[a];
    const double rb = bid_at(b) / values[b];
    if (ra != rb) return ra < rb;
    return a < b;
  });

  std::vector<std::size_t> winners;
  double prefix_value = 0.0;
  for (std::size_t k = 0; k < order.size() && k < max_winners; ++k) {
    const std::size_t i = order[k];
    const double value_if_added = prefix_value + values[i];
    if (bid_at(i) > values[i] * budget / value_if_added) break;
    winners.push_back(i);
    prefix_value = value_if_added;
  }
  std::sort(winners.begin(), winners.end());
  return winners;
}

[[nodiscard]] bool contains(const std::vector<std::size_t>& sorted_items,
                            std::size_t item) {
  return std::binary_search(sorted_items.begin(), sorted_items.end(), item);
}

}  // namespace

BudgetedOracleMechanism::BudgetedOracleMechanism(double resolution,
                                                 std::size_t threads)
    : resolution_(resolution), threads_(threads) {
  require(resolution > 0.0, "knapsack resolution must be > 0");
}

MechanismResult BudgetedOracleMechanism::run_round(const CandidateBatch& batch,
                                                   const RoundContext& context) {
  require(std::isfinite(context.per_round_budget) && context.per_round_budget > 0.0,
          "budgeted oracle needs a finite positive per-round budget");
  const ScoreWeights weights{.value_weight = 1.0, .bid_weight = 1.0};
  const Allocation allocation =
      select_knapsack(batch, weights, context.per_round_budget,
                      context.max_winners, resolution_, {}, threads_, scratch_);
  const std::span<const double> bids = batch.bids();
  std::vector<double> payments;
  payments.reserve(allocation.selected.size());
  for (const std::size_t index : allocation.selected) {
    payments.push_back(bids[index]);  // bid == true cost by contract
  }
  return make_result(batch, allocation, std::move(payments));
}

GreedyConcaveMechanism::GreedyConcaveMechanism(double scale, std::size_t threads)
    : valuation_(scale), threads_(threads) {}

MechanismResult GreedyConcaveMechanism::run_round(const CandidateBatch& batch,
                                                  const RoundContext& context) {
  // The greedy oracle consumes AoS candidates (its marginal scan reads one
  // candidate at a time, not a streaming array pass); the gather reuses the
  // scratch slate so steady-state rounds stay allocation-free.
  const ScoreWeights weights{.value_weight = 1.0, .bid_weight = 1.0};
  std::vector<Candidate>& slate = scratch_.aos;
  slate.clear();
  slate.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) slate.push_back(batch.at(i));
  const Allocation allocation = select_greedy_concave(
      slate, valuation_, weights, context.max_winners, {}, threads_, scratch_);
  const std::span<const double> bids = batch.bids();
  std::vector<double> payments;
  payments.reserve(allocation.selected.size());
  for (const std::size_t index : allocation.selected) {
    payments.push_back(bids[index]);  // pay-as-bid
  }
  return make_result(batch, allocation, std::move(payments));
}

MyopicVcgExtMechanism::MyopicVcgExtMechanism(std::size_t threads)
    : threads_(threads) {}

MechanismResult MyopicVcgExtMechanism::run_round(const CandidateBatch& batch,
                                                 const RoundContext& context) {
  const ScoreWeights weights{.value_weight = 1.0, .bid_weight = 1.0};
  const Allocation allocation =
      select_top_m(batch, weights, context.max_winners);
  // The leave-one-out re-solves consume AoS slates; gather once into the
  // scratch and hand the parallel payment loop the serial AoS solver (pure,
  // no pool re-entry — safe to call from pool workers).
  std::vector<Candidate>& slate = scratch_.aos;
  slate.clear();
  slate.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) slate.push_back(batch.at(i));
  std::vector<double> payments = vcg_payments(
      slate, weights, context.max_winners, allocation,
      [](const std::vector<Candidate>& reduced, const ScoreWeights& w,
         std::size_t m, const Penalties& p) {
        return select_top_m(reduced, w, m, p);
      },
      {}, threads_, scratch_);
  return make_result(batch, allocation, std::move(payments));
}

MechanismResult ProportionalShareMechanism::run_round(
    const CandidateBatch& batch, const RoundContext& context) {
  require(std::isfinite(context.per_round_budget) && context.per_round_budget > 0.0,
          "proportional share needs a finite positive per-round budget");
  const double budget = context.per_round_budget;
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();

  Allocation allocation;
  allocation.selected =
      proportional_share_winners(values, bids, budget, context.max_winners);

  // Myerson critical payments by bisection: the largest bid at which the
  // winner keeps winning. Exactly truthful because the allocation is
  // monotone; budget-feasible because a winner's critical bid never exceeds
  // its proportional share (the share condition is part of winning).
  std::vector<double> payments;
  payments.reserve(allocation.selected.size());
  for (const std::size_t index : allocation.selected) {
    double lo = bids[index];  // known winning bid
    double hi = budget;       // a bid above B can never win
    if (lo >= hi) {
      payments.push_back(lo);
      continue;
    }
    for (int iteration = 0; iteration < 60; ++iteration) {
      const double mid = 0.5 * (lo + hi);
      if (contains(proportional_share_winners(values, bids, budget,
                                              context.max_winners, index, mid),
                   index)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    payments.push_back(lo);
  }
  return make_result(batch, allocation, std::move(payments));
}

}  // namespace sfl::auction
