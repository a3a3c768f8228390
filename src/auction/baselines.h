// Baseline mechanisms the paper class compares against.
//
// Each baseline isolates one failure mode the long-term online VCG fixes:
//  - MyopicVcgMechanism: truthful and welfare-greedy per round, but
//    budget-blind — overspends early and violates the long-term budget.
//  - PayAsBidGreedyMechanism: pays winners their bids; not truthful, so
//    strategic clients overbid and welfare degrades (E4).
//  - FixedPriceMechanism: truthful posted price; inefficient (pays the same
//    for cheap and expensive clients, misses high-value expensive ones).
//  - RandomSelectionMechanism: classic FedAvg sampling with a fixed stipend;
//    ignores both value and cost.
//  - FirstBestOracleMechanism: clairvoyant benchmark — sees true costs (fed
//    to it as bids), selects welfare-optimally and pays cost exactly. Not a
//    real mechanism (violates IR margins and truthfulness); used as the
//    regret reference.
//  - ProportionalShareMechanism: Singer-style budget-feasible truthful
//    mechanism; guarantees per-round payments <= budget at some welfare loss.
//
// Every baseline implements only the CandidateBatch run_round (streaming
// over the SoA arrays). The AoS overload is the base Mechanism's one
// gather-and-forward adapter, so both entry points agree bit-for-bit by
// construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "auction/mechanism.h"
#include "auction/round_scratch.h"
#include "auction/valuation.h"
#include "util/rng.h"

namespace sfl::auction {

/// Posted-price winners shared by the fixed and adaptive posted-price
/// rules: accepting clients (bid <= price), highest value first (index asc
/// on ties), capped at m, reported in index order.
[[nodiscard]] std::vector<std::size_t> posted_price_winners(
    std::span<const double> values, std::span<const double> bids, double price,
    std::size_t max_winners);

/// Per-round VCG: top-m by (value - bid), critical payments, no budget
/// awareness.
class MyopicVcgMechanism final : public Mechanism {
 public:
  MyopicVcgMechanism() = default;

  [[nodiscard]] std::string name() const override { return "myopic-vcg"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return true; }
};

/// Top-m by (value - bid), pay-as-bid. Strategically manipulable.
class PayAsBidGreedyMechanism final : public Mechanism {
 public:
  PayAsBidGreedyMechanism() = default;

  [[nodiscard]] std::string name() const override { return "pay-as-bid"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return false; }
};

/// Posted price: clients with bid <= price win (highest value first, capped
/// at m), each paid exactly `price`.
class FixedPriceMechanism final : public Mechanism {
 public:
  explicit FixedPriceMechanism(double price);

  [[nodiscard]] std::string name() const override { return "fixed-price"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return true; }

  [[nodiscard]] double price() const noexcept { return price_; }

 private:
  double price_;
};

/// Uniform random m clients, each paid a fixed stipend (bid-independent, so
/// trivially truthful — and trivially wasteful).
class RandomSelectionMechanism final : public Mechanism {
 public:
  RandomSelectionMechanism(double stipend, std::uint64_t seed);

  [[nodiscard]] std::string name() const override { return "random-stipend"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return true; }

 private:
  double stipend_;
  sfl::util::Rng rng_;
};

/// Clairvoyant first-best: expects bids to *be* the true costs, selects
/// top-m by (value - cost) and pays cost. Regret/upper-bound reference only.
class FirstBestOracleMechanism final : public Mechanism {
 public:
  FirstBestOracleMechanism() = default;

  [[nodiscard]] std::string name() const override { return "first-best-oracle"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return false; }
};

/// Clairvoyant *budget-feasible* benchmark: sees true costs (as bids),
/// solves the per-round knapsack max sum(value - cost) s.t. sum(cost) <=
/// per_round_budget and |S| <= m, pays cost. Satisfies the long-term budget
/// by construction; the gap between this and LTO-VCG is the information
/// rent a truthful mechanism must pay (E10).
class BudgetedOracleMechanism final : public Mechanism {
 public:
  /// `resolution` is the knapsack DP money grid; `threads` parallelizes
  /// each DP layer over the shared pool (0 = auto, 1 = serial, k = exactly
  /// k lanes) with bit-identical selections at every count.
  explicit BudgetedOracleMechanism(double resolution = 0.05,
                                   std::size_t threads = 1);

  [[nodiscard]] std::string name() const override { return "budgeted-oracle"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return false; }

 private:
  double resolution_;
  std::size_t threads_;
  OracleScratch scratch_;
};

/// Concave-valuation greedy (E12 ablation rule as a standalone mechanism):
/// winners are the greedy prefix under diminishing returns of total
/// selected mass (see select_greedy_concave), paid their bids. Not
/// truthful (pay-as-bid on a submodular objective); the approximation
/// reference for the concave WDP.
class GreedyConcaveMechanism final : public Mechanism {
 public:
  /// `scale` is the concave valuation's scale (g(x) = scale*log(1+x));
  /// `threads` parallelizes each greedy scan over the shared pool (0 =
  /// auto, 1 = serial, k = exactly k lanes) with bit-identical selections
  /// at every count.
  explicit GreedyConcaveMechanism(double scale = 20.0, std::size_t threads = 1);

  [[nodiscard]] std::string name() const override { return "greedy-concave"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return false; }

 private:
  ConcaveValuation valuation_;
  std::size_t threads_;
  OracleScratch scratch_;
};

/// Per-round VCG with explicit externality payments: the same top-m
/// allocation as myopic-vcg, but each winner's payment is computed by the
/// leave-one-out re-solve (bid + externality) instead of the closed-form
/// critical value. The two rules coincide for the modular objective, so
/// this mechanism is the m-times-costlier reference the payment-equality
/// tests compare against — and the natural host for the parallel VCG
/// payment loop.
class MyopicVcgExtMechanism final : public Mechanism {
 public:
  /// `threads` parallelizes the per-winner leave-one-out solves over the
  /// shared pool (0 = auto, 1 = serial, k = exactly k lanes) with
  /// bit-identical payments at every count.
  explicit MyopicVcgExtMechanism(std::size_t threads = 1);

  [[nodiscard]] std::string name() const override { return "myopic-vcg-ext"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return true; }

 private:
  std::size_t threads_;
  OracleScratch scratch_;
};

/// Budget-feasible proportional share (Singer 2010 style): winners are the
/// largest prefix of the bid/value order such that each winner's bid is at
/// most its proportional share of the round budget. Payments are exact
/// Myerson critical values (computed by bisection on the monotone
/// allocation), so truthful bidding is dominant; each critical bid is
/// bounded by the winner's proportional share, keeping the round
/// budget-feasible. The bisection probes re-run the allocation with one
/// bid overridden in place — no slate copy per probe.
class ProportionalShareMechanism final : public Mechanism {
 public:
  ProportionalShareMechanism() = default;

  [[nodiscard]] std::string name() const override { return "proportional-share"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return true; }
};

}  // namespace sfl::auction
