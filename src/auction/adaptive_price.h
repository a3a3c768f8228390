// Adaptive posted-price mechanism (online-learning baseline).
//
// Like FixedPriceMechanism, but the price tracks the long-term budget with
// a multiplicative update after each round: spend above B-bar lowers the
// price, spend below raises it. Posted prices are trivially truthful each
// round (payments are bid-independent); the interesting question — answered
// in the comparisons — is how much welfare simple price adaptation gives up
// versus queue-driven auction selection.
#pragma once

#include "auction/mechanism.h"

namespace sfl::auction {

struct AdaptivePriceConfig {
  double initial_price = 1.0;  ///< > 0
  double step = 0.05;          ///< multiplicative step in (0, 1)
  double min_price = 0.01;     ///< > 0
  double max_price = 100.0;    ///< >= min_price
};

class AdaptivePostedPriceMechanism final : public Mechanism {
 public:
  explicit AdaptivePostedPriceMechanism(const AdaptivePriceConfig& config);

  [[nodiscard]] std::string name() const override { return "adaptive-price"; }
  using Mechanism::run_round;
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override;
  /// One multiplicative price step per auction round: spend above the
  /// round's budget lowers the price, spend below raises it.
  void settle(const RoundSettlement& settlement) override;
  [[nodiscard]] bool is_truthful() const noexcept override { return true; }

  [[nodiscard]] double current_price() const noexcept { return price_; }

 private:
  AdaptivePriceConfig config_;
  double price_;
  double last_budget_ = 0.0;  ///< B-bar seen in the last run_round
  /// Per-round retry guard: a retried settlement for one auction round must
  /// not step the price twice. run_round opens the round; the first
  /// settlement closes it; a closed-round settlement is dropped unless it
  /// reports an empty round (no delivered winners, zero payment — the
  /// no-auction path, which has no run_round to re-open the guard).
  bool round_open_ = true;
};

}  // namespace sfl::auction
