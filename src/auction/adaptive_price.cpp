#include "auction/adaptive_price.h"

#include <algorithm>
#include <cmath>

#include "auction/baselines.h"
#include "auction/payments.h"
#include "util/require.h"

namespace sfl::auction {

using sfl::util::require;

AdaptivePostedPriceMechanism::AdaptivePostedPriceMechanism(
    const AdaptivePriceConfig& config)
    : config_(config), price_(config.initial_price) {
  require(config.initial_price > 0.0, "initial price must be > 0");
  require(config.step > 0.0 && config.step < 1.0, "step must be in (0, 1)");
  require(config.min_price > 0.0, "min price must be > 0");
  require(config.max_price >= config.min_price,
          "max price must be >= min price");
  price_ = std::clamp(price_, config_.min_price, config_.max_price);
}

MechanismResult AdaptivePostedPriceMechanism::run_round(
    const CandidateBatch& batch, const RoundContext& context) {
  require(std::isfinite(context.per_round_budget) && context.per_round_budget > 0.0,
          "adaptive price needs a finite positive per-round budget");
  last_budget_ = context.per_round_budget;
  round_open_ = true;  // re-arms the one-price-update-per-round guard

  Allocation allocation;
  allocation.selected = posted_price_winners(batch.values(), batch.bids(),
                                             price_, context.max_winners);
  std::vector<double> payments(allocation.selected.size(), price_);
  return make_result(batch, allocation, std::move(payments));
}

void AdaptivePostedPriceMechanism::settle(const RoundSettlement& settlement) {
  if (last_budget_ <= 0.0) return;  // run_round not called yet
  // With the round closed (a settlement already applied since the last
  // run_round), only a genuine empty-round report (no delivered winners, no
  // spend — the orchestrator's empty-slate path, which never calls
  // run_round) may still step the price; any substantive closed-round
  // report is a retry and is dropped.
  if (!round_open_ &&
      (settlement.delivered_count() != 0 || settlement.total_payment != 0.0)) {
    return;
  }
  round_open_ = false;
  if (settlement.total_payment > last_budget_) {
    price_ *= 1.0 - config_.step;
  } else if (settlement.total_payment < last_budget_) {
    price_ *= 1.0 + config_.step;
  }
  price_ = std::clamp(price_, config_.min_price, config_.max_price);
}

}  // namespace sfl::auction
