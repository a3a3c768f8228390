#include "auction/wdp_engine.h"

#include <algorithm>

#include "util/require.h"
#include "util/simd.h"

namespace sfl::auction {

namespace {

using sfl::util::check_invariant;

/// The cross-market exclusive clearing, serial reference shape: score every
/// market's span, sort ALL covered rows under the global greedy order
/// (score desc, ClientId asc, global row index asc — the index tie-break
/// encodes (market index, row) lexicographically because markets are
/// ordered and disjoint), then accept each row in turn iff its market has
/// winner capacity left AND its client has not won anywhere yet. Payments
/// are priced against the constrained outcome: market k's threshold is the
/// best non-selected score in k among rows whose client ends the batch
/// unassigned anywhere (clamped at 0) — every such "available loser" is
/// bounded by k's worst winner (it was passed over only for capacity or
/// score reasons), so the critical bid is always >= the winning bid.
///
/// ShardedWdp's fused override computes the identical sequence with the
/// per-market sort parallelized and the global order recovered by a k-way
/// cursor merge; the exclusivity property harness pins the two (and the
/// per-market-with-conflict-resolution reference) bit-for-bit.
void run_rounds_exclusive(const MarketBatch& batch, MarketBatchResult& result,
                          RoundScratch& scratch) {
  const std::size_t total = batch.total_rows();
  const std::size_t market_count = batch.market_count();
  const std::span<const ClientId> ids = batch.ids();
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();

  scratch.scores.resize(total);
  scratch.order.clear();
  scratch.exclusive_market_of.resize(total);
  double* const scores = scratch.scores.data();

  // Score every market's span and gather the covered rows (view-mode
  // arenas may have rows outside every market; they take no part).
  for (std::size_t k = 0; k < market_count; ++k) {
    const MarketView& view = batch.market(k);
    if (view.count == 0) continue;
    sfl::util::simd::score_span(
        values.data() + view.offset, bids.data() + view.offset,
        batch.market_penalties(k), scores + view.offset, view.count,
        view.weights.value_weight, view.weights.bid_weight);
    for (std::size_t i = view.offset; i < view.offset + view.count; ++i) {
      scratch.exclusive_market_of[i] = k;
      scratch.order.push_back(i);
    }
  }

  // The global greedy order. All keys are distinct (final index tie-break),
  // so the sequence is a pure function of the batch.
  const auto better = [scores, ids](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    if (ids[a] != ids[b]) return ids[a] < ids[b];
    return a < b;
  };
  std::sort(scratch.order.begin(), scratch.order.end(), better);

  // Assignment set keyed by rank in the sorted-unique client list.
  scratch.exclusive_clients.clear();
  for (const std::size_t row : scratch.order) {
    scratch.exclusive_clients.push_back(ids[row]);
  }
  std::sort(scratch.exclusive_clients.begin(), scratch.exclusive_clients.end());
  scratch.exclusive_clients.erase(
      std::unique(scratch.exclusive_clients.begin(),
                  scratch.exclusive_clients.end()),
      scratch.exclusive_clients.end());
  scratch.exclusive_assigned.assign(scratch.exclusive_clients.size(), 0);
  const auto rank_of = [&scratch](ClientId id) {
    return static_cast<std::size_t>(
        std::lower_bound(scratch.exclusive_clients.begin(),
                         scratch.exclusive_clients.end(), id) -
        scratch.exclusive_clients.begin());
  };

  // Greedy acceptance. total_score accumulates in acceptance order — the
  // FP addition order is part of the bit-exactness contract with the fused
  // merge.
  for (const std::size_t row : scratch.order) {
    if (scores[row] <= 0.0) break;  // sorted; the rest are <= 0 too
    const std::size_t k = scratch.exclusive_market_of[row];
    MarketBatchResult::Slot& slot = result.slot(k);
    // capacity == min(max_winners, count): the market's winner cap.
    if (slot.count >= slot.capacity) continue;
    const std::size_t rank = rank_of(ids[row]);
    if (scratch.exclusive_assigned[rank] != 0) continue;
    scratch.exclusive_assigned[rank] = 1;
    result.selected_storage(k)[slot.count++] = row;
    slot.total_score += scores[row];
  }

  // Thresholds + payments against the FINAL assignment (a row skipped for
  // a full market may have won elsewhere later, so this cannot interleave
  // with the greedy).
  for (std::size_t k = 0; k < market_count; ++k) {
    const MarketView& view = batch.market(k);
    MarketBatchResult::Slot& slot = result.slot(k);
    if (slot.count == 0) continue;
    const std::span<std::size_t> selected = result.selected_storage(k);
    const std::span<double> payments = result.payments_storage(k);
    std::sort(selected.begin(),
              selected.begin() + static_cast<std::ptrdiff_t>(slot.count));

    double threshold = 0.0;  // max() against 0 is the clamp
    for (std::size_t i = view.offset; i < view.offset + view.count; ++i) {
      if (scores[i] <= threshold) continue;
      if (scratch.exclusive_assigned[rank_of(ids[i])] != 0) continue;
      // Assigned covers this market's own winners, so any survivor here is
      // a true available loser.
      threshold = scores[i];
    }

    const double vw = view.weights.value_weight;
    const double bw = view.weights.bid_weight;
    const double* const penalties = batch.market_penalties(k);
    for (std::size_t w = 0; w < slot.count; ++w) {
      const std::size_t row = selected[w];
      const double penalty =
          penalties == nullptr ? 0.0 : penalties[row - view.offset];
      const double critical_bid = (vw * values[row] - penalty - threshold) / bw;
      check_invariant(critical_bid >= bids[row] - 1e-9,
                      "critical payment below the winning bid");
      payments[w] = std::max(critical_bid, bids[row]);
    }
    for (std::size_t w = 0; w < slot.count; ++w) selected[w] -= view.offset;
  }
}

}  // namespace

void WdpEngine::run_rounds(const MarketBatch& batch, MarketBatchResult& result,
                           RoundScratch& scratch) const {
  // Validation throws before any market is scored and before the result is
  // touched — exception-atomicity is part of the run_rounds contract.
  batch.validate();
  result.reset(batch);

  if (batch.exclusive()) {
    // Cross-market exclusivity is a batch-level constraint, not a
    // per-market round, so every engine clears it through this serial
    // greedy on the caller's thread.
    try {
      run_rounds_exclusive(batch, result, scratch);
    } catch (...) {
      result.reset(batch);
      throw;
    }
    return;
  }

  const std::span<const ClientId> ids = batch.ids();
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  const std::span<const double> energy_costs = batch.energy_costs();

  CandidateBatch market_slate;
  Penalties market_penalties;
  // A mid-batch throw (an invariant failure in one market's round) must not
  // publish the markets already gathered: the arena is re-zeroed to its
  // reset layout before the exception escapes, so callers never observe a
  // half-written result.
  try {
    for (std::size_t k = 0; k < batch.market_count(); ++k) {
      const MarketView& view = batch.market(k);
      market_slate.clear();
      market_slate.reserve(view.count);
      for (std::size_t i = view.offset; i < view.offset + view.count; ++i) {
        market_slate.emplace(ids[i], values[i], bids[i], energy_costs[i]);
      }
      market_penalties.clear();
      if (const double* penalties = batch.market_penalties(k);
          penalties != nullptr) {
        market_penalties.assign(penalties, penalties + view.count);
      }
      run_round(market_slate, view.weights, view.max_winners, market_penalties,
                scratch);

      // allocation.selected is already market-local (indices into the
      // gathered slate) and ascending — exactly the slot layout.
      const Allocation& allocation = scratch.allocation;
      MarketBatchResult::Slot& slot = result.slot(k);
      const std::span<std::size_t> selected = result.selected_storage(k);
      const std::span<double> payments = result.payments_storage(k);
      slot.count = allocation.selected.size();
      slot.total_score = allocation.total_score;
      std::copy(allocation.selected.begin(), allocation.selected.end(),
                selected.begin());
      std::copy(scratch.payments.begin(), scratch.payments.end(),
                payments.begin());
    }
  } catch (...) {
    result.reset(batch);
    throw;
  }
}

}  // namespace sfl::auction
