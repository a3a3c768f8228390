#include "auction/market_batch.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/require.h"
#include "util/simd.h"

namespace sfl::auction {

namespace {

using sfl::util::check_invariant;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("MarketBatch: " + what);
}

[[noreturn]] void fail_market(std::size_t k, const std::string& what) {
  fail("market " + std::to_string(k) + ": " + what);
}

/// The global greedy order over arena rows: score desc, ClientId asc, row
/// asc. Markets are appended in order, so the row tie-break is (market
/// index, row) lexicographically. All keys are distinct, so the order is a
/// pure function of the batch.
struct GreedyOrder {
  const double* scores;
  const ClientId* ids;
  bool operator()(std::size_t a, std::size_t b) const {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    if (ids[a] != ids[b]) return ids[a] < ids[b];
    return a < b;
  }
};

/// Scores every market's span into the arena-aligned scratch.scores.
void score_markets(const MarketBatch& batch, RoundScratch& scratch) {
  scratch.scores.resize(batch.total_rows());
  for (std::size_t k = 0; k < batch.market_count(); ++k) {
    const MarketView& view = batch.market(k);
    if (view.count == 0) continue;
    sfl::util::simd::score_span(
        batch.values().data() + view.offset, batch.bids().data() + view.offset,
        batch.market_penalties(k), scratch.scores.data() + view.offset,
        view.count, view.weights.value_weight, view.weights.bid_weight);
  }
}

/// The assignment set: sorted unique client ids, none assigned yet.
void reset_assignment(const MarketBatch& batch, RoundScratch& scratch) {
  const std::span<const ClientId> ids = batch.ids();
  scratch.exclusive_clients.assign(ids.begin(), ids.end());
  std::sort(scratch.exclusive_clients.begin(), scratch.exclusive_clients.end());
  scratch.exclusive_clients.erase(
      std::unique(scratch.exclusive_clients.begin(),
                  scratch.exclusive_clients.end()),
      scratch.exclusive_clients.end());
  scratch.exclusive_assigned.assign(scratch.exclusive_clients.size(), 0);
}

std::size_t client_rank(const RoundScratch& scratch, ClientId id) {
  return static_cast<std::size_t>(
      std::lower_bound(scratch.exclusive_clients.begin(),
                       scratch.exclusive_clients.end(), id) -
      scratch.exclusive_clients.begin());
}

/// Seats `row` in market k (which has capacity left) unless its client
/// already won somewhere. total_score accumulates in acceptance order —
/// the FP addition order both clears share.
void seat_if_unassigned(std::size_t k, std::size_t row,
                        const MarketBatch& batch, MarketBatchResult& result,
                        RoundScratch& scratch) {
  unsigned char& assigned =
      scratch.exclusive_assigned[client_rank(scratch, batch.ids()[row])];
  if (assigned != 0) return;
  assigned = 1;
  MarketBatchResult::Slot& slot = result.slot(k);
  result.selected_storage(k)[slot.count++] = row;
  slot.total_score += scratch.scores[row];
}

/// Thresholds + payments against the FINAL assignment (a row passed over
/// for a full market may have won elsewhere later, so pricing cannot
/// interleave with the greedy). Market k's threshold is its best score
/// among rows whose client ended unassigned, clamped at 0; every such
/// available loser is bounded by k's worst winner, so the critical bid is
/// always >= the winning bid. Leaves selected rows market-local, ascending.
void price_markets(const MarketBatch& batch, MarketBatchResult& result,
                   const RoundScratch& scratch) {
  const std::span<const ClientId> ids = batch.ids();
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  const double* const scores = scratch.scores.data();
  for (std::size_t k = 0; k < batch.market_count(); ++k) {
    const MarketView& view = batch.market(k);
    const MarketBatchResult::Slot& slot = result.slot(k);
    if (slot.count == 0) continue;
    const std::span<std::size_t> selected = result.selected_storage(k);
    const std::span<double> payments = result.payments_storage(k);
    std::sort(selected.begin(),
              selected.begin() + static_cast<std::ptrdiff_t>(slot.count));

    double threshold = 0.0;  // max() against 0 is the clamp
    for (std::size_t i = view.offset; i < view.offset + view.count; ++i) {
      if (scores[i] <= threshold) continue;
      // Assigned covers this market's own winners, so any survivor here is
      // a true available loser.
      if (scratch.exclusive_assigned[client_rank(scratch, ids[i])] != 0) {
        continue;
      }
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

/// The frame both clears share: validate, lay out the result, score, run
/// `assign` (the greedy acceptance), price. A throw after validation
/// re-zeroes the result before it escapes, so callers never observe a
/// half-written arena.
template <typename Assign>
void clear_with(const MarketBatch& batch, MarketBatchResult& result,
                RoundScratch& scratch, Assign assign) {
  batch.validate();
  result.reset(batch);
  try {
    score_markets(batch, scratch);
    reset_assignment(batch, scratch);
    assign();
    price_markets(batch, result, scratch);
  } catch (...) {
    result.reset(batch);
    throw;
  }
}

}  // namespace

void MarketBatch::clear() noexcept {
  ids_.clear();
  values_.clear();
  bids_.clear();
  penalties_.clear();
  any_penalties_ = false;
  markets_.clear();
}

void MarketBatch::reserve(std::size_t markets, std::size_t rows) {
  markets_.reserve(markets);
  ids_.reserve(rows);
  values_.reserve(rows);
  bids_.reserve(rows);
}

void MarketBatch::append_market(const CandidateBatch& batch,
                                std::size_t max_winners,
                                const ScoreWeights& weights,
                                std::span<const double> penalties) {
  if (!penalties.empty() && penalties.size() != batch.size()) {
    fail("penalties must be empty or one per row");
  }
  MarketView view;
  view.offset = ids_.size();
  view.count = batch.size();
  view.max_winners = max_winners;
  view.weights = weights;

  const auto batch_ids = batch.ids();
  const auto batch_values = batch.values();
  const auto batch_bids = batch.bids();
  ids_.insert(ids_.end(), batch_ids.begin(), batch_ids.end());
  values_.insert(values_.end(), batch_values.begin(), batch_values.end());
  bids_.insert(bids_.end(), batch_bids.begin(), batch_bids.end());

  if (!penalties.empty()) {
    // First market with penalties backfills zeros for every earlier row, so
    // the arena stays row-aligned with the candidate arrays.
    penalties_.resize(view.offset, 0.0);
    penalties_.insert(penalties_.end(), penalties.begin(), penalties.end());
    any_penalties_ = true;
    view.has_penalties = true;
  } else if (any_penalties_) {
    penalties_.resize(ids_.size(), 0.0);
  }
  markets_.push_back(view);
}

void MarketBatch::validate() const {
  for (std::size_t k = 0; k < markets_.size(); ++k) {
    const ScoreWeights& weights = markets_[k].weights;
    if (!std::isfinite(weights.value_weight) ||
        !std::isfinite(weights.bid_weight)) {
      fail_market(k, "weights must be finite");
    }
    if (weights.bid_weight <= 0.0) {
      fail_market(k, "bid weight must be > 0 (otherwise bids do not matter)");
    }
    if (weights.value_weight < 0.0) {
      fail_market(k, "value weight must be >= 0");
    }
  }
}

void MarketBatchResult::reset(const MarketBatch& batch) {
  const std::size_t markets = batch.market_count();
  slots_.resize(markets);
  std::size_t total = 0;
  for (std::size_t k = 0; k < markets; ++k) {
    const MarketView& view = batch.market(k);
    Slot& slot = slots_[k];
    slot.offset = total;
    slot.capacity = std::min(view.max_winners, view.count);
    slot.count = 0;
    slot.total_score = 0.0;
    total += slot.capacity;
  }
  selected_.assign(total, 0);
  payments_.assign(total, 0.0);
}

void clear_exclusive(const MarketBatch& batch, MarketBatchResult& result,
                     RoundScratch& scratch) {
  clear_with(batch, result, scratch, [&] {
    const std::size_t market_count = batch.market_count();
    const double* const scores = scratch.scores.data();
    const GreedyOrder better{scores, batch.ids().data()};

    // Fully sort every market's span (no top-(m+1) pruning: exclusivity can
    // reach arbitrarily deep into a market whose best rows lose their
    // clients elsewhere).
    scratch.order.resize(batch.total_rows());
    std::size_t* const order = scratch.order.data();
    for (std::size_t k = 0; k < market_count; ++k) {
      const MarketView& view = batch.market(k);
      std::iota(order + view.offset, order + view.offset + view.count,
                view.offset);
      std::sort(order + view.offset, order + view.offset + view.count, better);
    }

    // Merge the per-market cursors through a heap: the top is always the
    // globally best remaining row, so rows are visited in exactly the
    // reference's order. A market leaves the heap once it fills — its
    // remaining rows could never be accepted, and the reference never marks
    // their clients either.
    scratch.exclusive_cursor.assign(market_count, 0);
    scratch.exclusive_heap.clear();
    const auto cursor_row = [&](std::size_t k) {
      return order[batch.market(k).offset + scratch.exclusive_cursor[k]];
    };
    // std::*_heap keeps the comp-largest element on top; "largest" here must
    // be the market whose current row is globally best.
    const auto heap_less = [&](std::size_t ka, std::size_t kb) {
      return better(cursor_row(kb), cursor_row(ka));
    };
    for (std::size_t k = 0; k < market_count; ++k) {
      if (result.slot(k).capacity == 0) continue;  // empty or m = 0
      scratch.exclusive_heap.push_back(k);
    }
    std::make_heap(scratch.exclusive_heap.begin(),
                   scratch.exclusive_heap.end(), heap_less);

    while (!scratch.exclusive_heap.empty()) {
      const std::size_t k = scratch.exclusive_heap.front();
      const std::size_t row = cursor_row(k);
      if (scores[row] <= 0.0) break;  // the best remaining row
      std::pop_heap(scratch.exclusive_heap.begin(),
                    scratch.exclusive_heap.end(), heap_less);
      scratch.exclusive_heap.pop_back();

      seat_if_unassigned(k, row, batch, result, scratch);
      ++scratch.exclusive_cursor[k];
      const MarketBatchResult::Slot& slot = result.slot(k);
      if (scratch.exclusive_cursor[k] < batch.market(k).count &&
          slot.count < slot.capacity) {
        scratch.exclusive_heap.push_back(k);
        std::push_heap(scratch.exclusive_heap.begin(),
                       scratch.exclusive_heap.end(), heap_less);
      }
    }
  });
}

void clear_exclusive_reference(const MarketBatch& batch,
                               MarketBatchResult& result,
                               RoundScratch& scratch) {
  clear_with(batch, result, scratch, [&] {
    const std::size_t total = batch.total_rows();
    const double* const scores = scratch.scores.data();

    scratch.exclusive_market_of.resize(total);
    for (std::size_t k = 0; k < batch.market_count(); ++k) {
      const MarketView& view = batch.market(k);
      std::fill_n(scratch.exclusive_market_of.begin() +
                      static_cast<std::ptrdiff_t>(view.offset),
                  view.count, k);
    }

    // Sort ALL rows under the global greedy order, then accept each row in
    // turn iff its market has capacity left and its client is unassigned.
    scratch.order.resize(total);
    std::iota(scratch.order.begin(), scratch.order.end(), std::size_t{0});
    std::sort(scratch.order.begin(), scratch.order.end(),
              GreedyOrder{scores, batch.ids().data()});
    for (const std::size_t row : scratch.order) {
      if (scores[row] <= 0.0) break;  // sorted; the rest are <= 0 too
      const std::size_t k = scratch.exclusive_market_of[row];
      const MarketBatchResult::Slot& slot = result.slot(k);
      if (slot.count >= slot.capacity) continue;
      seat_if_unassigned(k, row, batch, result, scratch);
    }
  });
}

}  // namespace sfl::auction
