// MarketBatch: several requesters' markets over ONE shared client pool,
// cleared together under cross-market exclusivity.
//
// The multi-requester scenario (core::run_multi_requester_market) runs one
// LTO-VCG mechanism per requester, but a client can train for at most one
// requester per round, so the requesters' rounds cannot clear one by one.
// Each requester appends its slate (rows copied into one SoA arena) with
// its own weights, winner cap and penalties; clear_exclusive then resolves
// every client to AT MOST ONE market of the batch under the global greedy
// order (score desc, ClientId asc, market index asc, row asc). Winners'
// critical payments are priced against the constrained outcome: market k's
// threshold is the best score in k among rows whose client ends the batch
// unassigned ANYWHERE (the best available loser), clamped at 0 — which
// degenerates to the per-market best-loser rule when client pools are
// disjoint. A client with rows in several markets (or duplicate rows in
// one market) wins at most one row in total.
//
// Two implementations compute the same assignment: clear_exclusive, the
// production clear (per-market sorts joined by a cursor merge), and
// clear_exclusive_reference, the global-sort greedy the tests compare it
// against. Both call validate() first, so malformed weights throw
// std::invalid_argument before any market is scored, leaving the result
// untouched (exception-atomic).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "auction/candidate_batch.h"
#include "auction/round_scratch.h"
#include "auction/types.h"

namespace sfl::auction {

/// One market's descriptor inside a MarketBatch.
struct MarketView {
  std::size_t offset = 0;       ///< first arena row
  std::size_t count = 0;        ///< rows in this market (0 is legal)
  std::size_t max_winners = 0;  ///< m (may exceed count)
  ScoreWeights weights{};
  /// False = this market's penalties are all zero (the penalty arena is not
  /// read for it, matching the empty-Penalties fast path bit for bit).
  bool has_penalties = false;
};

class MarketBatch {
 public:
  MarketBatch() = default;

  /// Forgets every market; owned capacity is kept.
  void clear() noexcept;
  void reserve(std::size_t markets, std::size_t rows);

  /// Copies `batch` into the arena as the next market. `penalties` must be
  /// empty or one per row (copied; the caller's buffer may be reused
  /// immediately). Throws std::invalid_argument on a size mismatch.
  void append_market(const CandidateBatch& batch, std::size_t max_winners,
                     const ScoreWeights& weights,
                     std::span<const double> penalties = {});

  [[nodiscard]] std::size_t market_count() const noexcept {
    return markets_.size();
  }
  [[nodiscard]] std::size_t total_rows() const noexcept { return ids_.size(); }
  [[nodiscard]] const MarketView& market(std::size_t k) const {
    return markets_[k];
  }

  [[nodiscard]] std::span<const ClientId> ids() const noexcept { return ids_; }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::span<const double> bids() const noexcept { return bids_; }

  /// Market k's penalty rows (arena-aligned), or null when the market has
  /// none — the caller must then score with all-zero penalties.
  [[nodiscard]] const double* market_penalties(std::size_t k) const noexcept {
    return markets_[k].has_penalties ? penalties_.data() + markets_[k].offset
                                     : nullptr;
  }

  /// Weight check, run by both clears BEFORE any market is scored: weights
  /// finite with bid_weight > 0 and value_weight >= 0. Throws
  /// std::invalid_argument naming the offending market.
  void validate() const;

 private:
  std::vector<ClientId> ids_;
  std::vector<double> values_;
  std::vector<double> bids_;
  /// Arena-aligned penalties, zero-filled lazily on the first market that
  /// actually carries any; stays empty (never allocated) otherwise.
  std::vector<double> penalties_;
  bool any_penalties_ = false;
  std::vector<MarketView> markets_;
};

/// Per-market results of one exclusive clear: winners (market-LOCAL row
/// indices, ascending) and critical payments, in flat arenas laid out by
/// reset().
class MarketBatchResult {
 public:
  struct Slot {
    std::size_t offset = 0;    ///< into the selected/payments arenas
    std::size_t capacity = 0;  ///< min(max_winners, count)
    std::size_t count = 0;     ///< winners actually selected
    double total_score = 0.0;
  };

  /// Lays out one slot per market of `batch` (prefix-sum of capacities) and
  /// zeroes counts/scores. Capacity is reused across calls.
  void reset(const MarketBatch& batch);

  [[nodiscard]] std::size_t market_count() const noexcept {
    return slots_.size();
  }
  /// Market k's winners as market-local row indices, ascending.
  [[nodiscard]] std::span<const std::size_t> selected(std::size_t k) const {
    const Slot& slot = slots_[k];
    return {selected_.data() + slot.offset, slot.count};
  }
  /// Market k's payments, aligned with selected(k).
  [[nodiscard]] std::span<const double> payments(std::size_t k) const {
    const Slot& slot = slots_[k];
    return {payments_.data() + slot.offset, slot.count};
  }
  [[nodiscard]] double total_score(std::size_t k) const {
    return slots_[k].total_score;
  }

  // Clear-facing mutable access (capacity-sized spans; the clear stamps
  // slot(k).count with how many it filled).
  [[nodiscard]] Slot& slot(std::size_t k) { return slots_[k]; }
  [[nodiscard]] std::span<std::size_t> selected_storage(std::size_t k) {
    const Slot& s = slots_[k];
    return {selected_.data() + s.offset, s.capacity};
  }
  [[nodiscard]] std::span<double> payments_storage(std::size_t k) {
    const Slot& s = slots_[k];
    return {payments_.data() + s.offset, s.capacity};
  }

 private:
  std::vector<Slot> slots_;
  std::vector<std::size_t> selected_;
  std::vector<double> payments_;
};

/// The production exclusive clear, on the caller's thread: scores and
/// fully sorts every market's span, then merges the per-market cursors
/// through a heap, which visits rows in exactly the global greedy order.
/// Bit-identical to clear_exclusive_reference on every batch.
void clear_exclusive(const MarketBatch& batch, MarketBatchResult& result,
                     RoundScratch& scratch);

/// The reference shape of the same clear: one global sort of every row,
/// then greedy acceptance. Kept for the tests that pin clear_exclusive.
void clear_exclusive_reference(const MarketBatch& batch,
                               MarketBatchResult& result,
                               RoundScratch& scratch);

}  // namespace sfl::auction
