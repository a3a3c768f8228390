// ShardedWdp: the multi-threaded, allocation-free WDP + payment engine.
//
// One auction round is three passes over the CandidateBatch arrays:
//   1. shard: the batch is split into `shards` contiguous spans with the
//      thread pool's stable chunk layout; each shard scores its span into
//      the shared scratch.scores array and partially selects its local
//      top-(m+1) with nth_element (m+1, not m, so the merged survivor set
//      provably contains the best global loser — the payment threshold —
//      as well as every global winner);
//   2. merge: the <= shards*(m+1) survivors are sorted under the exact
//      serial total order (score desc, ClientId asc, index asc) and the
//      global top-m positive-score prefix becomes the allocation. Select-
//      then-merge is EXACT for the modular objective: each global winner is
//      within the top-m of its own shard, and the best loser within the
//      top-(m+1), so nothing the merge needs is ever dropped.
//   3. price: critical payments from the merged order — the threshold is
//      the best non-selected survivor's score (clamped at 0), identical to
//      the serial best-loser scan but O(shards*m) instead of O(n).
//
// Exactness contract: for ANY shard count, the allocation and payments are
// bit-identical to the serial select_top_m + critical_payments pair on the
// same inputs (the scoring arithmetic, comparator, and payment formula are
// the same IEEE expressions; the selected set is unique under the strict
// total order). shards=1 runs fully inline without touching the pool.
//
// Scratch ownership: the caller owns the RoundScratch and must not share it
// across concurrent rounds. The engine only resizes within capacity at
// steady state, so a warmed-up round performs zero heap allocations.
#pragma once

#include <cstddef>
#include <vector>

#include "auction/candidate_batch.h"
#include "auction/round_scratch.h"
#include "auction/types.h"
#include "util/thread_pool.h"

namespace sfl::auction {

struct ShardedWdpConfig {
  /// Number of contiguous batch spans scored/selected independently.
  /// 0 = auto (the pool's thread count, i.e. hardware concurrency);
  /// 1 = serial (bit-identical to select_top_m + critical_payments, no
  /// pool involvement). Shard count is a logical partition, not a thread
  /// count: results are identical on any machine.
  std::size_t shards = 0;
};

class ShardedWdp {
 public:
  /// `pool` may be null: rounds that actually run more than one shard then
  /// execute on util::shared_pool() (resolved at the call site, so a
  /// serial engine never spawns threads).
  explicit ShardedWdp(ShardedWdpConfig config = {},
                      sfl::util::ThreadPool* pool = nullptr);

  /// The shard count a round over `n` candidates would use (>= 1, <= n
  /// except that n = 0 still reports 1).
  [[nodiscard]] std::size_t effective_shards(std::size_t n) const;

  [[nodiscard]] const ShardedWdpConfig& config() const noexcept {
    return config_;
  }

  /// Scores the batch into scratch.scores and writes the exact top-m
  /// allocation into scratch.allocation (also returned). Bit-identical to
  /// the serial select_top_m overloads for every shard count.
  const Allocation& select_top_m(const CandidateBatch& batch,
                                 const ScoreWeights& weights,
                                 std::size_t max_winners,
                                 const Penalties& penalties,
                                 RoundScratch& scratch) const;

  /// Critical-value payments for scratch.allocation, written into
  /// scratch.payments (also returned). Requires select_top_m to have run on
  /// the same scratch/batch/weights/penalties — the merged survivor order
  /// and scores are reused, so no O(n) re-scan happens.
  const std::vector<double>& critical_payments(
      const CandidateBatch& batch, const ScoreWeights& weights,
      std::size_t max_winners, const Penalties& penalties,
      RoundScratch& scratch) const;

  /// One full round: select + price. Equivalent to calling the two methods
  /// above in sequence; allocation lands in scratch.allocation, payments in
  /// scratch.payments. Zero heap allocations at steady state.
  void run_round(const CandidateBatch& batch, const ScoreWeights& weights,
                 std::size_t max_winners, const Penalties& penalties,
                 RoundScratch& scratch) const;

 private:
  ShardedWdpConfig config_;
  sfl::util::ThreadPool* const pool_;  ///< null = util::shared_pool()
};

}  // namespace sfl::auction
