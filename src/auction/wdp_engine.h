// WdpEngine: the winner-determination + payment engine contract.
//
// One auction round is "score the slate, select the exact top-m, price the
// winners at their critical values" against a caller-owned RoundScratch.
// ShardedWdp (serial at shards = 1, thread-sharded above) is the engine
// LongTermOnlineVcgMechanism clears on. This base class owns the reference
// behaviour every engine must match: the serial run_rounds loop over
// markets and the serial exclusive-batch greedy, which tests compare the
// fused ShardedWdp paths against and test fakes inherit.
//
// Exactness contract shared by every implementation: for the same
// (batch, weights, max_winners, penalties) inputs, allocation and payments
// are bit-identical to the serial select_top_m + critical_payments pair.
// Implementations may differ only in wall time.
//
// Methods are const: an engine is immutable configuration; all per-round
// state lives in the caller's RoundScratch.
#pragma once

#include <vector>

#include "auction/candidate_batch.h"
#include "auction/market_batch.h"
#include "auction/round_scratch.h"
#include "auction/types.h"

namespace sfl::auction {

class WdpEngine {
 public:
  virtual ~WdpEngine() = default;

  /// Scores the batch into scratch.scores and writes the exact top-m
  /// allocation into scratch.allocation (also returned).
  virtual const Allocation& select_top_m(const CandidateBatch& batch,
                                         const ScoreWeights& weights,
                                         std::size_t max_winners,
                                         const Penalties& penalties,
                                         RoundScratch& scratch) const = 0;

  /// Critical-value payments for scratch.allocation, written into
  /// scratch.payments (also returned). Requires select_top_m to have run on
  /// the same scratch/batch/weights/penalties.
  virtual const std::vector<double>& critical_payments(
      const CandidateBatch& batch, const ScoreWeights& weights,
      std::size_t max_winners, const Penalties& penalties,
      RoundScratch& scratch) const = 0;

  /// One full round: select + price. Default delegates to the two-phase
  /// methods above.
  virtual void run_round(const CandidateBatch& batch,
                         const ScoreWeights& weights, std::size_t max_winners,
                         const Penalties& penalties,
                         RoundScratch& scratch) const {
    select_top_m(batch, weights, max_winners, penalties, scratch);
    critical_payments(batch, weights, max_winners, penalties, scratch);
  }

  /// The cross-market batch axis: clears EVERY market of `batch` — each an
  /// independent (slate, weights, max_winners, penalties) round — in one
  /// call, writing per-market winners (market-local indices) and critical
  /// payments into `result`. Must first batch.validate() (throwing before
  /// any market is scored, `result` untouched), and each market's slot must
  /// be bit-identical to running that market alone through run_round.
  /// Exception-atomic END TO END: if any market's round throws mid-batch,
  /// `result` is restored to its reset(batch) layout (every slot zeroed)
  /// before the exception escapes — callers never observe a half-written
  /// arena. The default gathers each market into a temporary slate and
  /// loops run_round; ShardedWdp overrides with the fused lane-parallel
  /// implementation (same atomicity contract).
  ///
  /// When batch.exclusive() is set, the markets are NOT independent: every
  /// client wins in at most one market per call, resolved by a global
  /// greedy over (score desc, ClientId asc, market index asc, row asc),
  /// with critical payments priced against the constrained outcome (see
  /// MarketBatch::set_exclusive). Every implementation must produce
  /// bit-identical exclusive results to the serial reference in this base
  /// class; ShardedWdp does so with per-market sorts parallelized around a
  /// deterministic cursor merge.
  virtual void run_rounds(const MarketBatch& batch, MarketBatchResult& result,
                          RoundScratch& scratch) const;
};

}  // namespace sfl::auction
