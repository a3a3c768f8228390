// Winner determination for the affine-maximizer procurement auction.
//
// Three solvers:
//  - select_top_m: exact for the modular objective with a cardinality cap.
//    The production path: scores every candidate, then keeps the top m in
//    one streaming pass over the scores (select_top_rows: a bounded heap,
//    O(n log m) worst case, one compare per row that cannot enter) and
//    sorts just those m. An SoA overload consumes a CandidateBatch directly
//    so the hot loop streams over contiguous arrays.
//  - select_exhaustive: brute force over all subsets (n <= 24); the oracle
//    property tests compare against.
//  - select_knapsack: exact DP for the budget-constrained variant
//    (sum of bids <= budget), used by the budget-capped myopic baseline and
//    the scalability study.
// All solvers break score ties deterministically — by ClientId first (so the
// rule is a function of the market, not of slate order), then by candidate
// index — making the allocation a well-defined function of the bids.
//
// The comparison oracles (knapsack DP, concave greedy) additionally have
// `threads` + OracleScratch overloads that run on the shared thread pool
// with the same bit-exactness contract as the sharded WDP: every thread
// count (0 = auto, 1 = serial, k = exactly k lanes) produces bit-identical
// allocations, because lanes only partition independent per-element work
// (per-cell DP transitions, per-candidate gain evaluations) and every
// reduction happens under the serial strict total order.
#pragma once

#include <span>
#include <vector>

#include "auction/candidate_batch.h"
#include "auction/round_scratch.h"
#include "auction/types.h"

namespace sfl::auction {

/// Exact argmax of total score over subsets with |S| <= max_winners for the
/// modular objective: picks candidates with positive score, highest first.
/// `penalties` must be empty or one per candidate.
[[nodiscard]] Allocation select_top_m(const std::vector<Candidate>& candidates,
                                      const ScoreWeights& weights,
                                      std::size_t max_winners,
                                      const Penalties& penalties = {});

/// Batched SoA variant of select_top_m: identical selection (bit-for-bit
/// scores and tie-breaks), but scoring streams over the batch's contiguous
/// arrays. Candidate data is validated at CandidateBatch construction, not
/// here (SFL_VALIDATE=1 re-enables the full scan). This is the entry point
/// the scalability path measures.
[[nodiscard]] Allocation select_top_m(const CandidateBatch& batch,
                                      const ScoreWeights& weights,
                                      std::size_t max_winners,
                                      const Penalties& penalties = {});

/// Scratch-reusing serial variant: identical results to the allocating batch
/// overload, but scores, ordering buffers, and the allocation itself live in
/// the caller-owned RoundScratch, so a warmed-up round allocates nothing.
/// Returns scratch.allocation.
const Allocation& select_top_m(const CandidateBatch& batch,
                               const ScoreWeights& weights,
                               std::size_t max_winners,
                               const Penalties& penalties,
                               RoundScratch& scratch);

/// The strict total order every selection ranks rows by: score desc, then
/// ClientId asc, then index asc. The id tie-break makes the rule a function
/// of the market rather than of the slate's arrival order; the index
/// fallback keeps the order total under duplicate ids, so every top-k set is
/// unique. `operator()(a, b)` is true when row a ranks before row b.
struct RowOrder {
  const double* scores;
  const ClientId* ids;
  bool operator()(std::size_t a, std::size_t b) const {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    if (ids[a] != ids[b]) return ids[a] < ids[b];
    return a < b;
  }
};

/// Streaming top-k: writes the `keep` best rows of [begin, end) under
/// RowOrder into out[0, keep), unordered. Requires keep <= end - begin. One
/// pass over the span holding a bounded heap of `keep` rows whose front is
/// the worst kept row; a row scoring below that front is rejected with one
/// compare, so a typical slate costs O(span) and the worst case (an
/// ascending slate) O(span log keep). Both the serial selection and every
/// ShardedWdp shard select through this one function.
void select_top_rows(const RowOrder& order, std::size_t begin,
                     std::size_t end, std::size_t keep, std::size_t* out);

/// Shared selection core: given precomputed scores (aligned with `ids`),
/// returns the top-max_winners positive-score subset with deterministic
/// (score desc, ClientId asc, index asc) ordering. Exposed for solvers and
/// tests that already hold a score array.
[[nodiscard]] Allocation top_m_from_scores(std::span<const double> scores,
                                           std::span<const ClientId> ids,
                                           std::size_t max_winners);

/// Brute-force oracle (throws if candidates.size() > 24).
[[nodiscard]] Allocation select_exhaustive(const std::vector<Candidate>& candidates,
                                           const ScoreWeights& weights,
                                           std::size_t max_winners,
                                           const Penalties& penalties = {});

/// Exact knapsack DP: maximize total score subject to sum(bids) <= budget
/// and |S| <= max_winners. Bids are discretized to `resolution` (> 0) money
/// units; smaller resolution = more exact and more memory.
[[nodiscard]] Allocation select_knapsack(const std::vector<Candidate>& candidates,
                                         const ScoreWeights& weights,
                                         double budget, std::size_t max_winners,
                                         double resolution = 0.01,
                                         const Penalties& penalties = {});

/// Batched SoA knapsack: identical DP (and results) to the AoS overload,
/// scoring streamed over the batch arrays.
[[nodiscard]] Allocation select_knapsack(const CandidateBatch& batch,
                                         const ScoreWeights& weights,
                                         double budget, std::size_t max_winners,
                                         double resolution = 0.01,
                                         const Penalties& penalties = {});

/// Parallel scratch-reusing knapsack: each DP layer's (winners x budget)
/// plane is partitioned across the shared pool with a layer barrier (layer
/// `item` reads only layer `item - 1`, so lanes never race), bit-identical
/// to the serial DP at every thread count. `threads`: 0 = auto (hardware,
/// capped so lanes keep a useful span), 1 = serial (no pool touch), k =
/// exactly k lanes. The DP table and weight grid live in `scratch`, so
/// steady-state calls allocate nothing beyond the returned Allocation.
[[nodiscard]] Allocation select_knapsack(const std::vector<Candidate>& candidates,
                                         const ScoreWeights& weights,
                                         double budget, std::size_t max_winners,
                                         double resolution,
                                         const Penalties& penalties,
                                         std::size_t threads,
                                         OracleScratch& scratch);

/// Batched SoA variant of the parallel scratch-reusing knapsack.
[[nodiscard]] Allocation select_knapsack(const CandidateBatch& batch,
                                         const ScoreWeights& weights,
                                         double budget, std::size_t max_winners,
                                         double resolution,
                                         const Penalties& penalties,
                                         std::size_t threads,
                                         OracleScratch& scratch);

/// Greedy marginal-score selection for a concave (diminishing-returns) value
/// of total selected "mass" (see ConcaveValuation). Each step adds the
/// candidate maximizing the marginal gain under the strict total order
/// (gain desc, ClientId asc, index asc) among candidates whose gain exceeds
/// 1e-12; stops when none qualifies or max_winners is reached.
/// Approximation for the submodular WDP.
class ConcaveValuation;  // forward declaration (valuation.h)
[[nodiscard]] Allocation select_greedy_concave(const std::vector<Candidate>& candidates,
                                               const ConcaveValuation& valuation,
                                               const ScoreWeights& weights,
                                               std::size_t max_winners,
                                               const Penalties& penalties = {});

/// Parallel scratch-reusing greedy: each step's gain scan runs as a
/// per-chunk argmax on the shared pool, reduced across lanes under the same
/// strict total order the serial scan uses — so every thread count
/// (0 = auto, 1 = serial, k = exactly k lanes) selects the identical
/// prefix with bit-identical total_score. Gains and taken flags live in
/// `scratch`; steady-state calls allocate nothing beyond the returned
/// Allocation.
[[nodiscard]] Allocation select_greedy_concave(const std::vector<Candidate>& candidates,
                                               const ConcaveValuation& valuation,
                                               const ScoreWeights& weights,
                                               std::size_t max_winners,
                                               const Penalties& penalties,
                                               std::size_t threads,
                                               OracleScratch& scratch);

}  // namespace sfl::auction
