// RoundScratch: every buffer one auction round needs, owned by the caller
// and reused across rounds.
//
// The steady-state hot path (score N candidates, select top-m, price the
// winners) is allocation-free once these vectors have grown to the market's
// size: each round only clear()s and resize()s within existing capacity.
// One RoundScratch per CONCURRENT round; the buffers are NOT thread-safe
// to share, but the sharded WDP partitions them internally (each shard
// writes a disjoint span), so one scratch serves a parallel round. The
// scratch carries no state BETWEEN rounds, so several mechanisms whose
// rounds never overlap may share one warmed scratch
// (LtoVcgConfig.shared_scratch; bench::ScratchPool leases per-lane
// scratches to multi-mechanism comparison runs).
#pragma once

#include <cstddef>
#include <vector>

#include "auction/types.h"

namespace sfl::auction {

struct RoundScratch {
  /// phi_i for every candidate, aligned with the batch (size n).
  std::vector<double> scores;
  /// Mechanism-owned bid-independent penalties (size n or empty).
  Penalties penalties;
  /// Per-shard top-(m+1) survivors, then their merged order
  /// (<= shards * (m + 1) indices).
  std::vector<std::size_t> survivors;
  /// The round's allocation; `selected` capacity is reused.
  Allocation allocation;
  /// Per-winner payments aligned with allocation.selected.
  std::vector<double> payments;

  // Cross-market buffers of the exclusive clears (auction/market_batch.h).
  // Like every other member, they grow on first use and are reused after;
  // a single-market round never touches them.
  /// Arena row indices, sorted per market (size: arena rows).
  std::vector<std::size_t> order;
  /// Sorted unique ClientIds of the whole arena (assignment-set keys).
  std::vector<ClientId> exclusive_clients;
  /// One byte per exclusive_clients entry: 1 = already won somewhere.
  std::vector<unsigned char> exclusive_assigned;
  /// Row -> market index (the reference greedy walks a globally sorted
  /// order and must recover each row's market).
  std::vector<std::size_t> exclusive_market_of;
  /// Cursor-merge state: per-market cursor into the sorted order, and the
  /// heap of market indices keyed by each cursor's current row.
  std::vector<std::size_t> exclusive_cursor;
  std::vector<std::size_t> exclusive_heap;

  void clear() noexcept {
    scores.clear();
    order.clear();
    penalties.clear();
    survivors.clear();
    allocation.selected.clear();
    allocation.total_score = 0.0;
    payments.clear();
    exclusive_clients.clear();
    exclusive_assigned.clear();
    exclusive_market_of.clear();
    exclusive_cursor.clear();
    exclusive_heap.clear();
  }
};

/// Caller-owned buffers for the comparison oracles (VCG externality
/// payments, concave greedy, knapsack DP) — the slow-path pair of
/// RoundScratch. Same ownership contract: one OracleScratch per concurrent
/// round, no state carried between rounds, buffers grow on first use and
/// are reused after. The parallel oracle overloads partition these buffers
/// internally (per-lane slates, disjoint gain/DP spans), so one scratch
/// serves a parallel round. Steady-state oracle rounds are allocation-free
/// up to the VCG solver's own internals (the leave-one-out re-solve builds
/// its allocation through the caller-supplied WdpSolver, which may
/// allocate).
struct OracleScratch {
  /// Gathered AoS slate for batch-native mechanisms that feed AoS oracles.
  std::vector<Candidate> aos;
  /// Per-lane leave-one-out slates for the parallel VCG externality loop.
  std::vector<std::vector<Candidate>> lane_slates;
  /// Per-lane leave-one-out penalty vectors, aligned with lane_slates.
  std::vector<Penalties> lane_penalties;
  /// Knapsack DP table, (n+1) * (k_cap+1) * (capacity+1) doubles.
  std::vector<double> dp;
  /// Discretized per-item bid weights for the knapsack DP (size n).
  std::vector<std::size_t> item_weight;
  /// Precomputed per-candidate scores for score-based oracles (size n).
  std::vector<double> scores;
  /// Per-candidate marginal gains for the greedy scan (size n).
  std::vector<double> gains;
  /// Per-lane argmax candidates from one greedy scan (size lanes).
  std::vector<std::size_t> lane_best;
  /// Greedy taken flags (size n; not vector<bool> — lanes write disjoint
  /// reads, and byte flags keep the scan branch-free and race-free).
  std::vector<unsigned char> taken;

  void clear() noexcept {
    aos.clear();
    for (auto& slate : lane_slates) slate.clear();
    for (auto& penalties : lane_penalties) penalties.clear();
    dp.clear();
    item_weight.clear();
    scores.clear();
    gains.clear();
    lane_best.clear();
    taken.clear();
  }
};

}  // namespace sfl::auction
