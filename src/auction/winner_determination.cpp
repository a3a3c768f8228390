#include "auction/winner_determination.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "auction/sharded_wdp.h"
#include "auction/valuation.h"
#include "util/config.h"
#include "util/require.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace sfl::auction {

using sfl::util::require;

namespace {

void validate_weights_and_penalties(const ScoreWeights& weights,
                                    const Penalties& penalties,
                                    std::size_t num_candidates) {
  require(weights.bid_weight > 0.0,
          "bid weight must be > 0 (otherwise bids do not matter)");
  require(weights.value_weight >= 0.0, "value weight must be >= 0");
  require(penalties.empty() || penalties.size() == num_candidates,
          "penalties must be empty or one per candidate");
}

void validate_inputs(const std::vector<Candidate>& candidates,
                     const ScoreWeights& weights, const Penalties& penalties) {
  validate_weights_and_penalties(weights, penalties, candidates.size());
  for (const auto& c : candidates) {
    require(c.value >= 0.0, "candidate value must be >= 0");
    require(c.bid >= 0.0, "candidate bid must be >= 0");
    require(c.energy_cost > 0.0, "candidate energy cost must be > 0");
  }
}

void validate_inputs(const CandidateBatch& batch, const ScoreWeights& weights,
                     const Penalties& penalties) {
  validate_weights_and_penalties(weights, penalties, batch.size());
  // Per-candidate data was validated when the batch was constructed; the
  // O(n) re-scan only runs in debug builds or under SFL_VALIDATE=1.
  if (sfl::util::validate_mode_enabled()) validate_batch(batch);
}

[[nodiscard]] std::vector<double> all_scores(const std::vector<Candidate>& candidates,
                                             const ScoreWeights& weights,
                                             const Penalties& penalties) {
  std::vector<double> scores(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = score(candidates[i], weights, penalty_at(penalties, i));
  }
  return scores;
}

}  // namespace

void select_top_rows(const RowOrder& order, std::size_t begin,
                     std::size_t end, std::size_t keep, std::size_t* out) {
  require(keep <= end - begin, "cannot keep more rows than the span holds");
  for (std::size_t k = 0; k < keep; ++k) out[k] = begin + k;
  if (keep == 0 || keep == end - begin) return;  // the whole span is kept
  // out[0, keep) is a heap under RowOrder, so out[0] is the worst kept row.
  std::make_heap(out, out + keep, order);
  const double* const scores = order.scores;
  double worst = scores[out[0]];
  for (std::size_t i = begin + keep; i < end; ++i) {
    if (scores[i] < worst) continue;  // the common case: one compare
    // Equal scores go on to the id/index tie-break (NaN fails it as well).
    if (!order(i, out[0])) continue;
    std::pop_heap(out, out + keep, order);
    out[keep - 1] = i;
    std::push_heap(out, out + keep, order);
    worst = scores[out[0]];
  }
}

Allocation top_m_from_scores(std::span<const double> scores,
                             std::span<const ClientId> ids,
                             std::size_t max_winners) {
  require(scores.size() == ids.size(), "scores and ids must be aligned");
  const std::size_t n = scores.size();
  const RowOrder order{scores.data(), ids.data()};

  // Keep the top m in one streaming pass, then order just those m.
  std::vector<std::size_t> top(std::min(max_winners, n));
  select_top_rows(order, 0, n, top.size(), top.data());
  std::sort(top.begin(), top.end(), order);

  Allocation allocation;
  for (const std::size_t index : top) {
    if (scores[index] <= 0.0) break;  // top is sorted; the rest are <= 0 too
    allocation.selected.push_back(index);
    allocation.total_score += scores[index];
  }
  std::sort(allocation.selected.begin(), allocation.selected.end());
  return allocation;
}

Allocation select_top_m(const std::vector<Candidate>& candidates,
                        const ScoreWeights& weights, std::size_t max_winners,
                        const Penalties& penalties) {
  validate_inputs(candidates, weights, penalties);
  const std::vector<double> scores = all_scores(candidates, weights, penalties);
  std::vector<ClientId> ids(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ids[i] = candidates[i].id;
  }
  return top_m_from_scores(scores, ids, max_winners);
}

Allocation select_top_m(const CandidateBatch& batch, const ScoreWeights& weights,
                        std::size_t max_winners, const Penalties& penalties) {
  validate_inputs(batch, weights, penalties);
  // SoA scoring: one streaming pass over contiguous arrays through the
  // shared SIMD kernels, which are bit-identical to the score() expression
  // (the dispatch test enforces this), so AoS and batch paths agree
  // bit-for-bit.
  std::vector<double> scores(batch.size());
  sfl::util::simd::score_span(batch.values().data(), batch.bids().data(),
                              penalties.empty() ? nullptr : penalties.data(),
                              scores.data(), batch.size(),
                              weights.value_weight, weights.bid_weight);
  return top_m_from_scores(scores, batch.ids(), max_winners);
}

const Allocation& select_top_m(const CandidateBatch& batch,
                               const ScoreWeights& weights,
                               std::size_t max_winners,
                               const Penalties& penalties,
                               RoundScratch& scratch) {
  // One serial shard of the sharded engine IS the scratch-based serial
  // path; keeping a single implementation keeps the two provably
  // bit-identical.
  static const ShardedWdp serial_engine{ShardedWdpConfig{.shards = 1}};
  return serial_engine.select_top_m(batch, weights, max_winners, penalties,
                                    scratch);
}

Allocation select_exhaustive(const std::vector<Candidate>& candidates,
                             const ScoreWeights& weights, std::size_t max_winners,
                             const Penalties& penalties) {
  validate_inputs(candidates, weights, penalties);
  require(candidates.size() <= 24, "exhaustive WDP is limited to 24 candidates");
  const std::vector<double> scores = all_scores(candidates, weights, penalties);

  const std::size_t n = candidates.size();
  const std::uint64_t subsets = std::uint64_t{1} << n;
  double best_score = 0.0;
  std::uint64_t best_mask = 0;
  for (std::uint64_t mask = 0; mask < subsets; ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) > max_winners) continue;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1ULL) total += scores[i];
    }
    // Strict improvement keeps the lexicographically-smallest optimal mask,
    // matching select_top_m's index tie-break.
    if (total > best_score + 1e-12) {
      best_score = total;
      best_mask = mask;
    }
  }

  Allocation allocation;
  allocation.total_score = best_score;
  for (std::size_t i = 0; i < n; ++i) {
    if ((best_mask >> i) & 1ULL) allocation.selected.push_back(i);
  }
  return allocation;
}

namespace {

/// Lane count shared by the parallel oracle paths: 0 = auto (hardware
/// concurrency, capped so every lane keeps at least `min_span` work items),
/// 1 = serial, k = exactly k lanes — mirroring ShardedWdp's shard knob.
/// Never exceeds `work_items`, so no lane is empty.
[[nodiscard]] std::size_t oracle_lane_count(std::size_t threads,
                                            std::size_t work_items,
                                            std::size_t min_span) {
  if (work_items <= 1) return 1;
  std::size_t lanes = threads;
  if (threads == 0) {
    const std::size_t spans = std::max<std::size_t>(work_items / min_span, 1);
    lanes = std::min(sfl::util::shared_pool().thread_count(), spans);
  }
  return std::clamp<std::size_t>(lanes, 1, work_items);
}

/// Shared knapsack DP over precomputed scores and a bid accessor (AoS and
/// SoA overloads feed it the same values, so both produce identical
/// selections). With `lanes` > 1, every layer's (winners x budget) plane is
/// split across the shared pool — layer `item` reads only layer `item - 1`,
/// so the per-layer fork-join barrier is the only synchronization needed
/// and each cell's value is independent of the partition: bit-identical to
/// serial at any lane count.
template <typename BidAt>
Allocation knapsack_core(std::size_t n, const std::vector<double>& scores,
                         BidAt bid_at, double budget, std::size_t max_winners,
                         double resolution, std::size_t threads,
                         OracleScratch& scratch) {
  require(budget >= 0.0, "knapsack budget must be >= 0");
  require(resolution > 0.0, "knapsack resolution must be > 0");

  // Epsilon-robust discretization: a bid sitting exactly on the grid must
  // not round up a unit from floating-point division noise.
  const auto capacity =
      static_cast<std::size_t>(std::floor(budget / resolution + 1e-9));
  const std::size_t k_cap = std::min(max_winners, n);
  // capacity == 0 is NOT an early exit: zero-weight items (bid == 0) are
  // selectable at any budget, so the DP must still run over the w = 0
  // column when the budget is below one grid unit.
  if (k_cap == 0 || n == 0) return {};

  // Full DP table dp[item][k][w] = best score among the first `item`
  // candidates using <= k winners and <= w discretized budget. The full
  // table (rather than a rolling one) makes backtracking exact; memory is
  // (n+1)*(k_cap+1)*(capacity+1) doubles, so callers should keep
  // budget/resolution moderate (the scalability bench measures this).
  const std::size_t width = capacity + 1;
  const std::size_t plane = (k_cap + 1) * width;
  std::vector<double>& dp = scratch.dp;
  dp.assign((n + 1) * plane, 0.0);
  const auto cell = [&](std::size_t item, std::size_t k, std::size_t w) -> double& {
    return dp[item * plane + k * width + w];
  };

  std::vector<std::size_t>& item_weight = scratch.item_weight;
  item_weight.assign(n, capacity + 1);
  for (std::size_t item = 0; item < n; ++item) {
    // Ceil discretization: a bid strictly inside a grid cell charges the
    // whole cell, so the DP never under-counts spend — any selected set's
    // true bid sum is <= capacity * resolution <= budget + epsilon.
    item_weight[item] = static_cast<std::size_t>(
        std::ceil(bid_at(item) / resolution - 1e-9));
  }

  const std::size_t lanes =
      oracle_lane_count(threads, plane, /*min_span=*/2048);
  for (std::size_t item = 1; item <= n; ++item) {
    const std::size_t weight = item_weight[item - 1];
    const double gain = scores[item - 1];
    const auto fill_cells = [&](std::size_t begin, std::size_t end) {
      for (std::size_t idx = begin; idx < end; ++idx) {
        const std::size_t k = idx / width;
        const std::size_t w = idx % width;
        double best = cell(item - 1, k, w);
        if (k >= 1 && weight <= w && gain > 0.0) {
          best = std::max(best, cell(item - 1, k - 1, w - weight) + gain);
        }
        cell(item, k, w) = best;
      }
    };
    if (lanes <= 1) {
      fill_cells(0, plane);
    } else {
      sfl::util::shared_pool().parallel_for_chunks(
          plane, lanes,
          [&fill_cells](std::size_t, std::size_t begin, std::size_t end) {
            fill_cells(begin, end);
          });
    }
  }

  Allocation allocation;
  allocation.total_score = cell(n, k_cap, capacity);
  // Backtrack from the final cell.
  std::size_t k = k_cap;
  std::size_t w = capacity;
  for (std::size_t item = n; item-- > 0;) {
    if (cell(item + 1, k, w) == cell(item, k, w)) continue;
    allocation.selected.push_back(item);
    k -= 1;
    w -= item_weight[item];
  }
  std::sort(allocation.selected.begin(), allocation.selected.end());
  return allocation;
}

}  // namespace

Allocation select_knapsack(const std::vector<Candidate>& candidates,
                           const ScoreWeights& weights, double budget,
                           std::size_t max_winners, double resolution,
                           const Penalties& penalties) {
  OracleScratch scratch;
  return select_knapsack(candidates, weights, budget, max_winners, resolution,
                         penalties, /*threads=*/1, scratch);
}

Allocation select_knapsack(const CandidateBatch& batch,
                           const ScoreWeights& weights, double budget,
                           std::size_t max_winners, double resolution,
                           const Penalties& penalties) {
  OracleScratch scratch;
  return select_knapsack(batch, weights, budget, max_winners, resolution,
                         penalties, /*threads=*/1, scratch);
}

Allocation select_knapsack(const std::vector<Candidate>& candidates,
                           const ScoreWeights& weights, double budget,
                           std::size_t max_winners, double resolution,
                           const Penalties& penalties, std::size_t threads,
                           OracleScratch& scratch) {
  validate_inputs(candidates, weights, penalties);
  std::vector<double>& scores = scratch.scores;
  scores.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = score(candidates[i], weights, penalty_at(penalties, i));
  }
  return knapsack_core(
      candidates.size(), scores,
      [&](std::size_t i) { return candidates[i].bid; }, budget, max_winners,
      resolution, threads, scratch);
}

Allocation select_knapsack(const CandidateBatch& batch,
                           const ScoreWeights& weights, double budget,
                           std::size_t max_winners, double resolution,
                           const Penalties& penalties, std::size_t threads,
                           OracleScratch& scratch) {
  validate_inputs(batch, weights, penalties);
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  std::vector<double>& scores = scratch.scores;
  scores.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    scores[i] = score(values[i], bids[i], weights, penalty_at(penalties, i));
  }
  return knapsack_core(
      batch.size(), scores, [&](std::size_t i) { return bids[i]; }, budget,
      max_winners, resolution, threads, scratch);
}

namespace {

/// The greedy scan's selection core, shared by the serial and parallel
/// entry points: each step computes every untaken candidate's marginal gain
/// (identical per-element expression regardless of partition) and picks the
/// maximum under the strict total order (gain desc, ClientId asc, index
/// asc) among candidates with gain > 1e-12. The per-lane argmax + serial
/// lane reduction finds the same unique maximum the serial scan does, so
/// every lane count selects the identical prefix.
///
/// The parallel path forks the pool ONCE for the whole selection (not once
/// per step): the team runs every step in lockstep, separated by a
/// sense-reversing spin barrier, with the executor owning chunk 0 doing the
/// serial lane reduction and state update between the two barrier phases of
/// each step. The team is capped at thread_count() + 1 (workers plus the
/// participating caller): each executor parks inside its chunk's barrier
/// loop until the scan finishes, so a larger team could strand an unclaimed
/// chunk behind an executor that will never return to the chunk cursor.
/// Capping is free for exactness — the argmax is partition-independent, so
/// any team size selects the identical prefix.
Allocation greedy_concave_core(const std::vector<Candidate>& candidates,
                               const ConcaveValuation& valuation,
                               const ScoreWeights& weights,
                               std::size_t max_winners,
                               const Penalties& penalties, std::size_t threads,
                               OracleScratch& scratch) {
  const std::size_t n = candidates.size();
  // Lane count is fixed across steps (candidates shrink but the scan stays
  // O(n): taken slots are skipped, not compacted).
  const std::size_t lanes = oracle_lane_count(threads, n, /*min_span=*/1024);
  const std::size_t team =
      std::min(lanes, sfl::util::shared_pool().thread_count() + 1);
  std::vector<double>& gains = scratch.gains;
  std::vector<unsigned char>& taken = scratch.taken;
  std::vector<std::size_t>& lane_best = scratch.lane_best;
  gains.assign(n, 0.0);
  taken.assign(n, 0);
  lane_best.assign(team, n);

  const auto better = [&](std::size_t a, std::size_t b) {
    if (gains[a] != gains[b]) return gains[a] > gains[b];
    if (candidates[a].id != candidates[b].id) {
      return candidates[a].id < candidates[b].id;
    }
    return a < b;
  };

  const auto gain_at = [&](std::size_t i, double mass) {
    return weights.value_weight *
               valuation.marginal_value(mass, candidates[i].value) -
           weights.bid_weight * candidates[i].bid - penalty_at(penalties, i);
  };

  Allocation allocation;
  double mass = 0.0;

  if (team <= 1 || max_winners == 0) {
    while (allocation.selected.size() < max_winners) {
      std::size_t best = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (taken[i] != 0) continue;
        const double gain = gain_at(i, mass);
        gains[i] = gain;
        if (gain <= 1e-12) continue;
        if (best == n || better(i, best)) best = i;
      }
      if (best == n) break;
      taken[best] = 1;
      allocation.selected.push_back(best);
      allocation.total_score += gains[best];
      mass += candidates[best].value;
    }
    std::sort(allocation.selected.begin(), allocation.selected.end());
    return allocation;
  }

  // One fork, team-wide lockstep steps. All cross-chunk state (gains,
  // taken, lane_best, allocation, mass, done) is published by the
  // barrier's release/acquire pair, so the pool fn needs no per-element
  // atomics; the reservation below keeps the fn allocation-free.
  allocation.selected.reserve(std::min(max_winners, n));
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> phase{0};
  bool done = false;
  const auto barrier_wait = [&] {
    // Sense-reversing central barrier: safe for reuse across steps because
    // the last arriver resets `arrived` BEFORE bumping `phase`, and nobody
    // enters the next episode until it observes the bump.
    const std::size_t my_phase = phase.load(std::memory_order_acquire);
    if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == team) {
      arrived.store(0, std::memory_order_relaxed);
      phase.store(my_phase + 1, std::memory_order_release);
    } else {
      while (phase.load(std::memory_order_acquire) == my_phase) {
        std::this_thread::yield();
      }
    }
  };

  sfl::util::shared_pool().parallel_for_chunks(
      n, team, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        while (true) {
          std::size_t best = n;
          for (std::size_t i = begin; i < end; ++i) {
            if (taken[i] != 0) continue;
            const double gain = gain_at(i, mass);
            gains[i] = gain;
            if (gain <= 1e-12) continue;
            if (best == n || better(i, best)) best = i;
          }
          lane_best[chunk] = best;
          barrier_wait();  // every chunk's scan for this step is complete
          if (chunk == 0) {
            std::size_t best_index = n;
            for (std::size_t lane = 0; lane < team; ++lane) {
              const std::size_t lane_candidate = lane_best[lane];
              if (lane_candidate == n) continue;
              if (best_index == n || better(lane_candidate, best_index)) {
                best_index = lane_candidate;
              }
            }
            if (best_index == n) {
              done = true;
            } else {
              taken[best_index] = 1;
              allocation.selected.push_back(best_index);
              allocation.total_score += gains[best_index];
              mass += candidates[best_index].value;
              done = allocation.selected.size() >= max_winners;
            }
          }
          barrier_wait();  // chunk 0's reduction is visible to every chunk
          if (done) return;
        }
      });

  std::sort(allocation.selected.begin(), allocation.selected.end());
  return allocation;
}

}  // namespace

Allocation select_greedy_concave(const std::vector<Candidate>& candidates,
                                 const ConcaveValuation& valuation,
                                 const ScoreWeights& weights,
                                 std::size_t max_winners,
                                 const Penalties& penalties) {
  OracleScratch scratch;
  return select_greedy_concave(candidates, valuation, weights, max_winners,
                               penalties, /*threads=*/1, scratch);
}

Allocation select_greedy_concave(const std::vector<Candidate>& candidates,
                                 const ConcaveValuation& valuation,
                                 const ScoreWeights& weights,
                                 std::size_t max_winners,
                                 const Penalties& penalties,
                                 std::size_t threads, OracleScratch& scratch) {
  validate_inputs(candidates, weights, penalties);
  return greedy_concave_core(candidates, valuation, weights, max_winners,
                             penalties, threads, scratch);
}

}  // namespace sfl::auction
