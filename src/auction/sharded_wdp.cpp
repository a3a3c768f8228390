#include "auction/sharded_wdp.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <thread>

#include "util/config.h"
#include "util/require.h"
#include "util/simd.h"

namespace sfl::auction {

using sfl::util::check_invariant;
using sfl::util::require;

namespace {

/// Auto mode only: keep spans big enough that fork-join overhead stays
/// negligible; explicit shard counts are honored exactly so tests can force
/// any merge topology on any machine.
constexpr std::size_t kMinAutoSpan = 4096;

/// Fused cross-market exclusive clearing (MarketBatch::exclusive()).
///
/// The serial reference (WdpEngine::run_rounds) sorts ALL covered rows
/// under the global greedy order and accepts each row iff its market has
/// capacity and its client is still unassigned. The fused shape recovers
/// the identical sequence from per-market sorted orders: phase 1 scores
/// and FULLY sorts every market's span in parallel (no top-(m+1) pruning —
/// exclusivity can reach arbitrarily deep into a market when its best rows
/// lose their clients elsewhere); phase 2 merges the per-market cursors
/// through a heap on the calling thread, which visits rows in exactly the
/// global order (the comparator is a strict total order, so the merge is
/// deterministic), accepting under the same capacity + client-unassigned
/// test and dropping a market's cursor once it fills (its remaining rows
/// could never be accepted, and the serial scan never marks their clients
/// either); phase 3 prices every market in parallel against the FINAL
/// assignment — a row passed over for a full market may have won elsewhere
/// later, so thresholds cannot be interleaved with the merge. Bit-for-bit
/// equality with the serial reference at every lane count is pinned by the
/// exclusivity property harness.
void run_exclusive_fused(const MarketBatch& batch, MarketBatchResult& result,
                         RoundScratch& scratch, sfl::util::ThreadPool* pool,
                         std::size_t lanes) {
  const std::size_t total = batch.total_rows();
  const std::size_t market_count = batch.market_count();
  const std::span<const ClientId> ids = batch.ids();
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();

  scratch.scores.resize(total);
  scratch.order.resize(total);
  double* const scores = scratch.scores.data();
  std::size_t* const order = scratch.order.data();

  // The serial global greedy order: score desc, ClientId asc, global row
  // index asc (markets are ordered and disjoint, so the index tie-break is
  // (market index, row) lexicographically).
  const auto better = [scores, ids](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    if (ids[a] != ids[b]) return ids[a] < ids[b];
    return a < b;
  };

  // --- phase 1: score + sort every market span (parallel) ---
  const auto prepare_market = [&](std::size_t k) {
    const MarketView& view = batch.market(k);
    if (view.count == 0) return;
    sfl::util::simd::score_span(
        values.data() + view.offset, bids.data() + view.offset,
        batch.market_penalties(k), scores + view.offset, view.count,
        view.weights.value_weight, view.weights.bid_weight);
    std::iota(order + view.offset, order + view.offset + view.count,
              view.offset);
    std::sort(order + view.offset, order + view.offset + view.count, better);
  };
  if (lanes <= 1 || pool == nullptr) {
    for (std::size_t k = 0; k < market_count; ++k) prepare_market(k);
  } else {
    pool->parallel_for_chunks(market_count, lanes,
                              [&](std::size_t, std::size_t begin,
                                  std::size_t end) {
                                for (std::size_t k = begin; k < end; ++k) {
                                  prepare_market(k);
                                }
                              });
  }

  // --- assignment set (serial) ---
  scratch.exclusive_clients.clear();
  for (std::size_t k = 0; k < market_count; ++k) {
    const MarketView& view = batch.market(k);
    for (std::size_t i = view.offset; i < view.offset + view.count; ++i) {
      scratch.exclusive_clients.push_back(ids[i]);
    }
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

  // --- phase 2: k-way merge greedy (serial) ---
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
    if (batch.market(k).count == 0) continue;
    if (result.slot(k).capacity == 0) continue;  // can never accept
    scratch.exclusive_heap.push_back(k);
  }
  std::make_heap(scratch.exclusive_heap.begin(), scratch.exclusive_heap.end(),
                 heap_less);

  while (!scratch.exclusive_heap.empty()) {
    const std::size_t k = scratch.exclusive_heap.front();
    const std::size_t row = cursor_row(k);
    if (scores[row] <= 0.0) break;  // heap top is the best remaining row
    std::pop_heap(scratch.exclusive_heap.begin(), scratch.exclusive_heap.end(),
                  heap_less);
    scratch.exclusive_heap.pop_back();

    MarketBatchResult::Slot& slot = result.slot(k);
    const std::size_t rank = rank_of(ids[row]);
    if (scratch.exclusive_assigned[rank] == 0) {
      scratch.exclusive_assigned[rank] = 1;
      result.selected_storage(k)[slot.count++] = row;
      // Acceptance-order accumulation — the FP addition order is shared
      // with the serial reference.
      slot.total_score += scores[row];
    }
    ++scratch.exclusive_cursor[k];
    if (scratch.exclusive_cursor[k] < batch.market(k).count &&
        slot.count < slot.capacity) {
      scratch.exclusive_heap.push_back(k);
      std::push_heap(scratch.exclusive_heap.begin(),
                     scratch.exclusive_heap.end(), heap_less);
    }
  }

  // --- phase 3: thresholds + payments against the final assignment
  // (parallel; check_invariant may throw, so lanes carry exception_ptrs) ---
  const auto price_market = [&](std::size_t k) {
    const MarketView& view = batch.market(k);
    MarketBatchResult::Slot& slot = result.slot(k);
    if (slot.count == 0) return;
    const std::span<std::size_t> selected = result.selected_storage(k);
    const std::span<double> payments = result.payments_storage(k);
    std::sort(selected.begin(),
              selected.begin() + static_cast<std::ptrdiff_t>(slot.count));

    double threshold = 0.0;  // max() against 0 is the clamp
    for (std::size_t i = view.offset; i < view.offset + view.count; ++i) {
      if (scores[i] <= threshold) continue;
      if (scratch.exclusive_assigned[rank_of(ids[i])] != 0) continue;
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
  };
  if (lanes <= 1 || pool == nullptr) {
    for (std::size_t k = 0; k < market_count; ++k) price_market(k);
    return;
  }
  std::vector<std::exception_ptr> lane_errors(lanes);
  pool->parallel_for_chunks(
      market_count, lanes,
      [&](std::size_t lane, std::size_t begin, std::size_t end) {
        try {
          for (std::size_t k = begin; k < end; ++k) price_market(k);
        } catch (...) {
          lane_errors[lane] = std::current_exception();
        }
      });
  for (const std::exception_ptr& error : lane_errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

ShardedWdp::ShardedWdp(ShardedWdpConfig config, sfl::util::ThreadPool* pool)
    : config_(config), pool_(pool) {}

std::size_t ShardedWdp::effective_shards(std::size_t n) const {
  if (n <= 1) return 1;
  std::size_t shards = config_.shards;
  if (shards == 0) {
    // hardware_concurrency() is a sysconf call — cache it, this runs every
    // round.
    static const std::size_t hardware_threads = [] {
      const std::size_t count = std::thread::hardware_concurrency();
      return count == 0 ? std::size_t{1} : count;
    }();
    // Do not split tiny rounds across cores in auto mode.
    shards = std::min(hardware_threads,
                      std::max<std::size_t>(n / kMinAutoSpan, 1));
  }
  return std::min(shards, n);
}

const Allocation& ShardedWdp::select_top_m(const CandidateBatch& batch,
                                           const ScoreWeights& weights,
                                           std::size_t max_winners,
                                           const Penalties& penalties,
                                           RoundScratch& scratch) const {
  require(weights.bid_weight > 0.0,
          "bid weight must be > 0 (otherwise bids do not matter)");
  require(weights.value_weight >= 0.0, "value weight must be >= 0");
  require(penalties.empty() || penalties.size() == batch.size(),
          "penalties must be empty or one per candidate");
  if (sfl::util::validate_mode_enabled()) validate_batch(batch);

  Allocation& allocation = scratch.allocation;
  allocation.selected.clear();
  allocation.total_score = 0.0;
  scratch.survivors.clear();
  const std::size_t n = batch.size();
  if (n == 0) {
    scratch.scores.clear();
    scratch.order.clear();
    return allocation;
  }

  scratch.scores.resize(n);
  scratch.order.resize(n);
  const std::size_t shards = effective_shards(n);

  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  const std::span<const ClientId> ids = batch.ids();
  double* const scores = scratch.scores.data();
  std::size_t* const order = scratch.order.data();

  // Strict total order shared with the serial path: score desc, ClientId
  // asc, index asc. The global index tie-break makes the merged order a
  // function of the batch, not of the shard layout.
  const auto better = [scores, ids](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    if (ids[a] != ids[b]) return ids[a] < ids[b];
    return a < b;
  };

  // Each shard keeps its local top-(m+1): the +1 slot guarantees the best
  // global loser — the payment threshold — survives the merge even when all
  // m winners share its shard.
  const std::size_t local_cap = std::min(max_winners + 1, n);
  const double* const penalty_data =
      penalties.empty() ? nullptr : penalties.data();
  const auto score_and_select = [&](std::size_t /*shard*/, std::size_t begin,
                                    std::size_t end) {
    // SoA scoring through the runtime-dispatched SIMD kernels, whose every
    // lane evaluates the one shared score() expression tree — so every
    // shard layout and kernel produces bit-identical scores to the serial
    // overloads (pinned by tests/util/simd_test.cpp).
    sfl::util::simd::score_span(
        values.data() + begin, bids.data() + begin,
        penalty_data == nullptr ? nullptr : penalty_data + begin,
        scores + begin, end - begin, weights.value_weight, weights.bid_weight);
    std::iota(order + begin, order + end, begin);
    const std::size_t span = end - begin;
    const std::size_t keep = std::min(local_cap, span);
    if (keep < span) {
      std::nth_element(order + begin, order + begin + keep, order + end,
                       better);
    }
  };

  if (shards == 1) {
    score_and_select(0, 0, n);
  } else {
    // Resolve the pool at the use site (no lazily-cached pointer): engines
    // may legally run concurrent rounds with separate scratches, and
    // shared_pool()'s magic static is the only thread-safe init here.
    sfl::util::ThreadPool& pool =
        pool_ != nullptr ? *pool_ : sfl::util::shared_pool();
    pool.parallel_for_chunks(n, shards, score_and_select);
  }

  // Merge: gather each shard's local winners, order them under the serial
  // comparator, and take the global top-m positive-score prefix.
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const auto [begin, end] =
        sfl::util::ThreadPool::chunk_range(n, shards, shard);
    const std::size_t keep = std::min(local_cap, end - begin);
    scratch.survivors.insert(scratch.survivors.end(), order + begin,
                             order + begin + keep);
  }
  std::sort(scratch.survivors.begin(), scratch.survivors.end(), better);

  const std::size_t prefix = std::min(max_winners, scratch.survivors.size());
  for (std::size_t k = 0; k < prefix; ++k) {
    const std::size_t index = scratch.survivors[k];
    if (scores[index] <= 0.0) break;  // merged order; the rest are <= 0 too
    allocation.selected.push_back(index);
    allocation.total_score += scores[index];
  }
  std::sort(allocation.selected.begin(), allocation.selected.end());
  return allocation;
}

const std::vector<double>& ShardedWdp::critical_payments(
    const CandidateBatch& batch, const ScoreWeights& weights,
    std::size_t max_winners, const Penalties& penalties,
    RoundScratch& scratch) const {
  const Allocation& allocation = scratch.allocation;
  require(allocation.selected.size() <= max_winners,
          "allocation exceeds the winner cap");
  scratch.payments.clear();

  // Threshold = the best non-selected score, clamped at 0 — identical to
  // the serial best-loser scan. Every non-selected candidate's score is
  // bounded by the first non-selected survivor's (shard top-(m+1) keeps it),
  // so the merged order answers the scan in O(1).
  const bool slate_full = allocation.selected.size() == max_winners;
  double threshold = 0.0;
  if (slate_full && scratch.survivors.size() > max_winners) {
    threshold =
        std::max(0.0, scratch.scores[scratch.survivors[max_winners]]);
  }

  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  for (const std::size_t raw_index : allocation.selected) {
    const std::size_t index =
        sfl::util::checked_index(raw_index, batch.size(), "winner");
    // phi_i(b) = vw*v_i - bw*b - pen_i stays above `threshold` while
    // b < (vw*v_i - pen_i - threshold)/bw: that boundary is the payment.
    const double critical_bid =
        (weights.value_weight * values[index] - penalty_at(penalties, index) -
         threshold) /
        weights.bid_weight;
    check_invariant(critical_bid >= bids[index] - 1e-9,
                    "critical payment below the winning bid");
    scratch.payments.push_back(std::max(critical_bid, bids[index]));
  }
  return scratch.payments;
}

void ShardedWdp::run_round(const CandidateBatch& batch,
                           const ScoreWeights& weights,
                           std::size_t max_winners, const Penalties& penalties,
                           RoundScratch& scratch) const {
  // Inputs are validated exactly once per round, in select_top_m; payments
  // reuse the same validated slate and merged order.
  select_top_m(batch, weights, max_winners, penalties, scratch);
  critical_payments(batch, weights, max_winners, penalties, scratch);
}

void ShardedWdp::run_rounds(const MarketBatch& batch, MarketBatchResult& result,
                            RoundScratch& scratch) const {
  // Exception-atomicity: every descriptor is checked before any market is
  // scored, and the result is only laid out once the batch is known good.
  batch.validate();
  result.reset(batch);
  const std::size_t market_count = batch.market_count();
  if (market_count == 0) return;

  if (batch.exclusive()) {
    const std::size_t lanes = std::min(
        effective_shards(std::max<std::size_t>(batch.total_rows(), 1)),
        market_count);
    sfl::util::ThreadPool& pool =
        pool_ != nullptr ? *pool_ : sfl::util::shared_pool();
    try {
      run_exclusive_fused(batch, result, scratch, &pool, lanes);
    } catch (...) {
      result.reset(batch);
      throw;
    }
    return;
  }

  const std::size_t total = batch.total_rows();
  scratch.scores.resize(total);
  scratch.order.resize(total);

  const std::span<const ClientId> ids = batch.ids();
  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  double* const scores = scratch.scores.data();
  std::size_t* const order = scratch.order.data();

  // One market = the full serial single-shard round on its arena span:
  // SIMD-score the span, nth_element to the local top-(m+1), sort those
  // survivors under the serial total order, take the positive top-m prefix,
  // price at the best-loser threshold. Market spans are disjoint
  // (validate()), so lanes never touch the same scores/order rows, and the
  // per-market math is step-for-step the select_top_m + critical_payments
  // pair with shards = 1 — which the sharded engine is in turn
  // bit-identical to, closing the mega-batch equality contract.
  const auto clear_market = [&](std::size_t k) {
    const MarketView& view = batch.market(k);
    if (view.count == 0) return;  // slot stays zeroed from reset()
    const std::size_t off = view.offset;
    const std::size_t n = view.count;
    const std::size_t m = view.max_winners;
    const double vw = view.weights.value_weight;
    const double bw = view.weights.bid_weight;
    const double* const penalties = batch.market_penalties(k);

    sfl::util::simd::score_span(values.data() + off, bids.data() + off,
                                penalties, scores + off, n, vw, bw);

    // Serial strict total order: score desc, ClientId asc, index asc (the
    // indices are global, but within one market they share `off`, so the
    // tie-break orders exactly like the market-local one).
    const auto better = [scores, ids](std::size_t a, std::size_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      if (ids[a] != ids[b]) return ids[a] < ids[b];
      return a < b;
    };
    std::iota(order + off, order + off + n, off);
    const std::size_t local_cap = std::min(m + 1, n);
    if (local_cap < n) {
      std::nth_element(order + off, order + off + local_cap, order + off + n,
                       better);
    }
    std::sort(order + off, order + off + local_cap, better);

    const std::span<std::size_t> selected = result.selected_storage(k);
    const std::span<double> payments = result.payments_storage(k);
    const std::size_t prefix = std::min(m, local_cap);
    std::size_t wcount = 0;
    double total_score = 0.0;
    for (std::size_t j = 0; j < prefix; ++j) {
      const std::size_t index = order[off + j];
      if (scores[index] <= 0.0) break;  // sorted; the rest are <= 0 too
      selected[wcount++] = index;
      // Accumulated in survivor order BEFORE the ascending sort — the FP
      // addition order is part of the bit-exactness contract.
      total_score += scores[index];
    }
    std::sort(selected.begin(),
              selected.begin() + static_cast<std::ptrdiff_t>(wcount));

    // Threshold = best non-selected score, clamped at 0; the +1 survivor
    // slot guarantees it is present whenever the slate is full.
    double threshold = 0.0;
    if (wcount == m && local_cap > m) {
      threshold = std::max(0.0, scores[order[off + m]]);
    }
    for (std::size_t w = 0; w < wcount; ++w) {
      const std::size_t index = selected[w];
      const double penalty =
          penalties == nullptr ? 0.0 : penalties[index - off];
      const double critical_bid =
          (vw * values[index] - penalty - threshold) / bw;
      check_invariant(critical_bid >= bids[index] - 1e-9,
                      "critical payment below the winning bid");
      payments[w] = std::max(critical_bid, bids[index]);
    }
    for (std::size_t w = 0; w < wcount; ++w) selected[w] -= off;

    MarketBatchResult::Slot& slot = result.slot(k);
    slot.count = wcount;
    slot.total_score = total_score;
  };

  // Lanes partition MARKETS, not rows: explicit shard configs are honored
  // (capped by the market count), auto sizes by total rows so tiny batches
  // stay inline.
  const std::size_t lanes =
      std::min(effective_shards(std::max<std::size_t>(total, 1)), market_count);
  if (lanes <= 1) {
    // Same exception-atomicity as the parallel join below: a market's
    // invariant failure re-zeroes the arena before escaping.
    try {
      for (std::size_t k = 0; k < market_count; ++k) clear_market(k);
    } catch (...) {
      result.reset(batch);
      throw;
    }
    return;
  }

  // The pool's fork-join fn must not throw; per-market invariant failures
  // ride out on per-lane exception_ptrs and rethrow after the join — after
  // re-zeroing the arena, so a failed batch never exposes the markets other
  // lanes finished writing.
  std::vector<std::exception_ptr> lane_errors(lanes);
  sfl::util::ThreadPool& pool =
      pool_ != nullptr ? *pool_ : sfl::util::shared_pool();
  pool.parallel_for_chunks(
      market_count, lanes,
      [&](std::size_t lane, std::size_t begin, std::size_t end) {
        try {
          for (std::size_t k = begin; k < end; ++k) clear_market(k);
        } catch (...) {
          lane_errors[lane] = std::current_exception();
        }
      });
  for (const std::exception_ptr& error : lane_errors) {
    if (error) {
      result.reset(batch);
      std::rethrow_exception(error);
    }
  }
}

}  // namespace sfl::auction
