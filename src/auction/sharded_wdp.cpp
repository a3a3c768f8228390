#include "auction/sharded_wdp.h"

#include <algorithm>
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

}  // namespace sfl::auction
