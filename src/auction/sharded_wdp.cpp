#include "auction/sharded_wdp.h"

#include <algorithm>
#include <thread>

#include "auction/winner_determination.h"
#include "util/config.h"
#include "util/require.h"
#include "util/simd.h"

namespace sfl::auction {

using sfl::util::check_invariant;
using sfl::util::require;

namespace {

/// Auto mode only: a round forks onto every hardware thread once each lane
/// gets at least kMinAutoSpan rows, and runs serially below that. Explicit
/// shard counts are honored exactly so tests can force any merge topology
/// on any machine. Measured with bench_e07 (Release, AVX2, 4 cores, m = 10,
/// medians of 3-5 repetitions): 4 shards tie serial at 35k rows (51 vs
/// 50 us) and win from 40k on (47 vs 52 us; 77 vs 171 us at 100k), while
/// 2 shards lose up to 50k rows (57 vs 50 us at 35k) because a fork pays a
/// worker wake-up of tens of microseconds. So the policy is all lanes or
/// none, not one lane per kMinAutoSpan rows.
constexpr std::size_t kMinAutoSpan = 8192;

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
    shards = n / kMinAutoSpan >= hardware_threads ? hardware_threads : 1;
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
    return allocation;
  }

  const std::size_t shards = effective_shards(n);
  // Each shard keeps its local top-(m+1): the +1 slot guarantees the best
  // global loser — the payment threshold — survives the merge even when all
  // m winners share its shard. Shard s writes its survivors into its own
  // slice [s * local_cap, s * local_cap + keep) of scratch.survivors.
  const std::size_t local_cap = std::min(max_winners + 1, n);
  scratch.scores.resize(n);
  scratch.survivors.resize(shards * local_cap);

  const std::span<const double> values = batch.values();
  const std::span<const double> bids = batch.bids();
  double* const scores = scratch.scores.data();
  std::size_t* const survivors = scratch.survivors.data();
  // The serial total order (score desc, ClientId asc, index asc). The
  // global index tie-break makes the merged order a function of the batch,
  // not of the shard layout.
  const RowOrder better{scores, batch.ids().data()};

  const double* const penalty_data =
      penalties.empty() ? nullptr : penalties.data();
  const auto score_and_select = [&](std::size_t shard, std::size_t begin,
                                    std::size_t end) {
    // SoA scoring through the runtime-dispatched SIMD kernels, whose every
    // lane evaluates the one shared score() expression tree — so every
    // shard layout and kernel produces bit-identical scores to the serial
    // overloads (pinned by tests/util/simd_test.cpp).
    sfl::util::simd::score_span(
        values.data() + begin, bids.data() + begin,
        penalty_data == nullptr ? nullptr : penalty_data + begin,
        scores + begin, end - begin, weights.value_weight, weights.bid_weight);
    select_top_rows(better, begin, end, std::min(local_cap, end - begin),
                    survivors + shard * local_cap);
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

  // Merge: close the gaps a shard shorter than local_cap left in its slice,
  // order the survivors under the serial comparator, and take the global
  // top-m positive-score prefix.
  std::size_t merged = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const auto [begin, end] =
        sfl::util::ThreadPool::chunk_range(n, shards, shard);
    const std::size_t keep = std::min(local_cap, end - begin);
    for (std::size_t k = 0; k < keep; ++k) {
      survivors[merged++] = survivors[shard * local_cap + k];
    }
  }
  scratch.survivors.resize(merged);
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
