#include "dist/distributed_wdp.h"

#include <algorithm>
#include <string>

#include "auction/sharded_wdp.h"
#include "dist/loopback_transport.h"
#include "dist/shard_worker.h"
#include "util/config.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace sfl::dist {

using sfl::auction::Allocation;
using sfl::auction::CandidateBatch;
using sfl::auction::Penalties;
using sfl::auction::RoundScratch;
using sfl::auction::ScoreWeights;
using sfl::util::require;

namespace {

// Adaptive-deadline tuning (see DistributedWdpConfig::hedge). Floors and
// warm-up are deliberately not knobs: they guard the estimator, not policy.
/// Samples before a worker's own statistics drive its deadline.
constexpr std::size_t kHedgeMinSamples = 8;
/// Deadline floor — below this, scheduler noise dominates real latency.
constexpr std::chrono::microseconds kHedgeFloor{200};
/// A worker whose own latency envelope exceeds this multiple of the
/// fastest live worker's is a chronic straggler: its deadline is capped
/// near the cluster normal and its home shards are hedged eagerly.
constexpr double kHedgeStragglerFactor = 2.0;

/// splitmix64 finalizer over (shard, worker): the rendezvous weight. Any
/// good mixer works — it only has to be FIXED, so every coordinator ranks
/// the same fleet the same way forever.
std::uint64_t rendezvous_weight(std::uint64_t shard,
                                std::uint64_t worker) noexcept {
  std::uint64_t x = shard * 0x9E3779B97F4A7C15ull + worker + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

DistributedWdp::DistributedWdp(DistributedWdpConfig config,
                               std::unique_ptr<ShardTransport> transport)
    : config_(config),
      transport_(transport != nullptr
                     ? std::move(transport)
                     : std::make_unique<LoopbackTransport>(
                           std::max<std::size_t>(config.workers, 1))),
      pricer_(std::make_unique<sfl::auction::ShardedWdp>(
          sfl::auction::ShardedWdpConfig{.shards = 1})) {
  require(config_.max_attempts_per_shard >= 1,
          "need at least one dispatch attempt per shard");
  require(config_.latency_prior.empty() ||
              config_.latency_prior.size() == transport_->worker_count(),
          "latency prior must be empty or one entry per transport worker");
  worker_dead_.assign(transport_->worker_count(), false);
  worker_departed_.assign(transport_->worker_count(), false);
  if (config_.latency_prior.empty()) {
    worker_latency_.assign(transport_->worker_count(), {});
  } else {
    // Warm start: adaptive deadlines engage immediately for every worker
    // the prior has warmed past kHedgeMinSamples (fresh-coordinator cold
    // start otherwise waits out the full receive_timeout per early round).
    worker_latency_ = config_.latency_prior;
  }
}

DistributedWdp::~DistributedWdp() = default;

std::size_t DistributedWdp::effective_shards(std::size_t n) const {
  if (n <= 1) return 1;
  // Default = the transport's worker count: a function of the deployment
  // configuration, never of the coordinator's core count.
  const std::size_t shards =
      config_.shards != 0 ? config_.shards : transport_->worker_count();
  return std::min(std::max<std::size_t>(shards, 1), n);
}

void DistributedWdp::fill_request(std::size_t shard) const {
  const auto [begin, end] =
      sfl::util::ThreadPool::chunk_range(lane_.n, lane_.shards, shard);
  request_.round = lane_.seq;
  request_.shard = static_cast<std::uint32_t>(shard);
  request_.shard_count = static_cast<std::uint32_t>(lane_.shards);
  request_.begin = begin;
  request_.max_winners = lane_.max_winners;
  request_.weights = lane_.weights;
  const std::span<const sfl::auction::ClientId> ids = lane_.batch->ids();
  const std::span<const double> values = lane_.batch->values();
  const std::span<const double> bids = lane_.batch->bids();
  request_.ids.assign(ids.begin() + begin, ids.begin() + end);
  request_.values.assign(values.begin() + begin, values.begin() + end);
  request_.bids.assign(bids.begin() + begin, bids.begin() + end);
  if (lane_.penalties->empty()) {
    request_.penalties.clear();
  } else {
    request_.penalties.assign(lane_.penalties->begin() + begin,
                              lane_.penalties->begin() + end);
  }
}

void DistributedWdp::rendezvous_order(std::size_t shard) const {
  const std::size_t workers = transport_->worker_count();
  rank_scratch_.clear();
  rank_scratch_.reserve(workers);
  for (std::size_t worker = 0; worker < workers; ++worker) {
    rank_scratch_.emplace_back(rendezvous_weight(shard, worker), worker);
  }
  // Highest weight first, ties by worker index: a total order that is a
  // pure function of (shard, fleet size), so every coordinator agrees and
  // removing one worker promotes exactly its next-ranked peer.
  std::sort(rank_scratch_.begin(), rank_scratch_.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
}

bool DistributedWdp::worker_live(std::size_t worker) const {
  return worker < worker_dead_.size() && !worker_dead_[worker] &&
         !worker_departed_[worker];
}

std::size_t DistributedWdp::home_worker(std::size_t shard) const {
  rendezvous_order(shard);
  for (const auto& [weight, worker] : rank_scratch_) {
    if (worker_live(worker)) return worker;
  }
  return transport_->worker_count();
}

bool DistributedWdp::dispatch(std::size_t shard) const {
  const std::size_t workers = transport_->worker_count();
  encode(request_, frame_);
  // Attempt k goes to the k-th live worker of the shard's rendezvous order
  // (wrapping), so the first attempt hits the shard's home and every retry
  // or hedge really reaches the NEXT live worker — a live-but-unresponsive
  // worker cannot absorb all of a shard's attempts. Dead and departed
  // workers are skipped; a send() that throws marks its worker dead and
  // moves on.
  rendezvous_order(shard);
  const std::size_t start = lane_.attempts[shard] - 1;
  for (std::size_t offset = 0; offset < workers; ++offset) {
    const std::size_t worker = rank_scratch_[(start + offset) % workers].second;
    if (!worker_live(worker)) continue;
    try {
      transport_->send(worker, frame_);
    } catch (const TransportError&) {
      worker_dead_[worker] = true;
      ++stats_.dead_workers;
      continue;
    }
    ++stats_.dispatches;
    lane_.last_worker[shard] = worker;
    lane_.last_sent[shard] = std::chrono::steady_clock::now();
    outstanding_.push_back(AttemptRecord{.seq = lane_.seq,
                                         .shard = static_cast<std::uint32_t>(shard),
                                         .worker = worker,
                                         .sent = lane_.last_sent[shard]});
    // Eager hedge: a chronically slow home gets a shadow dispatch to the
    // next live worker immediately — first valid reply wins, the loser is
    // deduplicated, and the straggler keeps being measured.
    if (config_.hedge && lane_.attempts[shard] == 1 &&
        chronic_straggler(worker)) {
      for (std::size_t step = 1; step < workers; ++step) {
        const std::size_t mate =
            rank_scratch_[(start + offset + step) % workers].second;
        if (!worker_live(mate) || mate == worker) continue;
        try {
          transport_->send(mate, frame_);
        } catch (const TransportError&) {
          worker_dead_[mate] = true;
          ++stats_.dead_workers;
          continue;
        }
        ++stats_.dispatches;
        ++stats_.hedged_dispatches;
        outstanding_.push_back(
            AttemptRecord{.seq = lane_.seq,
                          .shard = static_cast<std::uint32_t>(shard),
                          .worker = mate,
                          .sent = std::chrono::steady_clock::now()});
        break;
      }
    }
    return true;
  }
  return false;
}

std::chrono::microseconds DistributedWdp::cluster_best_deadline() const {
  auto best = std::chrono::microseconds::max();
  for (std::size_t worker = 0; worker < worker_latency_.size(); ++worker) {
    const sfl::stats::RunningStats& s = worker_latency_[worker];
    if (!worker_live(worker) || s.count() < kHedgeMinSamples) continue;
    const auto own = std::chrono::microseconds{static_cast<std::int64_t>(
        s.mean() + config_.hedge_deadline_sigma * s.stddev())};
    best = std::min(best, std::max(own, kHedgeFloor));
  }
  return best;
}

bool DistributedWdp::chronic_straggler(std::size_t worker) const {
  const sfl::stats::RunningStats& s = worker_latency_[worker];
  if (s.count() < kHedgeMinSamples) return false;
  const auto best = cluster_best_deadline();
  if (best == std::chrono::microseconds::max()) return false;
  const double own = s.mean() + config_.hedge_deadline_sigma * s.stddev();
  return own > kHedgeStragglerFactor * static_cast<double>(best.count());
}

std::chrono::microseconds DistributedWdp::deadline_for(
    std::size_t worker) const {
  const auto timeout =
      std::chrono::duration_cast<std::chrono::microseconds>(
          config_.receive_timeout);
  const sfl::stats::RunningStats& s = worker_latency_[worker];
  // Cold start: no evidence yet, fall back to the configured timeout.
  if (s.count() < kHedgeMinSamples) return timeout;
  double own = s.mean() + config_.hedge_deadline_sigma * s.stddev();
  // Cross-worker straggler cap: a consistently slow worker's replies always
  // beat its OWN inflated envelope, so without this cap it would never be
  // hedged — exactly the worker hedging exists for.
  const auto best = cluster_best_deadline();
  if (best != std::chrono::microseconds::max()) {
    own = std::min(own,
                   kHedgeStragglerFactor * static_cast<double>(best.count()));
  }
  const auto deadline = std::chrono::microseconds{
      static_cast<std::int64_t>(std::max(own, 0.0))};
  return std::clamp(deadline, kHedgeFloor, std::max(timeout, kHedgeFloor));
}

std::chrono::milliseconds DistributedWdp::recovery_wait() const {
  if (!config_.hedge) return config_.receive_timeout;
  const auto now = std::chrono::steady_clock::now();
  auto soonest = std::chrono::duration_cast<std::chrono::microseconds>(
      config_.receive_timeout);
  for (std::size_t shard = 0; shard < lane_.shards; ++shard) {
    if (lane_.shard_done[shard]) continue;
    const auto deadline = deadline_for(lane_.last_worker[shard]);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        now - lane_.last_sent[shard]);
    soonest = std::min(
        soonest, deadline > elapsed ? deadline - elapsed
                                    : std::chrono::microseconds{0});
  }
  // Ceil to whole milliseconds (the transport wait granularity): a sub-ms
  // remainder must still wait, not busy-spin at zero.
  return std::chrono::ceil<std::chrono::milliseconds>(soonest);
}

void DistributedWdp::recompute_locally(std::size_t shard) const {
  // Exact worker math on the exact request content — a recovered span is
  // indistinguishable from a delivered one.
  fill_request(shard);
  compute_survivors(request_, reply_);
  for (const SurvivorEntry& entry : reply_.survivors) {
    lane_.scratch->scores[entry.index] = entry.score;
    lane_.scratch->survivors.push_back(static_cast<std::size_t>(entry.index));
  }
  lane_.shard_done[shard] = true;
  --lane_.remaining;
  ++stats_.local_recomputes;
}

void DistributedWdp::recover(std::size_t shard) const {
  if (!config_.allow_local_fallback) {
    throw DistributedWdpError(
        "distributed WDP: shard " + std::to_string(shard) + " lost after " +
        std::to_string(lane_.attempts[shard]) +
        " dispatch attempts and local fallback is disabled");
  }
  recompute_locally(shard);
}

void DistributedWdp::handle_frame() const {
  // Peek the type byte: membership announcements never enter the reply
  // decode path (full validation happens inside handle_membership).
  if (frame_.size() >= kHeaderSize) {
    const auto raw = static_cast<std::uint8_t>(frame_[5]);
    if (raw == static_cast<std::uint8_t>(FrameType::kWorkerHello) ||
        raw == static_cast<std::uint8_t>(FrameType::kWorkerGoodbye)) {
      handle_membership(raw ==
                        static_cast<std::uint8_t>(FrameType::kWorkerHello));
      return;
    }
  }
  accept_reply();
}

void DistributedWdp::handle_membership(bool hello) const {
  std::uint64_t claimed = 0;
  try {
    if (hello) {
      WorkerHello msg;
      decode(frame_, msg);
      claimed = msg.worker;
    } else {
      WorkerGoodbye msg;
      decode(frame_, msg);
      claimed = msg.worker;
    }
  } catch (const WireError&) {
    ++stats_.rejected_replies;  // corrupt announcement: never applied
    return;
  }
  const std::size_t source = transport_->receive_source();
  const std::size_t slot = source < worker_dead_.size()
                               ? source
                               : static_cast<std::size_t>(claimed);
  if (slot >= worker_dead_.size()) {
    ++stats_.rejected_replies;  // unattributable announcement
    return;
  }
  if (hello) {
    worker_dead_[slot] = false;
    worker_departed_[slot] = false;
    // A rejoined worker is a fresh process; its latency history is stale.
    worker_latency_[slot] = sfl::stats::RunningStats{};
    ++stats_.worker_joins;
  } else {
    // A planned drain, not a fault: stop routing to the worker, charge no
    // recovery machinery. In-flight replies it already produced still
    // arrive and still count.
    worker_departed_[slot] = true;
    ++stats_.worker_leaves;
  }
}

void DistributedWdp::pump() const {
  while (transport_->receive(frame_, std::chrono::milliseconds{0})) {
    handle_frame();
  }
}

void DistributedWdp::accept_reply() const {
  try {
    decode(frame_, reply_);
  } catch (const WireError&) {
    ++stats_.rejected_replies;  // corrupt frame: never accepted
    return;
  }
  // Latency attribution by (generation, shard, source worker) BEFORE any
  // staleness check: hedge losers and late stragglers still update their
  // worker's statistics — that is how a chronic straggler keeps being
  // measured while it keeps losing races.
  const std::size_t source = transport_->receive_source();
  if (source < worker_latency_.size()) {
    const auto now = std::chrono::steady_clock::now();
    for (auto it = outstanding_.begin(); it != outstanding_.end(); ++it) {
      if (it->seq == reply_.round && it->shard == reply_.shard &&
          it->worker == source) {
        worker_latency_[source].add(static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                  it->sent)
                .count()));
        outstanding_.erase(it);
        break;
      }
    }
  }
  // Only the open round's sequence number is accepted: replies from
  // earlier rounds (finished, or failed with DistributedWdpError) are
  // dropped — a stale frame can never be merged into a different round,
  // even one with identical span geometry.
  if (lane_.seq == 0 || reply_.round != lane_.seq ||
      reply_.shard >= lane_.shards || lane_.shard_done[reply_.shard]) {
    ++stats_.ignored_replies;
    return;
  }
  // The reply must describe exactly the span THIS round's dispatch named,
  // with exactly the survivor count the worker math produces — anything
  // else is a corrupt-but-checksummed or byzantine frame and is rejected
  // (the recovery path re-covers the shard).
  const auto [begin, end] =
      sfl::util::ThreadPool::chunk_range(lane_.n, lane_.shards, reply_.shard);
  const std::size_t span = end - begin;
  const std::size_t local_cap = std::min(lane_.max_winners + 1, lane_.n);
  const std::size_t expected = std::min(local_cap, span);
  if (reply_.shard_count != lane_.shards || reply_.begin != begin ||
      reply_.count != span || reply_.survivors.size() != expected) {
    ++stats_.rejected_replies;
    return;
  }
  for (const SurvivorEntry& entry : reply_.survivors) {
    lane_.scratch->scores[entry.index] = entry.score;
    lane_.scratch->survivors.push_back(static_cast<std::size_t>(entry.index));
  }
  lane_.shard_done[reply_.shard] = true;
  --lane_.remaining;
}

void DistributedWdp::collect() const {
  // Collect + recovery loop. Terminates: every recovery sweep either
  // resolves one of the round's shards locally or increments its bounded
  // attempt count, and a sweep that touches nothing (every unresolved shard
  // inside its deadline) shortens the next wait to that soonest deadline.
  while (lane_.remaining > 0) {
    const std::chrono::milliseconds wait = recovery_wait();
    const auto asked = std::chrono::steady_clock::now();
    if (transport_->receive(frame_, wait)) {
      handle_frame();
      continue;
    }
    // Distinguish a real elapsed deadline from a simulated transport's
    // immediate "nothing deliverable": only a wait that mostly ran its
    // course arms the per-worker deadline filter; an instant false keeps
    // the sweep-everything semantics simulated fault tests are scripted
    // against.
    const auto waited = std::chrono::steady_clock::now() - asked;
    const bool timed_out = waited + waited >= wait;
    recovery_pass(/*only_blown=*/config_.hedge && timed_out);
  }
}

void DistributedWdp::recovery_pass(bool only_blown) const {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t shard = 0; shard < lane_.shards && lane_.remaining > 0;
       ++shard) {
    if (lane_.shard_done[shard]) continue;
    if (only_blown && now - lane_.last_sent[shard] <
                          deadline_for(lane_.last_worker[shard])) {
      continue;  // its worker is still inside its own latency envelope
    }
    if (lane_.attempts[shard] >= config_.max_attempts_per_shard) {
      recover(shard);
      continue;
    }
    // A hedge, not an abandonment: the sequence number stays, so the
    // original attempt's reply remains valid — first valid reply per shard
    // wins and the per-shard dedupe drops the loser.
    ++lane_.attempts[shard];
    ++stats_.redispatches;
    if (config_.hedge) ++stats_.hedged_dispatches;
    fill_request(shard);
    if (!dispatch(shard)) recover(shard);
  }
}

void DistributedWdp::merge() const {
  // Merge: identical to ShardedWdp — the survivor multiset is the same for
  // any routing/fault history, and the strict total order makes the sorted
  // sequence (hence allocation and threshold) a pure function of the batch.
  RoundScratch& scratch = *lane_.scratch;
  Allocation& allocation = scratch.allocation;  // cleared by select_top_m
  double* const scores = scratch.scores.data();
  const std::span<const sfl::auction::ClientId> ids = lane_.batch->ids();
  const auto better = [scores, ids](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    if (ids[a] != ids[b]) return ids[a] < ids[b];
    return a < b;
  };
  std::sort(scratch.survivors.begin(), scratch.survivors.end(), better);

  const std::size_t prefix =
      std::min(lane_.max_winners, scratch.survivors.size());
  for (std::size_t k = 0; k < prefix; ++k) {
    const std::size_t index = scratch.survivors[k];
    if (scores[index] <= 0.0) break;  // merged order; the rest are <= 0 too
    allocation.selected.push_back(index);
    allocation.total_score += scores[index];
  }
  std::sort(allocation.selected.begin(), allocation.selected.end());
}

void DistributedWdp::release_lane() const {
  outstanding_.clear();
  lane_.batch = nullptr;
  lane_.penalties = nullptr;
  lane_.scratch = nullptr;
  lane_.seq = 0;
}

const Allocation& DistributedWdp::select_top_m(const CandidateBatch& batch,
                                               const ScoreWeights& weights,
                                               std::size_t max_winners,
                                               const Penalties& penalties,
                                               RoundScratch& scratch) const {
  // Same preconditions as the in-process engines, checked at dispatch time.
  require(weights.bid_weight > 0.0,
          "bid weight must be > 0 (otherwise bids do not matter)");
  require(weights.value_weight >= 0.0, "value weight must be >= 0");
  require(penalties.empty() || penalties.size() == batch.size(),
          "penalties must be empty or one per candidate");
  if (sfl::util::validate_mode_enabled()) validate_batch(batch);

  stats_ = RoundStats{};
  scratch.order.clear();
  scratch.survivors.clear();
  scratch.allocation.selected.clear();
  scratch.allocation.total_score = 0.0;
  if (batch.empty()) {
    scratch.scores.clear();
    return scratch.allocation;
  }

  // A fresh sequence number per round: every reply still in flight from an
  // earlier round is ignored from here on.
  lane_.seq = ++seq_counter_;
  lane_.batch = &batch;
  lane_.penalties = &penalties;
  lane_.scratch = &scratch;
  lane_.weights = weights;
  lane_.max_winners = max_winners;
  lane_.n = batch.size();
  lane_.shards = effective_shards(lane_.n);
  lane_.shard_done.assign(lane_.shards, false);
  lane_.attempts.assign(lane_.shards, 1);
  lane_.last_worker.assign(lane_.shards, 0);
  lane_.last_sent.assign(lane_.shards, std::chrono::steady_clock::now());
  lane_.remaining = lane_.shards;
  scratch.scores.resize(lane_.n);
  try {
    for (std::size_t shard = 0; shard < lane_.shards; ++shard) {
      fill_request(shard);
      if (!dispatch(shard)) recover(shard);
    }
    collect();
    merge();
  } catch (...) {
    // An unrecoverable round is abandoned; its sequence number goes stale.
    release_lane();
    throw;
  }
  release_lane();
  return scratch.allocation;
}

const std::vector<double>& DistributedWdp::critical_payments(
    const CandidateBatch& batch, const ScoreWeights& weights,
    std::size_t max_winners, const Penalties& penalties,
    RoundScratch& scratch) const {
  // The merged survivor order in the scratch answers the threshold scan the
  // same way it does for the thread-sharded engine; the pricing arithmetic
  // lives in exactly one place.
  return pricer_->critical_payments(batch, weights, max_winners, penalties,
                                    scratch);
}

}  // namespace sfl::dist
