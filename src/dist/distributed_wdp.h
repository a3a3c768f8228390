// DistributedWdp: the winner-determination engine distributed over a
// ShardTransport.
//
// The PR-2 select-then-merge decomposition made the merge step consume only
// per-shard top-(m+1) survivor sets — a natural network boundary. This
// engine moves that boundary across the transport: the coordinator splits
// the CandidateBatch into `shards` contiguous spans with the same stable
// chunk layout as ShardedWdp, ships each span to a shard worker as a
// ShardRequest, collects ShardReply survivor sets, and merges them under
// the exact serial total order. Workers compute with the same score()
// expression and nth_element selection as the in-process engine, and
// doubles cross the wire as IEEE bit patterns, so allocations and critical
// payments are BIT-IDENTICAL to the serial path for any shard count, any
// worker count, and any reply arrival order.
//
// Rounds are synchronous: select_top_m dispatches, collects, recovers and
// merges one round inline. Every round gets a fresh, monotonically
// increasing sequence number, and a reply is accepted only when its
// sequence names the round being collected — a frame delayed or duplicated
// out of an earlier round (or out of a round that failed with
// DistributedWdpError) is ignored even when the two rounds have identical
// span geometry.
//
// Coordinator state machine per round:
//   dispatch   — every shard is encoded and sent to its HOME worker: the
//                highest-ranked live worker in the shard's rendezvous
//                (highest-random-weight) order, so shard count is decoupled
//                from worker count and a membership change re-homes only
//                the shards whose winner changed (chronic stragglers are
//                hedged eagerly — see DistributedWdpConfig::hedge);
//   collect    — replies are decoded, validated (codec checksum + sequence
//                check + span and survivor-count checks against this
//                round's dispatch), deduplicated by shard id, and frames
//                from earlier sequences dropped; kWorkerHello /
//                kWorkerGoodbye frames update the fleet view;
//   recover    — a blown adaptive per-worker deadline (hedging on) or
//                receive timeout re-dispatches every affected shard to the
//                next live worker in rendezvous order WITHOUT abandoning
//                the original attempt; after max_attempts_per_shard
//                dispatches (or with no live worker left) the span is
//                recomputed locally with the same worker math — or, when
//                local fallback is disabled, the round fails with the typed
//                DistributedWdpError;
//   merge      — identical to ShardedWdp: survivors sorted under (score
//                desc, ClientId asc, index asc), top-m positive prefix,
//                threshold payment off the merged order.
//
// Determinism: each round's RESULT is a pure function of its (batch,
// weights, penalties, m, shard count) — faults, reply order, and worker
// routing only affect wall time and the stats counters. effective_shards
// defaults to the transport's worker count (never hardware concurrency),
// so a distributed deployment's allocation is reproducible on any
// coordinator host.
//
// One engine instance is ONE single-threaded coordinator: all calls must
// come from one thread at a time (the transport and the reusable codec
// buffers are coordinator state, mutable behind the const WdpEngine
// interface).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "auction/wdp_engine.h"
#include "dist/shard_transport.h"
#include "stats/running_stats.h"

namespace sfl::auction {
class ShardedWdp;
}  // namespace sfl::auction

namespace sfl::dist {

/// A round could not be completed: shards were lost and local recomputation
/// was disabled. The engine is reusable after catching this (the failed
/// round is abandoned and its sequence number invalidates every stale
/// frame).
class DistributedWdpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct DistributedWdpConfig {
  /// Contiguous batch spans (= work units). 0 = one per transport worker —
  /// a pure function of the configuration, never of the coordinator's
  /// hardware, so distributed results are reproducible anywhere. Any value
  /// produces bit-identical allocations and payments.
  std::size_t shards = 0;
  /// Loopback worker count when the engine builds its own transport
  /// (constructor called without one).
  std::size_t workers = 2;
  /// How long one collect wait may block before the recovery step runs.
  /// LoopbackTransport simulates timeouts (returns immediately when no
  /// reply is deliverable), so tests never sleep.
  std::chrono::milliseconds receive_timeout{200};
  /// Dispatch attempts per shard before the span falls back to local
  /// recomputation (or the round fails when fallback is disabled).
  std::size_t max_attempts_per_shard = 3;
  /// Recompute lost spans on the coordinator with the same worker math.
  /// Disabling turns unrecoverable shard loss into DistributedWdpError.
  bool allow_local_fallback = true;
  /// Hedged dispatch with adaptive per-worker deadlines (PR 7). The
  /// coordinator tracks every worker's observed reply latency
  /// (stats::RunningStats); once a worker has enough samples its recovery
  /// deadline becomes mean + hedge_deadline_sigma * stddev — clamped to
  /// [a small floor, receive_timeout], and additionally capped at a
  /// multiple of the fastest live worker's deadline so a CHRONICALLY slow
  /// worker (whose replies always beat its own inflated deadline) still
  /// hedges near the cluster's normal latency. When the round's wait on a
  /// shard blows that deadline, the shard is re-dispatched to the next
  /// live worker in its rendezvous order WITHOUT abandoning the original
  /// attempt: the first valid reply wins, the per-shard dedupe
  /// discards the loser, and a chronic straggler's home shards are hedged
  /// eagerly at dispatch time. Results are NEVER affected (replies are a
  /// pure function of the span), only tail latency. Disabled, the fixed
  /// receive_timeout is the only recovery trigger (pre-PR-7 behavior).
  bool hedge = true;
  /// k in the adaptive deadline mean + k * stddev.
  double hedge_deadline_sigma = 3.0;
  /// Warm-start prior for the adaptive deadlines (PR 10): per-worker
  /// latency statistics carried over from a previous coordinator (see
  /// worker_latency_stats()). Must be empty or one entry per transport
  /// worker. A FRESH coordinator has no latency samples, so its first
  /// kHedgeMinSamples rounds per worker fall back to the full
  /// receive_timeout — a straggler present from round one stalls every
  /// early round for the whole timeout. Seeding the prior restores hedging
  /// from the very first dispatch. Like all hedging state, the prior NEVER
  /// affects results, only tail latency; a worker that rejoins after being
  /// marked dead still resets to fresh stats.
  std::vector<sfl::stats::RunningStats> latency_prior{};
};

class DistributedWdp final : public sfl::auction::WdpEngine {
 public:
  /// Counters for tests and diagnostics. Reset when a round starts; pump()
  /// calls between rounds add to the last round's counters.
  struct RoundStats {
    std::size_t dispatches = 0;        ///< requests handed to the transport
    std::size_t redispatches = 0;      ///< of which were retries
    std::size_t local_recomputes = 0;  ///< spans recovered on the coordinator
    std::size_t ignored_replies = 0;   ///< stale seq, duplicate shard
    std::size_t rejected_replies = 0;  ///< corrupt or inconsistent frames
    std::size_t dead_workers = 0;      ///< workers marked dead
    std::size_t hedged_dispatches = 0; ///< duplicate sends racing a laggard
    std::size_t worker_joins = 0;      ///< kWorkerHello frames applied
    std::size_t worker_leaves = 0;     ///< kWorkerGoodbye frames applied
  };

  /// Builds the engine over `transport`; a null transport gets an
  /// in-process LoopbackTransport with config.workers real codec workers.
  explicit DistributedWdp(DistributedWdpConfig config = {},
                          std::unique_ptr<ShardTransport> transport = nullptr);
  ~DistributedWdp() override;

  /// Shard count a round over n candidates uses (>= 1; n = 0 reports 1).
  [[nodiscard]] std::size_t effective_shards(std::size_t n) const;

  [[nodiscard]] const DistributedWdpConfig& config() const noexcept {
    return config_;
  }
  /// The transport (for fault-injection scripting in tests).
  [[nodiscard]] ShardTransport& transport() noexcept { return *transport_; }
  [[nodiscard]] const RoundStats& last_round_stats() const noexcept {
    return stats_;
  }
  /// Per-worker observed reply latency in microseconds (one accumulator
  /// per transport worker). Snapshot this from a retiring coordinator and
  /// hand it to a successor via DistributedWdpConfig::latency_prior so the
  /// fresh coordinator hedges stragglers from its first dispatch instead
  /// of waiting out kHedgeMinSamples cold rounds per worker.
  [[nodiscard]] const std::vector<sfl::stats::RunningStats>&
  worker_latency_stats() const noexcept {
    return worker_latency_;
  }

  // --- elastic membership ---------------------------------------------------

  /// Drains every frame the transport can deliver RIGHT NOW without
  /// blocking or recovery: late replies are ignored, kWorkerHello /
  /// kWorkerGoodbye frames update the fleet view. Call between rounds so
  /// membership changes take effect before the next dispatch; shard count
  /// (effective_shards) stays a pure function of the configuration, so
  /// joins and leaves only re-route shards — results never change.
  void pump() const;

  /// The worker shard `shard` is dispatched to on its first attempt: the
  /// highest-ranked LIVE worker in the shard's rendezvous order (a pure
  /// function of (shard, worker index), so a membership change moves only
  /// the shards whose winner changed). Returns worker_count() when no
  /// worker is live.
  [[nodiscard]] std::size_t home_worker(std::size_t shard) const;
  /// False once `worker` is known dead (failed send) or has said goodbye.
  [[nodiscard]] bool worker_live(std::size_t worker) const;

  // --- WdpEngine interface ---------------------------------------------------

  const sfl::auction::Allocation& select_top_m(
      const sfl::auction::CandidateBatch& batch,
      const sfl::auction::ScoreWeights& weights, std::size_t max_winners,
      const sfl::auction::Penalties& penalties,
      sfl::auction::RoundScratch& scratch) const override;

  const std::vector<double>& critical_payments(
      const sfl::auction::CandidateBatch& batch,
      const sfl::auction::ScoreWeights& weights, std::size_t max_winners,
      const sfl::auction::Penalties& penalties,
      sfl::auction::RoundScratch& scratch) const override;

 private:
  /// The round being collected: the caller's scratch plus the merge
  /// bookkeeping the coordinator needs to validate replies against exactly
  /// this round.
  struct Lane {
    std::uint64_t seq = 0;  ///< this round's sequence number (0 = idle)
    const sfl::auction::CandidateBatch* batch = nullptr;
    const sfl::auction::Penalties* penalties = nullptr;
    sfl::auction::RoundScratch* scratch = nullptr;
    sfl::auction::ScoreWeights weights{};
    std::size_t max_winners = 0;
    std::size_t n = 0;
    std::size_t shards = 0;
    std::vector<bool> shard_done;
    std::vector<std::size_t> attempts;
    /// Latest dispatch target and send time per shard — what the adaptive
    /// deadline is measured against.
    std::vector<std::size_t> last_worker;
    std::vector<std::chrono::steady_clock::time_point> last_sent;
    std::size_t remaining = 0;
  };

  /// One not-yet-answered dispatch: attributes a reply's latency to the
  /// worker that actually served it (hedge losers included, so a chronic
  /// straggler keeps being measured even while it keeps losing races).
  struct AttemptRecord {
    std::uint64_t seq = 0;
    std::uint32_t shard = 0;
    std::size_t worker = 0;
    std::chrono::steady_clock::time_point sent{};
  };

  /// Fills request_ with shard `shard`'s span of the round's batch.
  void fill_request(std::size_t shard) const;
  /// Encodes request_ and sends it to a live worker: attempt k goes to the
  /// k-th live worker in the shard's rendezvous order (wrapping), plus an
  /// eager hedge when that worker is a chronic straggler. Returns false
  /// when no live worker accepted.
  bool dispatch(std::size_t shard) const;
  /// Recomputes shard `shard` on the coordinator with the worker math and
  /// accepts the resulting survivors into the round.
  void recompute_locally(std::size_t shard) const;
  /// Local recompute, or the typed failure when fallback is disabled.
  void recover(std::size_t shard) const;
  /// Routes one received frame_: membership announcements update the fleet
  /// view, everything else goes through accept_reply().
  void handle_frame() const;
  /// Applies a decoded kWorkerHello / kWorkerGoodbye. The slot is the
  /// transport's source attribution when available, else the frame's
  /// self-reported id; out-of-range slots are rejected.
  void handle_membership(bool hello) const;
  /// Decodes frame_, checks that its sequence names the open round,
  /// validates it against that round's dispatch, and accepts
  /// first-valid-per-shard survivors into the round's scratch.
  void accept_reply() const;
  /// Pumps the transport and runs deadline/timeout recovery until every
  /// shard of the open round is resolved.
  void collect() const;
  /// One recovery sweep over the round's unresolved shards. With
  /// only_blown, shards whose latest attempt is still inside its worker's
  /// adaptive deadline are left alone (the hedged wait is per-worker, not
  /// global).
  void recovery_pass(bool only_blown) const;
  /// ShardedWdp's exact merge over the round's survivor multiset.
  void merge() const;
  /// Closes the round: caller pointers dropped, seq zeroed so no reply can
  /// match an idle lane (seq 0 is never issued), latency bookkeeping for
  /// the unanswered attempts dropped.
  void release_lane() const;

  /// Fills rank_scratch_ with every worker ordered by rendezvous weight for
  /// `shard` (highest first, ties by index).
  void rendezvous_order(std::size_t shard) const;
  /// Adaptive recovery deadline for one worker (see config.hedge).
  [[nodiscard]] std::chrono::microseconds deadline_for(
      std::size_t worker) const;
  /// Smallest live warmed worker deadline before the cross-worker cap —
  /// the "cluster normal" a chronic straggler is measured against.
  /// microseconds::max() when no worker is warmed.
  [[nodiscard]] std::chrono::microseconds cluster_best_deadline() const;
  /// True when `worker`'s own latency envelope exceeds the straggler cap —
  /// its home shards are then hedged eagerly at dispatch time.
  [[nodiscard]] bool chronic_straggler(std::size_t worker) const;
  /// How long the next collect wait may block: the soonest adaptive
  /// deadline among the round's unresolved shards (clamped to
  /// [0, receive_timeout]); plain receive_timeout with hedging off.
  [[nodiscard]] std::chrono::milliseconds recovery_wait() const;

  DistributedWdpConfig config_;
  std::unique_ptr<ShardTransport> transport_;
  /// Serial engine reused for the payment step (the merged order already
  /// answers the threshold scan) — keeps the pricing arithmetic in exactly
  /// one place.
  std::unique_ptr<sfl::auction::ShardedWdp> pricer_;

  // Single-coordinator state behind the const engine interface (see file
  // comment: one instance, one coordinator thread).
  mutable std::uint64_t seq_counter_ = 0;
  mutable ShardRequest request_;
  mutable ShardReply reply_;
  mutable Frame frame_;
  mutable Lane lane_;
  mutable std::vector<bool> worker_dead_;
  /// Planned drains (kWorkerGoodbye): not routed to, but not a fault.
  mutable std::vector<bool> worker_departed_;
  /// Observed reply latency per worker, in microseconds (reset on rejoin).
  mutable std::vector<sfl::stats::RunningStats> worker_latency_;
  mutable std::vector<AttemptRecord> outstanding_;
  /// (weight, worker) pairs reused by rendezvous_order.
  mutable std::vector<std::pair<std::uint64_t, std::size_t>> rank_scratch_;
  mutable RoundStats stats_;
};

}  // namespace sfl::dist
