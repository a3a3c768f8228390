// Streamed/async settlement: decouples the round loop from mechanism
// settle() calls.
//
// AsyncSettler owns a bounded SettlementQueue in front of one mechanism.
// enqueue() returns immediately; a drain task on a util::ThreadPool
// (shared_pool() by default) applies queued settlements while the caller
// does other work (FL training, bid collection). flush() is the
// determinism barrier: once it returns, every settlement enqueued before
// the call has been applied, so fixed-seed trajectories are bit-identical
// to the synchronous path as long as the caller flushes before reading
// settlement-derived state and before the next run_round of an
// order-sensitive rule.
//
// Ordering contract (Mechanism::settlement_ordering):
//  - kRoundOrder: settlements are applied one at a time in FIFO (= round)
//    order. A single consumer mutex serializes appliers, and the queue is
//    FIFO, so the application order equals the enqueue order regardless of
//    which thread (pool worker, flushing caller, saturated producer)
//    happens to drain.
//  - kCommutative: the drain may coalesce everything currently queued into
//    ONE merged settlement (winners concatenated, totals summed, round =
//    latest) before the single settle() call — fewer virtual calls and
//    lock round-trips for rules that declared order-insensitivity.
//
// Progress is never hostage to pool scheduling: enqueue() on a full ring
// drains inline on the producer thread (backpressure), and flush() drains
// inline instead of waiting for a queued pool task, so a pool saturated
// with training work delays nothing and a 1-thread pool cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <string>

#include "auction/mechanism.h"
#include "core/settlement_queue.h"

namespace sfl::util {
class ThreadPool;
}  // namespace sfl::util

namespace sfl::core {

struct AsyncSettlerConfig {
  /// Bounded queue depth; a full ring applies backpressure by draining on
  /// the producer thread.
  std::size_t queue_capacity = 64;
  /// Worker pool for the drain tasks; nullptr selects util::shared_pool().
  sfl::util::ThreadPool* pool = nullptr;
};

class AsyncSettler {
 public:
  /// `mechanism` must outlive the settler. The settler calls
  /// mechanism.settle() from pool workers; the caller must not invoke the
  /// mechanism concurrently with un-flushed settlements in flight (flush()
  /// before run_round / state reads).
  explicit AsyncSettler(sfl::auction::Mechanism& mechanism,
                        AsyncSettlerConfig config = {});

  AsyncSettler(const AsyncSettler&) = delete;
  AsyncSettler& operator=(const AsyncSettler&) = delete;

  /// Drains remaining settlements, then waits for any in-flight drain
  /// task to leave. A pending settle() error is discarded (destructors
  /// cannot throw) — call flush() first if errors must be observed.
  ~AsyncSettler();

  /// Hands one settlement to the pipeline (swap semantics: `settlement` is
  /// left holding recycled storage, so one reused buffer makes the enqueue
  /// allocation-free). Returns immediately unless the ring is full, in
  /// which case the producer drains inline.
  void enqueue(sfl::auction::RoundSettlement& settlement);
  /// Convenience overload for temporaries (allocating path).
  void enqueue(sfl::auction::RoundSettlement&& settlement);

  /// Determinism barrier: applies (inline if needed) every settlement
  /// enqueued before the call, returning once mechanism state reflects all
  /// of them. If a settle() call threw on a pool worker since the last
  /// barrier, flush() rethrows that exception here — the sync path's
  /// catchable error surface, just deferred to the barrier (a throwing
  /// task would otherwise terminate the process per the pool contract).
  /// The failing settlement and everything queued behind it are discarded,
  /// mirroring the synchronous loop, which stops at the throwing settle();
  /// after the rethrow the settler accepts new settlements normally.
  void flush();

  /// Rounds applied via individual settle() calls plus rounds folded into
  /// merged commutative batches.
  [[nodiscard]] std::size_t settled_rounds() const noexcept {
    return settled_rounds_.load(std::memory_order_relaxed);
  }
  /// Number of merged settle() calls that covered more than one round
  /// (always 0 for kRoundOrder mechanisms).
  [[nodiscard]] std::size_t merged_batches() const noexcept {
    return merged_batches_.load(std::memory_order_relaxed);
  }
  /// Queue high-water mark (how far the pipeline ran ahead).
  [[nodiscard]] std::size_t max_queue_depth() const {
    return queue_.max_depth();
  }

 private:
  /// Schedules one drain task on the pool unless one is already pending.
  void schedule_drain();
  /// Applies everything currently in the queue. The consumer mutex makes
  /// appliers mutually exclusive, so settle() never runs concurrently and
  /// FIFO pops translate into in-order application.
  void drain();
  /// Caller holds consumer_mutex_. Folds `from` into merge_slot_.
  void merge_into_slot(sfl::auction::RoundSettlement& from, bool first);

  sfl::auction::Mechanism* mechanism_;
  sfl::util::ThreadPool* pool_;
  SettlementQueue queue_;
  const sfl::auction::SettlementOrdering ordering_;

  std::mutex consumer_mutex_;
  /// Guarded by consumer_mutex_: reused pop/merge buffers so steady-state
  /// drains allocate nothing.
  sfl::auction::RoundSettlement drain_slot_;
  sfl::auction::RoundSettlement merge_slot_;
  /// Guarded by consumer_mutex_: first exception a settle() threw while
  /// draining; surfaced (and cleared) by the next flush(). Draining stops
  /// while it is pending. The destructor discards it (cannot throw).
  std::exception_ptr pending_error_;

  std::atomic<bool> drain_pending_{false};
  /// Drain tasks handed to the pool that have not finished yet; the
  /// destructor waits for zero so a late task never touches a dead settler.
  std::mutex lifecycle_mutex_;
  std::condition_variable idle_;
  std::size_t tasks_in_flight_ = 0;  ///< guarded by lifecycle_mutex_
  std::atomic<std::size_t> settled_rounds_{0};
  std::atomic<std::size_t> merged_batches_{0};
};

/// Decorator that makes any registry mechanism settle asynchronously while
/// preserving its observable behavior: settle() enqueues onto an
/// AsyncSettler; every run_round entry point (and flush()) first drains
/// the queue, so the wrapped rule always scores the next round
/// against fully-settled state — trajectories stay bit-identical to the
/// synchronous path. Built by the registry under "lto-vcg-async" and by
/// MechanismConfig.lto.async_settle; the orchestrator wraps with it when
/// OrchestratorConfig.async_settle is set.
class AsyncSettlementMechanism final : public sfl::auction::Mechanism {
 public:
  explicit AsyncSettlementMechanism(
      std::unique_ptr<sfl::auction::Mechanism> inner,
      AsyncSettlerConfig config = {});

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  using sfl::auction::Mechanism::run_round;
  [[nodiscard]] sfl::auction::MechanismResult run_round(
      const sfl::auction::CandidateBatch& batch,
      const sfl::auction::RoundContext& context) override;
  void run_round_into(const sfl::auction::CandidateBatch& batch,
                      const sfl::auction::RoundContext& context,
                      sfl::auction::MechanismResult& out) override;

  /// Enqueues and returns; the inner settle() runs on the pool.
  void settle(const sfl::auction::RoundSettlement& settlement) override;

  [[nodiscard]] sfl::auction::SettlementOrdering settlement_ordering()
      const noexcept override {
    return inner_->settlement_ordering();
  }
  /// Drains this decorator's queue, then the inner mechanism's (stacked
  /// async decorators: the outer drain lands settlements in the inner
  /// queue, so the barrier must forward to hold end to end).
  void flush() override {
    settler_.flush();
    inner_->flush();
  }
  [[nodiscard]] sfl::auction::Mechanism* underlying() noexcept override {
    return inner_->underlying();
  }
  [[nodiscard]] bool is_truthful() const noexcept override {
    return inner_->is_truthful();
  }

  [[nodiscard]] const AsyncSettler& settler() const noexcept {
    return settler_;
  }

 private:
  // Order matters: settler_ is destroyed (and flushed) before inner_ dies.
  std::unique_ptr<sfl::auction::Mechanism> inner_;
  AsyncSettler settler_;
  /// Reused copy buffer: settle() takes a const ref, so the payload is
  /// copied once into this slot and swapped into the ring (allocation-free
  /// after warm-up).
  sfl::auction::RoundSettlement enqueue_slot_;
};

}  // namespace sfl::core
