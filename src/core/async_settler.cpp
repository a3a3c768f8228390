#include "core/async_settler.h"

#include <utility>

#include "util/require.h"
#include "util/thread_pool.h"

namespace sfl::core {

using sfl::auction::Mechanism;
using sfl::auction::RoundSettlement;
using sfl::auction::SettlementOrdering;
using sfl::auction::WinnerSettlement;

AsyncSettler::AsyncSettler(Mechanism& mechanism, AsyncSettlerConfig config)
    : mechanism_(&mechanism),
      pool_(config.pool != nullptr ? config.pool : &sfl::util::shared_pool()),
      queue_(config.queue_capacity),
      ordering_(mechanism.settlement_ordering()) {}

AsyncSettler::~AsyncSettler() {
  drain();  // not flush(): a destructor cannot rethrow a pending error
  // A drain task may still be queued on the pool (it will find the queue
  // empty); wait it out so it cannot touch a dead settler.
  std::unique_lock lock(lifecycle_mutex_);
  idle_.wait(lock, [this] { return tasks_in_flight_ == 0; });
  queue_.close();
}

void AsyncSettler::enqueue(RoundSettlement& settlement) {
  // Backpressure without pool dependence: a full ring is drained by the
  // producer itself, so enqueue always completes even if every pool worker
  // is busy with training tasks.
  while (!queue_.try_push(settlement)) {
    drain();
    const std::scoped_lock lock(consumer_mutex_);
    if (pending_error_) {
      // Draining is suspended while an error awaits the barrier, so a
      // full ring cannot empty — and this settlement sits behind the
      // failing one, which flush() discards anyway. Drop it now instead
      // of spinning; the next flush() surfaces the error.
      return;
    }
  }
  schedule_drain();
}

void AsyncSettler::enqueue(RoundSettlement&& settlement) {
  RoundSettlement local = std::move(settlement);
  enqueue(local);
}

void AsyncSettler::flush() {
  // Inline participation: applying here (instead of waiting for the queued
  // pool task) keeps the barrier latency bounded by the backlog itself.
  // The consumer mutex inside drain() waits out any applier mid-batch.
  drain();
  // A settle() that threw while draining (on a pool worker or inline) is
  // surfaced at the barrier — the same catchable error the sync path
  // raises, instead of a process abort in a pool task.
  std::exception_ptr error;
  {
    const std::scoped_lock lock(consumer_mutex_);
    std::swap(error, pending_error_);
    if (error) {
      // Everything still queued at the barrier sits behind the failing
      // settlement — discard it here (drains are no-ops while the error
      // is pending, so nothing was applied out of order in between).
      while (queue_.try_pop(drain_slot_)) {
      }
    }
  }
  if (error) std::rethrow_exception(error);
}

void AsyncSettler::schedule_drain() {
  bool expected = false;
  if (!drain_pending_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
    return;  // a task is already pending; it will see our settlement
  }
  {
    const std::scoped_lock lock(lifecycle_mutex_);
    ++tasks_in_flight_;
  }
  pool_->submit([this] {
    // Clear the pending flag BEFORE draining: an enqueue that lands after
    // our final pop re-arms a new task instead of being stranded.
    drain_pending_.store(false, std::memory_order_release);
    drain();
    const std::scoped_lock lock(lifecycle_mutex_);
    --tasks_in_flight_;
    if (tasks_in_flight_ == 0) idle_.notify_all();
  });
}

void AsyncSettler::merge_into_slot(RoundSettlement& from, bool first) {
  if (first) {
    merge_slot_.winners.clear();
    merge_slot_.total_payment = 0.0;
  }
  // round = latest: a merged batch stands in for its newest member when a
  // rule stamps time (commutative rules by definition do not care).
  merge_slot_.round = from.round;
  merge_slot_.total_payment += from.total_payment;
  for (const WinnerSettlement& w : from.winners) {
    merge_slot_.winners.push_back(w);
  }
}

void AsyncSettler::drain() {
  // One applier at a time: settle() is not thread-safe, and exclusive
  // appliers popping a FIFO ring apply settlements in enqueue order — the
  // kRoundOrder contract — no matter which thread runs the drain.
  const std::scoped_lock lock(consumer_mutex_);
  if (pending_error_) return;  // stop applying; flush() will rethrow
  try {
    if (ordering_ == SettlementOrdering::kCommutative) {
      std::size_t rounds = 0;
      while (queue_.try_pop(drain_slot_)) {
        merge_into_slot(drain_slot_, /*first=*/rounds == 0);
        ++rounds;
      }
      if (rounds == 0) return;
      mechanism_->settle(merge_slot_);
      settled_rounds_.fetch_add(rounds, std::memory_order_relaxed);
      if (rounds > 1) merged_batches_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    while (queue_.try_pop(drain_slot_)) {
      mechanism_->settle(drain_slot_);
      settled_rounds_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
    // A task that let this escape would terminate the process (pool
    // contract); park it for the next barrier instead. Draining stops
    // while the error is pending; flush() discards whatever is queued
    // behind the failing settlement when it rethrows (the synchronous
    // loop would have stopped at the throwing settle(), so applying later
    // rounds over a skipped one would silently diverge from it).
    pending_error_ = std::current_exception();
  }
}

namespace {
std::unique_ptr<Mechanism> require_inner(std::unique_ptr<Mechanism> inner) {
  sfl::util::require(inner != nullptr,
                     "async settlement needs an inner mechanism");
  return inner;
}
}  // namespace

AsyncSettlementMechanism::AsyncSettlementMechanism(
    std::unique_ptr<Mechanism> inner, AsyncSettlerConfig config)
    : inner_(require_inner(std::move(inner))), settler_(*inner_, config) {}

sfl::auction::MechanismResult AsyncSettlementMechanism::run_round(
    const sfl::auction::CandidateBatch& batch,
    const sfl::auction::RoundContext& context) {
  settler_.flush();
  return inner_->run_round(batch, context);
}

void AsyncSettlementMechanism::run_round_into(
    const sfl::auction::CandidateBatch& batch,
    const sfl::auction::RoundContext& context,
    sfl::auction::MechanismResult& out) {
  settler_.flush();
  inner_->run_round_into(batch, context, out);
}

void AsyncSettlementMechanism::settle(const RoundSettlement& settlement) {
  enqueue_slot_ = settlement;  // copy-assign reuses the slot's capacity
  settler_.enqueue(enqueue_slot_);
}

}  // namespace sfl::core
