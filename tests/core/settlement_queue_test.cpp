// SettlementQueue + AsyncSettler unit behavior: FIFO order, bounded
// backpressure, close semantics, storage recycling, the flush barrier, and
// commutative merging — the moving parts under the async settlement
// pipeline, exercised directly and under producer/consumer concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/async_settler.h"
#include "core/settlement_queue.h"
#include "util/thread_pool.h"

namespace sfl::core {
namespace {

using sfl::auction::Mechanism;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;
using sfl::auction::RoundSettlement;
using sfl::auction::SettlementOrdering;
using sfl::auction::WinnerSettlement;

RoundSettlement make_settlement(std::size_t round, double payment) {
  RoundSettlement s;
  s.round = round;
  s.total_payment = payment;
  s.winners.push_back(WinnerSettlement{.client = round % 7,
                                       .bid = payment / 2.0,
                                       .payment = payment,
                                       .energy_cost = 1.0,
                                       .dropped = false});
  return s;
}

/// Records every settle() call; ordering is configurable so one recorder
/// serves both the strict and the commutative pipeline tests.
class RecordingMechanism final : public Mechanism {
 public:
  explicit RecordingMechanism(SettlementOrdering ordering)
      : ordering_(ordering) {}

  [[nodiscard]] std::string name() const override { return "recorder"; }
  [[nodiscard]] MechanismResult run_round(const sfl::auction::CandidateBatch&,
                                          const RoundContext&) override {
    return {};
  }
  void settle(const RoundSettlement& settlement) override {
    settle_calls_.push_back(settlement);
  }
  [[nodiscard]] SettlementOrdering settlement_ordering()
      const noexcept override {
    return ordering_;
  }
  [[nodiscard]] bool is_truthful() const noexcept override { return true; }

  /// Safe to read only after AsyncSettler::flush() (single applier).
  [[nodiscard]] const std::vector<RoundSettlement>& settle_calls() const {
    return settle_calls_;
  }

 private:
  SettlementOrdering ordering_;
  std::vector<RoundSettlement> settle_calls_;
};

TEST(SettlementQueueTest, FifoOrderAndSwapRecycling) {
  SettlementQueue queue(4);
  RoundSettlement slot;
  for (std::size_t round = 0; round < 4; ++round) {
    slot = make_settlement(round, 1.0 + static_cast<double>(round));
    queue.push(slot);
  }
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.max_depth(), 4u);

  RoundSettlement out;
  for (std::size_t round = 0; round < 4; ++round) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.round, round);
    EXPECT_DOUBLE_EQ(out.total_payment, 1.0 + static_cast<double>(round));
    ASSERT_EQ(out.winners.size(), 1u);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(SettlementQueueTest, TryPushReportsFullWithoutSideEffects) {
  SettlementQueue queue(2);
  RoundSettlement a = make_settlement(0, 1.0);
  RoundSettlement b = make_settlement(1, 2.0);
  ASSERT_TRUE(queue.try_push(a));
  ASSERT_TRUE(queue.try_push(b));

  RoundSettlement overflow = make_settlement(2, 3.0);
  EXPECT_FALSE(queue.try_push(overflow));
  // The rejected settlement is untouched and usable.
  EXPECT_EQ(overflow.round, 2u);
  EXPECT_DOUBLE_EQ(overflow.total_payment, 3.0);

  RoundSettlement out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.round, 0u);
  ASSERT_TRUE(queue.try_push(overflow));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(SettlementQueueTest, CloseDrainsThenReportsEmpty) {
  SettlementQueue queue(4);
  RoundSettlement s = make_settlement(7, 1.5);
  queue.push(s);
  queue.close();

  RoundSettlement out;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out.round, 7u);
  EXPECT_FALSE(queue.pop(out));  // closed + drained: no block, just false

  RoundSettlement rejected = make_settlement(8, 1.0);
  EXPECT_THROW(queue.push(rejected), std::logic_error);
  EXPECT_THROW((void)queue.try_push(rejected), std::logic_error);
}

TEST(SettlementQueueTest, BlockingHandoffAcrossThreads) {
  // Capacity 1 forces a full producer/consumer rendezvous per item: the
  // producer blocks on a full ring, the consumer on an empty one.
  SettlementQueue queue(1);
  constexpr std::size_t kItems = 500;

  std::thread producer([&queue] {
    RoundSettlement slot;
    for (std::size_t round = 0; round < kItems; ++round) {
      slot = make_settlement(round, 1.0);
      queue.push(slot);
    }
    queue.close();
  });

  std::size_t received = 0;
  RoundSettlement out;
  while (queue.pop(out)) {
    // FIFO across the blocking boundary: rounds arrive in push order.
    ASSERT_EQ(out.round, received);
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kItems);
}

TEST(AsyncSettlerTest, FlushAppliesEverythingInRoundOrder) {
  RecordingMechanism recorder(SettlementOrdering::kRoundOrder);
  sfl::util::ThreadPool pool(2);
  AsyncSettler settler(recorder,
                       AsyncSettlerConfig{.queue_capacity = 8, .pool = &pool});

  constexpr std::size_t kRounds = 200;
  RoundSettlement slot;
  for (std::size_t round = 0; round < kRounds; ++round) {
    slot = make_settlement(round, 0.5);
    settler.enqueue(slot);
  }
  settler.flush();

  ASSERT_EQ(recorder.settle_calls().size(), kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    EXPECT_EQ(recorder.settle_calls()[round].round, round);
  }
  EXPECT_EQ(settler.settled_rounds(), kRounds);
  EXPECT_EQ(settler.merged_batches(), 0u);  // strict ordering never merges
}

TEST(AsyncSettlerTest, BoundedQueueBackpressureNeverLosesSettlements) {
  // Capacity 2 with a 1-thread pool: the producer outruns the drain and
  // must fall back to inline draining — nothing may be lost or reordered.
  RecordingMechanism recorder(SettlementOrdering::kRoundOrder);
  sfl::util::ThreadPool pool(1);
  AsyncSettler settler(recorder,
                       AsyncSettlerConfig{.queue_capacity = 2, .pool = &pool});

  constexpr std::size_t kRounds = 500;
  RoundSettlement slot;
  for (std::size_t round = 0; round < kRounds; ++round) {
    slot = make_settlement(round, 1.0);
    settler.enqueue(slot);
  }
  settler.flush();

  ASSERT_EQ(recorder.settle_calls().size(), kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    EXPECT_EQ(recorder.settle_calls()[round].round, round);
  }
}

TEST(AsyncSettlerTest, CommutativeMechanismsGetMergedBatches) {
  RecordingMechanism recorder(SettlementOrdering::kCommutative);
  sfl::util::ThreadPool pool(1);
  // Pool kept busy so the queue builds up and the flush merges.
  std::atomic<bool> release{false};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });

  AsyncSettler settler(recorder,
                       AsyncSettlerConfig{.queue_capacity = 16, .pool = &pool});
  RoundSettlement slot;
  for (std::size_t round = 0; round < 10; ++round) {
    slot = make_settlement(round, 2.0);
    settler.enqueue(slot);
  }
  settler.flush();
  release.store(true);
  pool.wait_idle();

  // All ten rounds applied, folded into fewer settle() calls; the merged
  // settlement preserves the totals and every winner row.
  EXPECT_EQ(settler.settled_rounds(), 10u);
  ASSERT_GE(recorder.settle_calls().size(), 1u);
  double total_payment = 0.0;
  std::size_t total_winners = 0;
  for (const RoundSettlement& s : recorder.settle_calls()) {
    total_payment += s.total_payment;
    total_winners += s.winners.size();
  }
  EXPECT_DOUBLE_EQ(total_payment, 20.0);
  EXPECT_EQ(total_winners, 10u);
  EXPECT_LT(recorder.settle_calls().size(), 10u);
  EXPECT_GE(settler.merged_batches(), 1u);
}

TEST(AsyncSettlerTest, DestructorFlushesOutstandingSettlements) {
  RecordingMechanism recorder(SettlementOrdering::kRoundOrder);
  {
    AsyncSettler settler(recorder, AsyncSettlerConfig{.queue_capacity = 32});
    RoundSettlement slot;
    for (std::size_t round = 0; round < 20; ++round) {
      slot = make_settlement(round, 1.0);
      settler.enqueue(slot);
    }
    // No explicit flush: the destructor is the last barrier.
  }
  EXPECT_EQ(recorder.settle_calls().size(), 20u);
}

TEST(AsyncSettlementMechanismTest, RunRoundIsTheFlushBarrier) {
  auto owned = std::make_unique<RecordingMechanism>(
      SettlementOrdering::kRoundOrder);
  RecordingMechanism* recorder = owned.get();
  AsyncSettlementMechanism async(std::move(owned));

  RoundSettlement s = make_settlement(0, 1.0);
  async.settle(s);
  s = make_settlement(1, 2.0);
  async.settle(s);

  // run_round must observe fully-settled state: both rounds applied, in
  // order, before the inner round executes.
  RoundContext ctx;
  (void)async.run_round(std::vector<sfl::auction::Candidate>{}, ctx);
  ASSERT_EQ(recorder->settle_calls().size(), 2u);
  EXPECT_EQ(recorder->settle_calls()[0].round, 0u);
  EXPECT_EQ(recorder->settle_calls()[1].round, 1u);

  EXPECT_EQ(async.name(), "recorder");
  EXPECT_EQ(async.settlement_ordering(), SettlementOrdering::kRoundOrder);
  EXPECT_EQ(async.underlying(), recorder);
  EXPECT_TRUE(async.is_truthful());
}

TEST(AsyncSettlementMechanismTest, StackedDecoratorsFlushEndToEnd) {
  // Double-wrapping happens when a registry-built async mechanism is
  // handed to a caller that wraps again; the outer flush must forward so
  // the barrier holds through every layer.
  auto owned = std::make_unique<RecordingMechanism>(
      SettlementOrdering::kRoundOrder);
  RecordingMechanism* recorder = owned.get();
  AsyncSettlementMechanism stacked(
      std::make_unique<AsyncSettlementMechanism>(std::move(owned)));

  RoundSettlement s = make_settlement(0, 1.0);
  stacked.settle(s);
  s = make_settlement(1, 2.0);
  stacked.settle(s);
  stacked.flush();

  ASSERT_EQ(recorder->settle_calls().size(), 2u);
  EXPECT_EQ(recorder->settle_calls()[0].round, 0u);
  EXPECT_EQ(recorder->settle_calls()[1].round, 1u);
  EXPECT_EQ(stacked.underlying(), recorder);
}

TEST(AsyncSettlerTest, ThrowingSettleSurfacesAtFlushNotInPoolTask) {
  // A settle() that throws must stay a catchable error (as on the sync
  // path) instead of escaping a pool task and terminating the process;
  // the barrier rethrows it once, then the pipeline keeps working.
  class ThrowOnceMechanism final : public sfl::auction::Mechanism {
   public:
    [[nodiscard]] std::string name() const override { return "throw-once"; }
    [[nodiscard]] MechanismResult run_round(const sfl::auction::CandidateBatch&,
                                            const RoundContext&) override {
      return {};
    }
    void settle(const RoundSettlement& settlement) override {
      if (settlement.round == 1) throw std::invalid_argument("bad winner");
      ++applied_;
    }
    [[nodiscard]] bool is_truthful() const noexcept override { return true; }
    std::size_t applied_ = 0;
  };

  ThrowOnceMechanism mechanism;
  sfl::util::ThreadPool pool(1);
  AsyncSettler settler(mechanism,
                       AsyncSettlerConfig{.queue_capacity = 8, .pool = &pool});
  RoundSettlement slot;
  for (std::size_t round = 0; round < 3; ++round) {
    slot = make_settlement(round, 1.0);
    settler.enqueue(slot);
  }
  // While the error awaits the barrier, draining is suspended — enqueue
  // must not spin on a full ring (livelock) but drop the (doomed-anyway)
  // settlements until the error is surfaced.
  for (std::size_t round = 10; round < 30; ++round) {
    slot = make_settlement(round, 1.0);
    settler.enqueue(slot);
  }
  EXPECT_THROW(settler.flush(), std::invalid_argument);
  // The error is surfaced exactly once; the failing round AND everything
  // queued behind it are discarded (the sync loop would have stopped
  // there), and the settler accepts new settlements normally.
  slot = make_settlement(3, 1.0);
  settler.enqueue(slot);
  settler.flush();
  EXPECT_EQ(mechanism.applied_, 2u);  // round 0 before the throw, round 3 after
}

}  // namespace
}  // namespace sfl::core
