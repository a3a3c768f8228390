// ThreadPool stress coverage, written to run meaningfully under
// ThreadSanitizer (-DSFL_SANITIZE=thread): concurrent parallel_for_chunks
// callers racing the bulk-job path, submit()/wait_idle() storms interleaved
// with bulk loops, and the settlement producer/consumer pipeline hammering
// one pool — the exact concurrency shapes the sharded WDP and the async
// settler put on shared_pool() in production.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/async_settler.h"
#include "core/settlement_queue.h"
#include "util/thread_pool.h"

namespace sfl::util {
namespace {

TEST(ThreadPoolStressTest, ConcurrentBulkCallersSerializeCorrectly) {
  // Several threads issue parallel_for_chunks on ONE pool at once; the
  // bulk-caller mutex serializes the jobs, every chunk of every job must
  // run exactly once, and no counts may interleave across jobs.
  ThreadPool pool(4);
  static constexpr std::size_t kCallers = 6;
  static constexpr std::size_t kIterations = 40;
  static constexpr std::size_t kItems = 4096;

  std::vector<std::thread> callers;
  std::atomic<std::size_t> total{0};
  for (std::size_t caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&pool, &total] {
      for (std::size_t iteration = 0; iteration < kIterations; ++iteration) {
        std::atomic<std::size_t> local{0};
        pool.parallel_for_chunks(
            kItems, 8,
            [&local](std::size_t /*chunk*/, std::size_t begin,
                     std::size_t end) {
              local.fetch_add(end - begin, std::memory_order_relaxed);
            });
        ASSERT_EQ(local.load(), kItems);
        total.fetch_add(local.load(), std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), kCallers * kIterations * kItems);
}

TEST(ThreadPoolStressTest, SubmitStormInterleavedWithBulkLoops) {
  // submit() traffic (the FL trainer's pattern) and bulk fork-join loops
  // (the sharded WDP's pattern) share one pool concurrently.
  ThreadPool pool(3);
  std::atomic<std::size_t> submitted_done{0};
  constexpr std::size_t kTasks = 400;
  constexpr std::size_t kBulkRounds = 50;

  std::thread submitter([&pool, &submitted_done] {
    for (std::size_t task = 0; task < kTasks; ++task) {
      pool.submit([&submitted_done] {
        submitted_done.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });

  std::size_t bulk_items = 0;
  for (std::size_t round = 0; round < kBulkRounds; ++round) {
    std::atomic<std::size_t> seen{0};
    pool.parallel_for_chunks(1024, 6,
                             [&seen](std::size_t, std::size_t begin,
                                     std::size_t end) {
                               seen.fetch_add(end - begin,
                                              std::memory_order_relaxed);
                             });
    ASSERT_EQ(seen.load(), 1024u);
    bulk_items += seen.load();
  }
  submitter.join();
  pool.wait_idle();
  EXPECT_EQ(submitted_done.load(), kTasks);
  EXPECT_EQ(bulk_items, kBulkRounds * 1024u);
}

TEST(ThreadPoolStressTest, SettlementPipelineUnderConcurrentPoolLoad) {
  // The production composition: an AsyncSettler draining settlements on
  // the same pool that concurrently runs bulk loops (sharded WDP) — the
  // TSan target for the whole async settlement feature.
  class CountingMechanism final : public sfl::auction::Mechanism {
   public:
    [[nodiscard]] std::string name() const override { return "counting"; }
    [[nodiscard]] sfl::auction::MechanismResult run_round(
        const sfl::auction::CandidateBatch&,
        const sfl::auction::RoundContext&) override {
      return {};
    }
    void settle(const sfl::auction::RoundSettlement& settlement) override {
      total_payment_ += settlement.total_payment;
      ++settle_calls_;
    }
    [[nodiscard]] bool is_truthful() const noexcept override { return true; }

    double total_payment_ = 0.0;  ///< serialized by the settler's applier
    std::size_t settle_calls_ = 0;
  };

  ThreadPool pool(4);
  CountingMechanism mechanism;
  constexpr std::size_t kRounds = 2000;
  {
    sfl::core::AsyncSettler settler(
        mechanism,
        sfl::core::AsyncSettlerConfig{.queue_capacity = 8, .pool = &pool});

    std::thread bulk_load([&pool] {
      for (std::size_t round = 0; round < 60; ++round) {
        std::atomic<std::size_t> seen{0};
        pool.parallel_for_chunks(2048, 8,
                                 [&seen](std::size_t, std::size_t begin,
                                         std::size_t end) {
                                   seen.fetch_add(end - begin,
                                                  std::memory_order_relaxed);
                                 });
        ASSERT_EQ(seen.load(), 2048u);
      }
    });

    sfl::auction::RoundSettlement slot;
    for (std::size_t round = 0; round < kRounds; ++round) {
      slot.round = round;
      slot.total_payment = 1.0;
      slot.winners.clear();
      settler.enqueue(slot);
      if (round % 128 == 0) settler.flush();
    }
    bulk_load.join();
    settler.flush();
    EXPECT_EQ(mechanism.settle_calls_, kRounds);
    EXPECT_DOUBLE_EQ(mechanism.total_payment_,
                     static_cast<double>(kRounds));
  }
}

TEST(ThreadPoolStressTest, QueueManyProducersOneConsumer) {
  // MPSC shape on the raw queue: several producers block on a small ring
  // while one consumer drains; every pushed settlement must come out
  // exactly once.
  sfl::core::SettlementQueue queue(4);
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 300;

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      sfl::auction::RoundSettlement slot;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        slot.round = p * kPerProducer + i;
        slot.total_payment = 1.0;
        queue.push(slot);
      }
    });
  }

  std::size_t received = 0;
  std::vector<bool> seen(kProducers * kPerProducer, false);
  sfl::auction::RoundSettlement out;
  while (received < kProducers * kPerProducer) {
    ASSERT_TRUE(queue.pop(out));
    ASSERT_LT(out.round, seen.size());
    ASSERT_FALSE(seen[out.round]) << "duplicate settlement " << out.round;
    seen[out.round] = true;
    ++received;
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace sfl::util
