// ThreadPool stress coverage, written to run meaningfully under
// ThreadSanitizer (-DSFL_SANITIZE=thread): concurrent parallel_for_chunks
// callers racing the bulk-job path — the concurrency shape the sharded WDP
// and pooled local training put on shared_pool() in production.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace sfl::util
