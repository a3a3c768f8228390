// Fixed-size thread pool used to parallelize local client training, the
// sharded auction hot path and the parallel comparison oracles.
//
// One execution mode: parallel_for_chunks(), a blocking fork-join over
// index ranges with stable chunking. The calling thread participates,
// workers race over an atomic chunk cursor, and the call performs ZERO
// heap allocations. The allocation-free auction round pipeline relies on
// it; local client training runs one chunk per participant through it.
//
// Determinism note: chunks must not share RNG streams; the simulator gives
// each client its own split stream, so execution order never changes results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sfl::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>=1; defaults to hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers.
  ~ThreadPool();

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Stable chunk layout shared by every caller: chunk `c` of `chunks` over
  /// `total` items covers [c*total/chunks, (c+1)*total/chunks). Contiguous,
  /// exhaustive, and a pure function of (total, chunks, c) — so a sharded
  /// computation's work assignment never depends on thread scheduling.
  /// With chunks == total each chunk is exactly one item, which the pooled
  /// FL trainer relies on. ShardedWdp's spans and the parallel oracles'
  /// lanes are cut with it too, and their results are bit-identical under
  /// any such contiguous, exhaustive layout.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> chunk_range(
      std::size_t total, std::size_t chunks, std::size_t chunk) noexcept;

  /// Blocking fork-join parallel loop: calls fn(chunk, begin, end) once for
  /// each chunk in [0, chunks) with the stable chunk_range layout, spreading
  /// chunks across the workers AND the calling thread, and returns when all
  /// chunks finished. Performs no heap allocations. `fn` must not throw and
  /// must not re-enter the pool. One bulk loop runs at a time (concurrent
  /// callers serialize).
  template <typename Fn>
  void parallel_for_chunks(std::size_t total, std::size_t chunks, Fn&& fn) {
    using Callable = std::remove_reference_t<Fn>;
    struct Context {
      Callable* fn;
      std::size_t total;
      std::size_t chunks;
    } context{&fn, total, chunks};
    run_bulk(
        chunks,
        [](void* raw, std::size_t chunk) {
          auto* ctx = static_cast<Context*>(raw);
          const auto [begin, end] = chunk_range(ctx->total, ctx->chunks, chunk);
          (*ctx->fn)(chunk, begin, end);
        },
        &context);
  }

 private:
  /// One fork-join job: workers and the caller race over `next`; `done` and
  /// `workers_inside` (mutex-guarded) let the caller wait until every chunk
  /// ran AND every worker left the job before the stack frame dies.
  struct BulkJob {
    void (*invoke)(void*, std::size_t) = nullptr;
    void* context = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::size_t done = 0;            ///< guarded by mutex_
    std::size_t workers_inside = 0;  ///< guarded by mutex_
  };

  void run_bulk(std::size_t count, void (*invoke)(void*, std::size_t),
                void* context);
  void participate(BulkJob& job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable job_available_;
  std::condition_variable bulk_done_;
  std::mutex bulk_caller_mutex_;  ///< serializes concurrent run_bulk callers
  BulkJob* bulk_ = nullptr;       ///< guarded by mutex_
  std::uint64_t bulk_generation_ = 0;  ///< guarded by mutex_
  bool stopping_ = false;
};

/// Process-wide pool shared by the sharded WDP and other data-parallel hot
/// paths; constructed on first use with hardware concurrency. Mechanisms
/// that shard work default to this pool so a process never oversubscribes
/// cores with one pool per mechanism instance.
[[nodiscard]] ThreadPool& shared_pool();

}  // namespace sfl::util
