#include "util/thread_pool.h"

#include "util/require.h"

namespace sfl::util {

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  job_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk_range(
    std::size_t total, std::size_t chunks, std::size_t chunk) noexcept {
  // total * chunk stays in 64 bits for any realistic (total, chunks): the
  // sharded WDP caps chunks at the core count, and total is a client count.
  const std::size_t begin = total * chunk / chunks;
  const std::size_t end = total * (chunk + 1) / chunks;
  return {begin, end};
}

void ThreadPool::run_bulk(std::size_t count,
                          void (*invoke)(void*, std::size_t), void* context) {
  require(invoke != nullptr, "parallel_for_chunks requires a callable");
  if (count == 0) return;
  // One bulk job at a time; a second caller blocks here, not on the workers.
  const std::scoped_lock caller_lock(bulk_caller_mutex_);

  BulkJob job;
  job.invoke = invoke;
  job.context = context;
  job.count = count;
  {
    const std::scoped_lock lock(mutex_);
    require(!stopping_, "cannot run a bulk loop on a stopping thread pool");
    bulk_ = &job;
    ++bulk_generation_;
  }
  job_available_.notify_all();

  // The caller is a full participant: even a 1-thread pool makes progress
  // without bouncing the job through a worker.
  participate(job);

  // The job lives on this stack frame: wait until every chunk ran AND every
  // worker stepped out of participate() before letting it die.
  {
    std::unique_lock lock(mutex_);
    bulk_done_.wait(lock, [&job] {
      return job.done == job.count && job.workers_inside == 0;
    });
    bulk_ = nullptr;
  }
}

void ThreadPool::participate(BulkJob& job) {
  while (true) {
    const std::size_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.count) return;
    job.invoke(job.context, chunk);
    {
      const std::scoped_lock lock(mutex_);
      ++job.done;
      if (job.done == job.count) bulk_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_bulk_generation = 0;
  while (true) {
    BulkJob* bulk = nullptr;
    {
      std::unique_lock lock(mutex_);
      const auto has_new_job = [&] {
        return bulk_ != nullptr && bulk_generation_ != seen_bulk_generation;
      };
      job_available_.wait(lock, [&] { return stopping_ || has_new_job(); });
      // A published job is joined before stopping_ is honoured, so run_bulk
      // never waits on a worker that left.
      if (!has_new_job()) return;
      // Join the bulk job exactly once per generation; workers_inside is
      // incremented under the same lock that published bulk_, so run_bulk
      // cannot retire the job while we hold a pointer to it.
      seen_bulk_generation = bulk_generation_;
      bulk = bulk_;
      ++bulk->workers_inside;
    }
    participate(*bulk);
    const std::scoped_lock lock(mutex_);
    --bulk->workers_inside;
    if (bulk->workers_inside == 0) bulk_done_.notify_all();
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace sfl::util
