#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "support/assert.hpp"

namespace rumor {

namespace {

// Identifies the executing thread's slot in its owning pool. Thread-local
// rather than shard-local so overlapping parallel_for calls on the same
// pool can never hand one worker slot to two live threads.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker_index = 0;
// The calling thread's shard pool override (see shard_pool()). Pool
// workers point it at their own pool for life.
thread_local ThreadPool* tl_shard_pool = nullptr;

}  // namespace

// The stack-allocated descriptor a published parallel_for_ranges job
// shares with helping threads. `next` is the shard claim cursor: the
// caller claims through it lock-free, helpers only under mutex_ while the
// job is still listed. `done` counts finished shards (guarded by mutex_);
// a helper's last touch of the frame is its increment, so the caller may
// return once it has unlisted the job and seen done == shards.
struct ThreadPool::RangeJob {
  RangeFn fn;
  void* ctx;
  std::size_t count;
  std::size_t shards;
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;
  RangeJob* link = nullptr;
};

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  tl_pool = this;
  tl_worker_index = worker_index;
  tl_shard_pool = this;
  std::unique_lock lock(mutex_);
  for (;;) {
    if (!tasks_.empty()) {
      {
        std::function<void()> task = std::move(tasks_.front());
        tasks_.pop();
        lock.unlock();
        task();
      }
      lock.lock();
    } else if (!help_one_range(lock)) {
      if (stopping_) return;
      ++idle_;
      cv_.wait(lock);
      --idle_;
    }
  }
}

bool ThreadPool::help_one_range(std::unique_lock<std::mutex>& lock) {
  for (RangeJob* job = jobs_; job != nullptr; job = job->link) {
    const std::size_t s = job->next.fetch_add(1, std::memory_order_relaxed);
    if (s >= job->shards) continue;
    lock.unlock();
    const auto [begin, end] = shard_range(job->count, job->shards, s);
    job->fn(job->ctx, s, begin, end);
    lock.lock();
    if (++job->done == job->shards) range_done_cv_.notify_all();
    return true;
  }
  return false;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_indexed(
      count, [&fn](std::size_t /*worker*/, std::size_t i) { fn(i); });
}

void ThreadPool::parallel_for_indexed(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t chunk) {
  if (count == 0) return;
  const std::size_t workers = threads_.size();
  // Inline path: trivial work, a single worker, or a NESTED call from one
  // of this pool's own workers. The nested case must flatten: queueing and
  // blocking from inside the pool deadlocks once every worker is parked in
  // a nested call with nobody left to drain the queue. Inline callbacks
  // fan out on this pool, exactly as they would on one of its workers.
  if (count == 1 || workers == 1 || tl_pool == this) {
    const std::size_t self =
        tl_pool == this ? tl_worker_index : workers;
    ThreadPool* const previous = set_shard_pool(this);
    for (std::size_t i = 0; i < count; ++i) fn(self, i);
    set_shard_pool(previous);
    return;
  }

  const std::size_t shards = std::min(workers, count);
  if (chunk == 0) {
    // Small enough that the tail stays balanced across shards, large enough
    // that the shared atomic is touched O(shards) times, not O(count).
    chunk = std::max<std::size_t>(1, count / (shards * 8));
  }

  // Chunked ranges are claimed via a shared atomic cursor; one queued shard
  // per worker. parallel_for_indexed blocks until every shard finishes, so
  // capturing locals by reference in the shard closure is safe. The
  // completion count is decremented under done_mutex so the waiter cannot
  // observe zero (and destroy the condition variable) while a worker still
  // holds it.
  std::atomic<std::size_t> next{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = shards;

  auto shard_fn = [&next, &remaining, count, chunk, workers, this, &fn,
                   &done_mutex, &done_cv] {
    const std::size_t worker =
        tl_pool == this ? tl_worker_index : workers;
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= count) break;
      const std::size_t end = std::min(begin + chunk, count);
      for (std::size_t i = begin; i < end; ++i) fn(worker, i);
    }
    std::lock_guard lock(done_mutex);
    if (--remaining == 0) done_cv.notify_all();
  };

  {
    std::lock_guard lock(mutex_);
    RUMOR_CHECK(!stopping_);
    for (std::size_t s = 0; s < shards; ++s) tasks_.push(shard_fn);
  }
  cv_.notify_all();

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

void ThreadPool::parallel_for_ranges_impl(std::size_t count,
                                          std::size_t shards, RangeFn fn,
                                          void* ctx) {
  if (count == 0) return;
  shards = std::min(std::max<std::size_t>(1, shards), count);
  // Inline path — serial, in shard order, with the same range boundaries
  // the parallel path would use (the merge-order contract): a single
  // range, or a single worker with nobody else to hand ranges to.
  if (shards == 1 || threads_.size() == 1) {
    for (std::size_t s = 0; s < shards; ++s) {
      const auto [begin, end] = shard_range(count, shards, s);
      fn(ctx, s, begin, end);
    }
    return;
  }

  RangeJob job{fn, ctx, count, shards};
  bool wake = false;
  {
    std::lock_guard lock(mutex_);
    RUMOR_CHECK(!stopping_);
    job.link = jobs_;
    jobs_ = &job;
    wake = idle_ > 0;
  }
  if (wake) cv_.notify_all();

  std::size_t ran = 0;
  for (;;) {
    const std::size_t s = job.next.fetch_add(1, std::memory_order_relaxed);
    if (s >= shards) break;
    const auto [begin, end] = shard_range(count, shards, s);
    fn(ctx, s, begin, end);
    ++ran;
  }

  // Every range is claimed: unlist the job, then help other published
  // jobs until the helpers still running this job's ranges finish.
  std::unique_lock lock(mutex_);
  job.done += ran;
  RangeJob** at = &jobs_;
  while (*at != &job) at = &(*at)->link;
  *at = job.link;
  while (job.done != shards) {
    if (!help_one_range(lock)) range_done_cv_.wait(lock);
  }
}

namespace {

std::atomic<std::size_t> g_requested_workers{0};
std::atomic<bool> g_pool_constructed{false};

}  // namespace

ThreadPool& global_pool() {
  static ThreadPool pool{[] {
    g_pool_constructed.store(true);
    return g_requested_workers.load();
  }()};
  return pool;
}

void set_global_pool_workers(std::size_t workers) {
  // A fixed-size pool cannot be resized after threads exist; configuring
  // too late would silently run at the wrong width.
  RUMOR_CHECK(!g_pool_constructed.load());
  g_requested_workers.store(workers);
}

ThreadPool& shard_pool() {
  return tl_shard_pool != nullptr ? *tl_shard_pool : global_pool();
}

ThreadPool* set_shard_pool(ThreadPool* pool) {
  ThreadPool* previous = tl_shard_pool;
  tl_shard_pool = pool;
  return previous;
}

}  // namespace rumor
