// Fixed-size thread pool with a deterministic parallel_for.
//
// Experiment trials are embarrassingly parallel; each index derives its own
// RNG seed from (master, index), so results are identical regardless of the
// number of workers or scheduling order.
//
// parallel_for_indexed additionally reports a stable *worker index* to the
// callback: pool thread k always reports k, and any other thread (the
// caller on the inline path, or a foreign thread) reports worker_count().
// The index identifies the executing thread — not the queued shard — so a
// callee can own mutable state per pool worker (e.g. a TrialArena) that is
// never touched by two tasks concurrently, even when several parallel_for
// calls from different caller threads overlap on the same pool. Index
// worker_count() is shared by ALL non-pool threads; callees keying state by
// it must use thread-local storage for that slot (see trials.cpp).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rumor {

class ThreadPool {
 public:
  // workers == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  // Runs fn(i) for every i in [0, count). Blocks until all complete.
  // fn must not throw (simulation code reports failures via contract
  // aborts); work is claimed in chunks so scheduling stays balanced without
  // one atomic operation per index. A call from one of this pool's own
  // workers runs inline on that worker: queueing and blocking from inside
  // the pool deadlocks once every worker waits in a nested call.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  // As parallel_for, but fn(worker, i) also receives the executing thread's
  // stable worker index in [0, worker_count()]; index worker_count() is the
  // calling thread (inline path). `chunk` is the number of consecutive
  // indices claimed per scheduling operation; 0 picks a granularity that
  // amortizes the atomic while keeping shards balanced.
  void parallel_for_indexed(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t chunk = 0);

  // Range-partitioned variant for sharded round kernels: splits [0, count)
  // into exactly min(shards, count) balanced contiguous ranges and runs
  // fn(shard, begin, end) for each, blocking until all complete. Range
  // boundaries depend only on (count, shards) — see shard_range — never on
  // worker count or scheduling, so callers can key deterministic state by
  // shard index. Unlike parallel_for_indexed this path performs no heap
  // allocation: the job descriptor lives on the caller's stack.
  //
  // Any number of range jobs may be in flight at once, one per calling
  // thread, and the caller may be one of this pool's workers or any other
  // thread. The caller publishes its job, wakes idle workers, and runs
  // range claims itself; a worker with no queued task claims ranges from
  // any published job. Once its own ranges are all claimed the caller
  // helps other published jobs (range claims only — never a queued task,
  // which is a whole trial) until its stragglers finish. Runs inline
  // (serially, in shard order) only when shards <= 1 or the pool has one
  // worker.
  template <typename Fn>
  void parallel_for_ranges(std::size_t count, std::size_t shards, Fn&& fn) {
    using Decayed = std::remove_reference_t<Fn>;
    parallel_for_ranges_impl(
        count, shards,
        [](void* ctx, std::size_t shard, std::size_t begin, std::size_t end) {
          (*static_cast<Decayed*>(ctx))(shard, begin, end);
        },
        const_cast<void*>(
            static_cast<const void*>(std::addressof(fn))));
  }

  // The [begin, end) range shard s of `shards` covers: q = count/shards
  // indices each, with the first count%shards shards taking one extra. Pure
  // in (count, shards, s) — the determinism contract of the sharded
  // kernels rests on this being independent of everything else.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> shard_range(
      std::size_t count, std::size_t shards, std::size_t s) {
    const std::size_t q = count / shards;
    const std::size_t r = count % shards;
    const std::size_t begin = s * q + std::min(s, r);
    return {begin, begin + q + (s < r ? 1 : 0)};
  }

 private:
  using RangeFn = void (*)(void*, std::size_t, std::size_t, std::size_t);
  struct RangeJob;

  void worker_loop(std::size_t worker_index);
  void parallel_for_ranges_impl(std::size_t count, std::size_t shards,
                                RangeFn fn, void* ctx);
  // Claims one range of a published job and runs it; false when no
  // published range is left unclaimed. Called and returns with `lock`
  // (on mutex_) held.
  bool help_one_range(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;             // workers: work arrived
  std::condition_variable range_done_cv_;  // callers: a job's last range done
  std::queue<std::function<void()>> tasks_;
  // Published parallel_for_ranges jobs, newest first: an intrusive list
  // through frames on their callers' stacks. Guarded by mutex_, as are
  // idle_ (workers parked on cv_) and stopping_.
  RangeJob* jobs_ = nullptr;
  std::size_t idle_ = 0;
  bool stopping_ = false;
};

// Process-wide pool for experiment runners (constructed on first use).
ThreadPool& global_pool();

// Sets the worker count global_pool() will be constructed with (the CLI's
// --jobs=N). Must be called before the first global_pool() use — the pool
// is fixed-size — and aborts otherwise; 0 restores the hardware default.
void set_global_pool_workers(std::size_t workers);

// Ambient pool the sharded round kernels fan per-shard work onto: on a
// pool worker, and inside a parallel_for* callback that a pool runs
// inline on its caller, the pool doing the work; on any other thread the
// set_shard_pool override, else global_pool(). A trial therefore fans its
// rounds out on the pool that runs it, wherever it lands. Thread-local on
// purpose: schedulers draining different pools concurrently (the serve
// daemon) never see each other's pool.
[[nodiscard]] ThreadPool& shard_pool();

// Installs `pool` as the calling thread's shard pool (nullptr restores the
// default above) and returns the previous override. Points kernels called
// directly from a foreign thread (tests, benchmarks) at a private pool.
ThreadPool* set_shard_pool(ThreadPool* pool);

}  // namespace rumor
