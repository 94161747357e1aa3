// Fixed-size worker-thread pool for the deterministic parallel engine.
//
// Parallelism in this codebase never reorders results: work is partitioned
// up front into independent units (one operator's phones, one city's
// baseline), each unit owns its forked Rng streams, and outputs land in
// pre-sized slots indexed by the unit. The pool therefore only needs two
// primitives: futures-based submit() and an index-driven
// parallel_for_each() that propagates the first exception in index order.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace wheels {

// Observability hooks for the pool, installed by src/obs (core sits below
// obs in the layer DAG, so the dependency points the other way: obs fills
// in this struct and core calls through it). Any field may be null. The
// struct passed to set_thread_pool_hooks must outlive every pool -- obs
// installs a pointer to static storage exactly once, before workers exist.
struct ThreadPoolHooks {
  // After a task is enqueued; depth is the queue length it left behind.
  void (*on_submit)(std::size_t queue_depth) = nullptr;
  // Around each task body, on the worker thread that runs it.
  void (*on_task_begin)() = nullptr;
  void (*on_task_end)() = nullptr;
};

// nullptr uninstalls. The previous pointer is not freed or flushed.
void set_thread_pool_hooks(const ThreadPoolHooks* hooks);
[[nodiscard]] const ThreadPoolHooks* thread_pool_hooks();

// Resolve a worker count: `requested` >= 1 wins, otherwise the WHEELS_JOBS
// environment variable, otherwise `unset` (1 by default: fully sequential).
// A malformed WHEELS_JOBS counts as unset. The result is clamped to
// [1, 4 * hardware_concurrency] so a stray env value cannot oversubscribe
// the machine into thrashing.
[[nodiscard]] int resolve_jobs(int requested = 0, int unset = 1);

// Workers of any ThreadPool in the process that are running a task right
// now, not counting the calling thread. A fan-out nested in other parallel
// work reads it to use only cores that no pool task is using.
[[nodiscard]] int busy_pool_workers();

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to at least 1). Workers drain tasks
  // in submission order; with one worker this is exactly inline execution,
  // deferred.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  // Schedule `fn` and return a future for its result. Exceptions thrown by
  // `fn` are captured into the future.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    post([task] { (*task)(); });
    return result;
  }

 private:
  void post(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Run fn(0), ..., fn(count - 1) on `pool` and wait for all of them.
// Futures are drained in index order, which makes exception propagation
// deterministic: the first throwing index wins regardless of scheduling.
// Must not be called from one of `pool`'s own workers.
template <typename Fn>
void parallel_for_each(ThreadPool& pool, std::size_t count, Fn&& fn) {
  std::vector<std::future<void>> pending;
  pending.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pending.push_back(pool.submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first_error;
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

// The same across `jobs` workers on a pool of its own. jobs <= 1 (or
// count <= 1) executes inline on the calling thread with no pool at all,
// so the sequential path stays thread-free.
template <typename Fn>
void parallel_for_each(int jobs, std::size_t count, Fn&& fn) {
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), count)));
  parallel_for_each(pool, count, fn);
}

}  // namespace wheels
