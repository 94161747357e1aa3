#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>

namespace wheels {
namespace {

std::atomic<const ThreadPoolHooks*> g_hooks{nullptr};

// Tasks running on the workers of every pool in the process, and whether
// the current thread is one of them.
std::atomic<int> g_busy_workers{0};
thread_local bool t_running_task = false;

}  // namespace

void set_thread_pool_hooks(const ThreadPoolHooks* hooks) {
  g_hooks.store(hooks, std::memory_order_release);
}

const ThreadPoolHooks* thread_pool_hooks() {
  return g_hooks.load(std::memory_order_acquire);
}

int busy_pool_workers() {
  return g_busy_workers.load(std::memory_order_relaxed) -
         (t_running_task ? 1 : 0);
}

int resolve_jobs(int requested, int unset) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int cap = static_cast<int>(4u * hw);
  int jobs = requested;
  if (jobs < 1) {
    jobs = unset;
    if (const char* env = std::getenv("WHEELS_JOBS")) {
      errno = 0;
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      // A malformed WHEELS_JOBS falls back to the caller's default rather
      // than guessing: parallelism is an optimization, never a requirement.
      if (errno == 0 && end != env && *end == '\0' && v >= 1) {
        jobs = static_cast<int>(std::min<long>(v, cap));
      }
    }
  }
  return std::clamp(jobs, 1, cap);
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    depth = tasks_.size();
  }
  cv_.notify_one();
  if (const ThreadPoolHooks* hooks = thread_pool_hooks())
    if (hooks->on_submit != nullptr) hooks->on_submit(depth);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const ThreadPoolHooks* hooks = thread_pool_hooks();
    if (hooks != nullptr && hooks->on_task_begin != nullptr)
      hooks->on_task_begin();
    g_busy_workers.fetch_add(1, std::memory_order_relaxed);
    t_running_task = true;
    task();  // a packaged_task: exceptions land in its future
    t_running_task = false;
    g_busy_workers.fetch_sub(1, std::memory_order_relaxed);
    if (hooks != nullptr && hooks->on_task_end != nullptr) hooks->on_task_end();
  }
}

}  // namespace wheels
