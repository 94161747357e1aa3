// core/thread_pool: the primitives under the deterministic parallel
// engine. The contract tested here is exactly what the campaign relies on:
// submit returns results (and exceptions) through futures, a pool of one
// behaves like deferred inline execution, and parallel_for_each produces
// results that do not depend on worker scheduling.
#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace wheels {
namespace {

TEST(ThreadPool, SubmitReturnsValuesThroughFutures) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, SizeClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  auto f = pool.submit([] { return std::string("ran"); });
  EXPECT_EQ(f.get(), "ran");
}

TEST(ThreadPool, PoolOfOneMatchesInlineExecution) {
  // With a single worker, tasks run in submission order — the same
  // observable sequence as calling them inline.
  std::vector<int> inline_order;
  for (int i = 0; i < 16; ++i) inline_order.push_back(i);

  std::vector<int> pooled_order;
  {
    ThreadPool pool(1);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([&pooled_order, i] {
        pooled_order.push_back(i);  // safe: one worker, ordered tasks
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(pooled_order, inline_order);
}

TEST(ThreadPool, ParallelForEachResultIndependentOfJobs) {
  // Each index writes only its own slot; every jobs value must produce the
  // same output vector regardless of scheduling.
  const std::size_t n = 100;
  std::vector<long> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = static_cast<long>(i) * 3 + 1;
  }
  for (int jobs : {1, 2, 4, 7}) {
    std::vector<long> got(n, -1);
    parallel_for_each(jobs, n,
                      [&](std::size_t i) { got[i] = expected[i]; });
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
  }
}

TEST(ThreadPool, ParallelForEachRunsEveryIndexExactlyOnce) {
  const std::size_t n = 257;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_each(8, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEachPropagatesFirstExceptionByIndex) {
  // Futures drain in index order, so the reported failure is the lowest
  // throwing index — deterministic across schedules.
  for (int jobs : {1, 4}) {
    try {
      parallel_for_each(jobs, std::size_t{10}, [](std::size_t i) {
        if (i == 3 || i == 8) {
          throw std::runtime_error("idx " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "idx 3") << "jobs=" << jobs;
    }
  }
}

TEST(ThreadPool, ParallelForEachInlineWhenSequential) {
  // jobs <= 1 must not spawn threads: the body observes the calling
  // thread's id.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  parallel_for_each(1, seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ParallelForEachReusesCallerPool) {
  // A caller-owned pool serves many calls: every call runs each index once
  // on the pool's workers, never on the caller, and no call adds a thread.
  const auto caller = std::this_thread::get_id();
  ThreadPool pool(3);
  std::vector<std::thread::id> workers;
  for (int call = 0; call < 50; ++call) {
    std::vector<int> got(7, -1);
    std::vector<std::thread::id> seen(got.size());
    parallel_for_each(pool, got.size(), [&](std::size_t i) {
      got[i] = call + static_cast<int>(i);
      seen[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], call + static_cast<int>(i)) << "call " << call;
      EXPECT_NE(seen[i], caller) << "call " << call;
    }
    workers.insert(workers.end(), seen.begin(), seen.end());
  }
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  EXPECT_LE(workers.size(), 3u);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, PoolParallelForEachPropagatesFirstExceptionByIndex) {
  // The caller-owned overload drains in index order too, and a throwing
  // call leaves the pool usable for the next one.
  ThreadPool pool(4);
  for (int call = 0; call < 3; ++call) {
    try {
      parallel_for_each(pool, std::size_t{10}, [](std::size_t i) {
        if (i == 3 || i == 8) {
          throw std::runtime_error("idx " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (call " << call << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "idx 3") << "call " << call;
    }
  }
  std::vector<std::atomic<int>> hits(10);
  parallel_for_each(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, BusyWorkersCountsRunningTasks) {
  // Two tasks held running: the caller sees both, each task sees only the
  // other, and the count drops back once they return.
  ASSERT_EQ(busy_pool_workers(), 0);
  ThreadPool pool(2);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> started{0};
  const auto held = [&] {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    const int seen = busy_pool_workers();
    gate.wait();
    return seen;
  };
  auto a = pool.submit(held);
  auto b = pool.submit(held);
  while (started.load() < 2) std::this_thread::yield();
  EXPECT_EQ(busy_pool_workers(), 2);
  release.set_value();
  EXPECT_EQ(a.get(), 1);
  EXPECT_EQ(b.get(), 1);
  // A future is ready just before its worker leaves the task.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (busy_pool_workers() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(busy_pool_workers(), 0);
}

TEST(ResolveJobs, ExplicitRequestWins) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(1), 1);
}

TEST(ResolveJobs, EnvFallbackAndMalformedValues) {
  // Not using WHEELS_JOBS from the ambient environment: pin it per case.
  ASSERT_EQ(setenv("WHEELS_JOBS", "2", 1), 0);
  EXPECT_EQ(resolve_jobs(), 2);
  EXPECT_EQ(resolve_jobs(3), 3);  // explicit still wins (3 <= the 4*hw cap)

  ASSERT_EQ(setenv("WHEELS_JOBS", "abc", 1), 0);
  EXPECT_EQ(resolve_jobs(), 1);  // malformed -> sequential
  ASSERT_EQ(setenv("WHEELS_JOBS", "0", 1), 0);
  EXPECT_EQ(resolve_jobs(), 1);
  ASSERT_EQ(setenv("WHEELS_JOBS", "-4", 1), 0);
  EXPECT_EQ(resolve_jobs(), 1);

  ASSERT_EQ(unsetenv("WHEELS_JOBS"), 0);
  EXPECT_EQ(resolve_jobs(), 1);
}

TEST(ResolveJobs, UnsetFallsBackToCallerDefault) {
  // The second argument replaces the sequential default only where no
  // usable value was given: an explicit request or a well-formed
  // WHEELS_JOBS still wins, a malformed one counts as unset.
  ASSERT_EQ(unsetenv("WHEELS_JOBS"), 0);
  EXPECT_EQ(resolve_jobs(0, 3), 3);
  EXPECT_EQ(resolve_jobs(1, 3), 1);
  EXPECT_EQ(resolve_jobs(2, 3), 2);

  ASSERT_EQ(setenv("WHEELS_JOBS", "1", 1), 0);
  EXPECT_EQ(resolve_jobs(0, 3), 1);
  ASSERT_EQ(setenv("WHEELS_JOBS", "abc", 1), 0);
  EXPECT_EQ(resolve_jobs(0, 3), 3);
  ASSERT_EQ(setenv("WHEELS_JOBS", "0", 1), 0);
  EXPECT_EQ(resolve_jobs(0, 3), 3);

  ASSERT_EQ(unsetenv("WHEELS_JOBS"), 0);
}

}  // namespace
}  // namespace wheels
