// The hard requirement of the parallel campaign engine: the jobs count is
// a pure wall-clock knob. jobs=1 (fully sequential, no threads at all) and
// jobs=N must produce byte-identical serialized datasets, and the parallel
// path must still hit the PR-2 golden checksum that pins every stochastic
// process of the seed-42 stride-64 campaign.
//
// These tests are also the tsan workload: the tsan-parallel preset runs
// the *MatchesAcrossJobs tests with WHEELS_JOBS=4 to prove the replay
// workers share no unsynchronized state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_campaign.h"
#include "contract_pins.h"
#include "core/thread_pool.h"
#include "dataset/provider.h"
#include "dataset/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/spec.h"
#include "trip/campaign.h"

namespace wheels::trip {
namespace {

// Stride 256 keeps a full-route drive (every segment kind, all four
// timezones) at a few seconds per run: determinism bugs are scheduling
// bugs, not sample-count bugs, so a sparse campaign finds them too.
CampaignConfig sparse_cfg() {
  CampaignConfig cfg;
  cfg.seed = 42;
  cfg.cycle_stride = 256;
  return cfg;
}

TEST(ParallelDeterminism, CampaignMatchesAcrossJobs) {
  Campaign sequential(sparse_cfg());
  sequential.set_jobs(1);
  const std::string bytes1 = dataset::encode(sequential.run());

  Campaign parallel(sparse_cfg());
  parallel.set_jobs(4);
  ASSERT_EQ(parallel.jobs(), 4);
  const std::string bytes4 = dataset::encode(parallel.run());

  ASSERT_EQ(bytes1.size(), bytes4.size());
  EXPECT_TRUE(bytes1 == bytes4)
      << "jobs=4 campaign diverged from jobs=1: replay is reading "
         "cross-operator state";
}

TEST(ParallelDeterminism, StaticBaselinesMatchAcrossJobs) {
  Campaign sequential(sparse_cfg());
  sequential.set_jobs(1);
  Campaign parallel(sparse_cfg());
  parallel.set_jobs(4);

  for (auto op : ran::kAllOperators) {
    const std::string bytes1 =
        dataset::encode(sequential.run_static_baseline(op));
    const std::string bytes4 =
        dataset::encode(parallel.run_static_baseline(op));
    EXPECT_TRUE(bytes1 == bytes4)
        << "static baseline for " << to_string(op)
        << " diverged across jobs: a city is consuming another city's "
           "RNG stream";
  }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreIdentical) {
  // Same Campaign object: run() is idempotent; a second call (possibly
  // from another thread in real use) returns the memoized result.
  Campaign c(sparse_cfg());
  c.set_jobs(4);
  const auto& first = c.run();
  const auto& second = c.run();
  EXPECT_EQ(&first, &second);

  // And a distinct instance at a different jobs value reproduces it.
  Campaign again(sparse_cfg());
  again.set_jobs(2);
  EXPECT_TRUE(dataset::encode(first) == dataset::encode(again.run()));
}

TEST(ParallelDeterminism, GoldenChecksumWithParallelJobs) {
  // The same pin as test_dataset_cache.cpp (seed 42, stride 64), read
  // from the generated tests/contract_pins.h: the parallel engine must
  // land on the exact bytes the sequential PR-2 engine produced. An
  // intentional simulation change repins tools/contracts.json once and
  // every consumer follows.
  CampaignConfig cfg;
  cfg.seed = contract::kGoldenSeed;
  cfg.cycle_stride = contract::kGoldenStride;
  Campaign c(cfg);
  c.set_jobs(4);
  const std::uint64_t checksum = dataset::fnv1a(dataset::encode(c.run()));
  EXPECT_EQ(checksum, contract::kGoldenCampaignChecksum)
      << "parallel campaign produced 0x" << std::hex << checksum;
}

TEST(ParallelDeterminism, ObservabilityTransparentAcrossJobs) {
  // The obs hard invariant: collecting metrics and trace spans is
  // bit-transparent. With tracing armed (the most invasive obs mode --
  // every phase span heap-allocates and locks the collector), jobs=1 and
  // jobs=4 must still agree byte-for-byte, and the stable-only metrics
  // export must be identical across jobs values too.
  obs::set_trace_enabled(true);
  obs::clear_trace_events();
  obs::Registry& reg = obs::Registry::global();

  reg.reset_values_for_testing();
  Campaign sequential(sparse_cfg());
  sequential.set_jobs(1);
  const std::string bytes1 = dataset::encode(sequential.run());
  const std::string stable1 = obs::to_jsonl(reg.snapshot(),
                                            /*stable_only=*/true);

  reg.reset_values_for_testing();
  Campaign parallel(sparse_cfg());
  parallel.set_jobs(4);
  const std::string bytes4 = dataset::encode(parallel.run());
  const std::string stable4 = obs::to_jsonl(reg.snapshot(),
                                            /*stable_only=*/true);

  const bool spans_collected = !obs::trace_events().empty();
  obs::set_trace_enabled(false);
  obs::clear_trace_events();

  EXPECT_TRUE(spans_collected)
      << "tracing was supposed to be live during both runs";
  EXPECT_TRUE(bytes1 == bytes4)
      << "enabling tracing changed the campaign bytes";
  EXPECT_EQ(stable1, stable4)
      << "Det::Stable metrics must be byte-stable across WHEELS_JOBS";
}

TEST(ParallelDeterminism, GoldenChecksumWithObservabilityEnabled) {
  // Same pin as GoldenChecksumWithParallelJobs, now with tracing live:
  // the seed-42 stride-64 bytes may not move when observability is on.
  obs::set_trace_enabled(true);
  obs::clear_trace_events();

  CampaignConfig cfg;
  cfg.seed = contract::kGoldenSeed;
  cfg.cycle_stride = contract::kGoldenStride;
  Campaign c(cfg);
  c.set_jobs(4);
  const std::uint64_t checksum = dataset::fnv1a(dataset::encode(c.run()));

  obs::set_trace_enabled(false);
  obs::clear_trace_events();
  EXPECT_EQ(checksum, contract::kGoldenCampaignChecksum)
      << "campaign with tracing enabled produced 0x" << std::hex << checksum;
}

// The paper-default app campaign at the golden stride, recorded from the
// serial engine that replayed the phones one after another on the calling
// thread (the stride-10 bytes are pinned by
// Library/ReplayKernelApps.AppCampaignMatchesScalar).
constexpr std::uint64_t kAppCampaignStride64Checksum = 0xef0abd1b6ba9473eULL;

// Counts the tasks submitted to any ThreadPool while installed: zero
// proves a run stayed on the calling thread.
std::atomic<int> g_pool_submits{0};
void count_submit(std::size_t /*queue_depth*/) {
  g_pool_submits.fetch_add(1, std::memory_order_relaxed);
}
constexpr ThreadPoolHooks kCountingHooks{&count_submit, nullptr, nullptr};

// Installs kCountingHooks for its scope and restores the previous hooks.
class CountPoolSubmits {
 public:
  CountPoolSubmits() : saved_(thread_pool_hooks()) {
    g_pool_submits.store(0);
    set_thread_pool_hooks(&kCountingHooks);
  }
  ~CountPoolSubmits() { set_thread_pool_hooks(saved_); }
  CountPoolSubmits(const CountPoolSubmits&) = delete;
  CountPoolSubmits& operator=(const CountPoolSubmits&) = delete;

  [[nodiscard]] static int submits() { return g_pool_submits.load(); }

 private:
  const ThreadPoolHooks* saved_;
};

// Sets WHEELS_JOBS (nullopt unsets it) for its scope and restores the
// ambient value: the tsan-parallel preset runs with WHEELS_JOBS=4.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(std::optional<std::string> value) {
    if (const char* old = std::getenv("WHEELS_JOBS")) saved_ = old;
    if (value) {
      (void)setenv("WHEELS_JOBS", value->c_str(), 1);
    } else {
      (void)unsetenv("WHEELS_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (saved_) {
      (void)setenv("WHEELS_JOBS", saved_->c_str(), 1);
    } else {
      (void)unsetenv("WHEELS_JOBS");
    }
  }
  ScopedJobsEnv(const ScopedJobsEnv&) = delete;
  ScopedJobsEnv& operator=(const ScopedJobsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

std::int64_t apps_slots_counter() {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const obs::MetricValue* mv = snap.find("apps.slots");
  return mv != nullptr ? mv->value : 0;
}

// An app campaign fans a segment out only while two cores are free of
// other pool tasks, so a single-core host replays everything inline.
bool host_can_fan_out() { return std::thread::hardware_concurrency() >= 2; }

TEST(ParallelDeterminism, AppCampaignMatchesAcrossJobs) {
  // The three phones replay every recorded segment concurrently; the
  // bytes and the Det::Stable step count may not depend on how many
  // workers do it, and jobs=1 must not touch a pool at all.
  const apps::AppCampaignConfig cfg = apps::AppCampaignConfig::from_scenario(
      scenario::paper_default(), contract::kGoldenStride);
  std::string bytes1;
  std::int64_t slots1 = 0;
  for (const int jobs : {1, 2, 3}) {
    apps::AppCampaign c(cfg);
    c.set_jobs(jobs);
    ASSERT_EQ(c.jobs(), jobs);
    const CountPoolSubmits pool_submits;
    const std::int64_t before = apps_slots_counter();
    const std::string bytes = dataset::encode(c.run());
    const std::int64_t slots = apps_slots_counter() - before;
    if (jobs == 1) {
      EXPECT_EQ(CountPoolSubmits::submits(), 0)
          << "jobs=1 app campaign submitted pool tasks";
      EXPECT_EQ(dataset::fnv1a(bytes), kAppCampaignStride64Checksum)
          << "jobs=1 app campaign diverged from the pinned bytes";
      bytes1 = bytes;
      slots1 = slots;
      continue;
    }
    if (host_can_fan_out()) {
      EXPECT_GT(CountPoolSubmits::submits(), 0) << "jobs=" << jobs;
    }
    ASSERT_EQ(bytes.size(), bytes1.size()) << "jobs=" << jobs;
    EXPECT_TRUE(bytes == bytes1)
        << "jobs=" << jobs << " app campaign diverged from jobs=1: a phone "
           "is reading another operator's state";
    EXPECT_EQ(slots, slots1) << "apps.slots diverged at jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, AppCampaignDefaultsToOneWorkerPerOperator) {
  const apps::AppCampaignConfig cfg;
  {
    const ScopedJobsEnv env(std::nullopt);
    apps::AppCampaign c(cfg);
    EXPECT_EQ(c.jobs(), 3);
    c.set_jobs(1);
    EXPECT_EQ(c.jobs(), 1);
    c.set_jobs(0);
    EXPECT_EQ(c.jobs(), 3);
  }
  {
    const ScopedJobsEnv env(std::string("1"));
    EXPECT_EQ(apps::AppCampaign(cfg).jobs(), 1);
  }
  {
    const ScopedJobsEnv env(std::string("2"));
    EXPECT_EQ(apps::AppCampaign(cfg).jobs(), 2);
  }
}

// A short Los Angeles route, paper-default otherwise: a few app cycles,
// so a provider round trip stays cheap.
apps::AppCampaignConfig short_app_cfg() {
  scenario::ScenarioSpec s = scenario::paper_default();
  s.name = "short-route";
  s.route.waypoints = {{"Los Angeles", 34.05, -118.24, true},
                       {"East Los Angeles", 34.05, -118.195, false}};
  return apps::AppCampaignConfig::from_scenario(s, 2);
}

TEST(ParallelDeterminism, ProviderJobsReachAppCampaign) {
  // An explicit provider jobs value (options or set_jobs) serializes app
  // campaigns too; without one they keep their own per-operator default.
  const ScopedJobsEnv env(std::nullopt);
  dataset::ProviderOptions opts;
  opts.use_cache = false;

  std::shared_ptr<const apps::AppCampaignResult> fanned;
  {
    const CountPoolSubmits pool_submits;
    dataset::CampaignProvider provider(opts);
    fanned = provider.resolve_apps(short_app_cfg());
    if (host_can_fan_out()) {
      EXPECT_GT(CountPoolSubmits::submits(), 0)
          << "default provider should leave app campaigns fanned out";
    }
  }
  {
    const CountPoolSubmits pool_submits;
    opts.jobs = 1;
    dataset::CampaignProvider provider(opts);
    const auto serial = provider.resolve_apps(short_app_cfg());
    EXPECT_EQ(CountPoolSubmits::submits(), 0)
        << "ProviderOptions.jobs=1 did not reach the app campaign";
    EXPECT_TRUE(*serial == *fanned);
  }
  {
    const CountPoolSubmits pool_submits;
    opts.jobs = 0;
    dataset::CampaignProvider provider(opts);
    provider.set_jobs(1);
    const auto serial = provider.resolve_apps(short_app_cfg());
    EXPECT_EQ(CountPoolSubmits::submits(), 0)
        << "set_jobs(1) did not reach the app campaign";
    EXPECT_TRUE(*serial == *fanned);
  }
}

TEST(ParallelDeterminism, AppCampaignReplaysInlineOnBusyCores) {
  // Run as a pool task while every other core holds a running task, a
  // jobs=3 app campaign has no free core to gain: it replays every segment
  // inline, to the same bytes.
  const apps::AppCampaignConfig cfg = short_app_cfg();
  apps::AppCampaign reference(cfg);
  reference.set_jobs(1);
  const std::string expected = dataset::encode(reference.run());

  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool busy(cores);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> started{0};
  std::vector<std::future<void>> holders;
  for (int i = 0; i + 1 < cores; ++i) {
    holders.push_back(busy.submit([&] {
      started.fetch_add(1);
      gate.wait();
    }));
  }
  while (started.load() < cores - 1) std::this_thread::yield();

  const CountPoolSubmits pool_submits;
  auto run = busy.submit([&] {
    apps::AppCampaign c(cfg);
    c.set_jobs(3);
    return dataset::encode(c.run());
  });
  std::string bytes;
  try {
    bytes = run.get();
  } catch (...) {
    release.set_value();  // let the holders, and so the pool, finish
    throw;
  }
  // The one submit is the task above; the campaign added none.
  EXPECT_EQ(CountPoolSubmits::submits(), 1)
      << "app campaign fanned out although no core was free";
  release.set_value();
  for (auto& h : holders) h.get();
  EXPECT_TRUE(bytes == expected);
}

}  // namespace
}  // namespace wheels::trip
