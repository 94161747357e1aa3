// The dynamic half of the RNG provenance contract (obs/rng_audit.h):
// the recorder must capture the true fork tree and per-stream draw
// counts, arming it must be byte-transparent (the PR-2 golden checksum
// is unchanged with the audit live), and because draws aggregate with
// commutative atomics the per-stream counts must be identical for
// jobs=1 and jobs=4.
//
// These tests are part of the tsan workload: the tsan-parallel preset
// runs the RngAudit.* campaign tests with WHEELS_JOBS=4 to prove the
// audit's thread-local caches and shared stream map race-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "apps/app_campaign.h"
#include "contract_pins.h"
#include "core/rng.h"
#include "dataset/serialize.h"
#include "obs/rng_audit.h"
#include "trip/campaign.h"

namespace wheels {
namespace {

// Re-arm + clear around each test so leftover state from other tests in
// this binary (or a prior campaign) never leaks into the snapshot.
class RngAudit : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_rng_audit_enabled(true);
    obs::reset_rng_audit();
  }
  void TearDown() override {
    obs::set_rng_audit_enabled(false);
    obs::reset_rng_audit();
  }
};

const obs::RngStreamStat* find_stream(
    const std::vector<obs::RngStreamStat>& stats, std::uint64_t id) {
  for (const auto& s : stats) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

TEST_F(RngAudit, ForkTreeRecorded) {
  Rng root(9001);
  Rng by_salt = root.fork(std::uint64_t{7});
  Rng by_label = root.fork("shadowing");
  for (int i = 0; i < 5; ++i) (void)by_salt.next_u64();
  (void)by_label.next_u64();

  const auto stats = obs::rng_audit_snapshot();
  ASSERT_EQ(stats.size(), 3u);

  const auto* r = find_stream(stats, root.stream_id());
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->has_parent);
  EXPECT_EQ(r->seeds, 1u);
  EXPECT_EQ(r->forks, 0u);
  EXPECT_EQ(r->draws, 0u);
  EXPECT_EQ(r->conflicts, 0u);

  const auto* s = find_stream(stats, by_salt.stream_id());
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->has_parent);
  EXPECT_EQ(s->parent, root.stream_id());
  EXPECT_EQ(s->salt, 7u);
  EXPECT_FALSE(s->has_label);
  EXPECT_EQ(s->draws, 5u);
  EXPECT_EQ(s->conflicts, 0u);

  const auto* l = find_stream(stats, by_label.stream_id());
  ASSERT_NE(l, nullptr);
  EXPECT_TRUE(l->has_parent);
  EXPECT_EQ(l->parent, root.stream_id());
  EXPECT_TRUE(l->has_label);
  EXPECT_EQ(l->label, "shadowing");
  EXPECT_EQ(l->draws, 1u);
}

TEST_F(RngAudit, CopiesShareOneStream) {
  // Copying an Rng duplicates generator state but not identity: the
  // blessed by-value hand-off idiom must aggregate into a single row.
  Rng root(5);
  Rng child = root.fork("trip");
  Rng copy = child;  // plain copy -- same stream fingerprint
  (void)child.next_u64();
  (void)copy.next_u64();

  const auto stats = obs::rng_audit_snapshot();
  const auto* c = find_stream(stats, child.stream_id());
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(copy.stream_id(), child.stream_id());
  EXPECT_EQ(c->draws, 2u);
  EXPECT_EQ(c->forks, 1u);
  EXPECT_EQ(c->conflicts, 0u);
}

TEST_F(RngAudit, RepeatedIdenticalForksAreNotConflicts) {
  // Re-deriving the same child from an unadvanced parent (the shared
  // trip-stream idiom in ran/ue.cpp) bumps `forks`, never `conflicts`.
  Rng parent(77);
  Rng a = parent.fork("fading");
  // wheels-lint: allow(duplicate-fork)
  Rng b = parent.fork("fading");
  EXPECT_EQ(a.stream_id(), b.stream_id());

  const auto stats = obs::rng_audit_snapshot();
  const auto* s = find_stream(stats, a.stream_id());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->forks, 2u);
  EXPECT_EQ(s->conflicts, 0u);
}

TEST_F(RngAudit, JsonlShapeMatchesCheckTraceParser) {
  Rng root(3);
  Rng child = root.fork("city \"quoted\"");
  (void)child.next_u64();

  const std::string jsonl = obs::rng_audit_to_jsonl(obs::rng_audit_snapshot());
  // Two streams -> two newline-terminated objects.
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  std::size_t lines = 0;
  for (const char ch : jsonl) lines += (ch == '\n') ? 1 : 0;
  EXPECT_EQ(lines, 2u);
  // The fields wheels_rng.py --check-trace keys on.
  EXPECT_NE(jsonl.find("\"id\":\"0x"), std::string::npos);
  EXPECT_NE(jsonl.find("\"parent\":null"), std::string::npos);
  EXPECT_NE(jsonl.find("\"label\":\"city \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"draws\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"conflicts\":0"), std::string::npos);
}

// Stride 256 keeps a full-route drive at a few seconds per run (same
// rationale as test_parallel_determinism.cpp).
trip::CampaignConfig sparse_cfg() {
  trip::CampaignConfig cfg;
  cfg.seed = 42;
  cfg.cycle_stride = 256;
  return cfg;
}

TEST_F(RngAudit, DrawCountsMatchAcrossJobs) {
  // Draw counts sum commutatively (relaxed fetch_add), so the recorded
  // tree must be identical for every jobs value -- this is the property
  // that lets CI diff the jobs=1 and jobs=4 JSONL traces byte-for-byte.
  trip::Campaign sequential(sparse_cfg());
  sequential.set_jobs(1);
  (void)sequential.run();
  const auto stats1 = obs::rng_audit_snapshot();

  obs::reset_rng_audit();
  trip::Campaign parallel(sparse_cfg());
  parallel.set_jobs(4);
  (void)parallel.run();
  const auto stats4 = obs::rng_audit_snapshot();

  ASSERT_FALSE(stats1.empty());
  ASSERT_EQ(stats1.size(), stats4.size());
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> by_id;
  for (const auto& s : stats1) by_id[s.id] = {s.draws, s.conflicts};
  for (const auto& s : stats4) {
    const auto it = by_id.find(s.id);
    ASSERT_NE(it, by_id.end()) << "stream only present at jobs=4";
    EXPECT_EQ(it->second.first, s.draws)
        << "draw count diverged across jobs for stream 0x" << std::hex
        << s.id;
    EXPECT_EQ(s.conflicts, 0u);
    EXPECT_EQ(it->second.second, 0u);
  }
  // And the serialized JSONL (what CI actually compares) is identical.
  EXPECT_EQ(obs::rng_audit_to_jsonl(stats1), obs::rng_audit_to_jsonl(stats4));
}

TEST_F(RngAudit, AppDrawCountsMatchAcrossJobs) {
  // The app campaign's phones fork and draw on pool workers: the recorded
  // tree, counts included, must still be the jobs=1 one.
  const apps::AppCampaignConfig cfg = apps::AppCampaignConfig::from_scenario(
      scenario::paper_default(), contract::kGoldenStride);
  apps::AppCampaign sequential(cfg);
  sequential.set_jobs(1);
  (void)sequential.run();
  const auto stats1 = obs::rng_audit_snapshot();

  obs::reset_rng_audit();
  apps::AppCampaign parallel(cfg);
  parallel.set_jobs(3);
  (void)parallel.run();
  const auto stats3 = obs::rng_audit_snapshot();

  ASSERT_FALSE(stats1.empty());
  EXPECT_EQ(obs::rng_audit_to_jsonl(stats1), obs::rng_audit_to_jsonl(stats3))
      << "app campaign RNG audit trace diverged between jobs=1 and jobs=3";
  for (const auto& s : stats3) {
    EXPECT_EQ(s.conflicts, 0u)
        << "runtime provenance conflict on stream 0x" << std::hex << s.id;
  }
}

TEST_F(RngAudit, AuditTransparentGoldenChecksum) {
  // The hard transparency pin: with the recorder live, the seed-42
  // stride-64 campaign must still hit the PR-2 golden checksum. The
  // hooks observe state; they may never perturb it.
  trip::CampaignConfig cfg;
  cfg.seed = contract::kGoldenSeed;
  cfg.cycle_stride = contract::kGoldenStride;
  trip::Campaign c(cfg);
  c.set_jobs(4);
  const std::uint64_t checksum = dataset::fnv1a(dataset::encode(c.run()));
  EXPECT_EQ(checksum, contract::kGoldenCampaignChecksum)
      << "audited campaign produced 0x" << std::hex << checksum;

  const auto stats = obs::rng_audit_snapshot();
  EXPECT_FALSE(stats.empty());
  for (const auto& s : stats) {
    EXPECT_EQ(s.conflicts, 0u)
        << "runtime provenance conflict on stream 0x" << std::hex << s.id;
  }
}

}  // namespace
}  // namespace wheels
