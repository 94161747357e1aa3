// Equivalence proofs for the batched replay kernel.
//
// The campaign replays every trajectory segment through the batch, and
// every UE step computes the KPI chain through the cached mirrors in
// src/radio/kernel.*. Three layers of evidence keep that single path equal
// to the model: (1) unit sweeps pin every derived table and cached mirror
// to the scalar radio function it was hoisted from, including the exact
// CQI/MCS decision boundaries; (2) for every library scenario, UEs built
// from one fork replay the first segments of a recorded trajectory three
// ways -- position-based stepping, the batch with its shadowing prefill,
// and the batch without prefill (the passive logger's mode) -- and must
// produce identical samples and handover records; (3) whole campaigns,
// static baselines and app campaigns of every library scenario must
// reproduce the checksums the scalar radio:: chain produced before the
// mirrors became the only path (the paper-default campaign's is the
// golden seed-42 stride-64 checksum). App campaigns replay through the
// batch too; two short routes whose drive ends inside an app window and
// inside a gap pin the bytes the per-operator position-stepping engine
// produced.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "apps/app_campaign.h"
#include "apps/link_env.h"
#include "contract_pins.h"
#include "dataset/serialize.h"
#include "obs/metrics.h"
#include "radio/band.h"
#include "radio/kernel.h"
#include "radio/mcs.h"
#include "radio/pathloss.h"
#include "radio/phy_rate.h"
#include "ran/kernel.h"
#include "ran/operator_profile.h"
#include "ran/scenario_profiles.h"
#include "ran/ue.h"
#include "scenario/spec.h"
#include "trip/campaign.h"
#include "trip/region.h"
#include "trip/replay_kernel.h"
#include "trip/route.h"
#include "trip/trajectory.h"

namespace wheels::radio {
namespace {

TEST(ReplayKernelTable, CqiTableMatchesScalarAtBoundaries) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  // Exactly at, just below and just above every decode threshold: the
  // counting lookup and the scalar max-scan must agree on the >= edge.
  for (int c = 1; c <= kMaxCqi; ++c) {
    const double t = cqi_sinr_threshold(c).value;
    for (double s : {t - 1e-9, t, t + 1e-9}) {
      EXPECT_EQ(cqi_from_sinr_table(dp, s), cqi_from_sinr(Db{s}))
          << "cqi " << c << " sinr " << s;
    }
  }
  // Dense sweep across and beyond the table's range.
  for (double s = -30.0; s <= 60.0; s += 0.0625) {
    ASSERT_EQ(cqi_from_sinr_table(dp, s), cqi_from_sinr(Db{s})) << s;
  }
}

TEST(ReplayKernelTable, McsTablesMatchScalar) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  for (int c = 0; c <= kMaxCqi; ++c) {
    EXPECT_EQ(dp.mcs_for_cqi[static_cast<std::size_t>(c)], mcs_from_cqi(c));
  }
  for (int m = 0; m <= kMaxMcs; ++m) {
    EXPECT_EQ(dp.mcs_efficiency[static_cast<std::size_t>(m)],
              mcs_spectral_efficiency(m));
    EXPECT_EQ(dp.mcs_threshold_db[static_cast<std::size_t>(m)],
              mcs_sinr_threshold(m).value);
  }
}

TEST(ReplayKernelTable, PathlossMatchesScalar) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  for (Tech tech : kAllTechs) {
    const BandProfile& band = default_band_plan().profile(tech);
    const BandDerived& bd = dp.band(tech);
    for (Environment env :
         {Environment::Urban, Environment::Suburban, Environment::Rural}) {
      // Includes distances below the clamp reference.
      for (double d = 1.0; d <= 30'000.0; d *= 1.37) {
        ASSERT_EQ(cached_pathloss_db(bd, env, d),
                  pathloss(band, env, Meters{d}).value)
            << to_string(tech) << " d=" << d;
      }
    }
  }
}

TEST(ReplayKernelTable, PhyRateMatchesScalar) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  for (Tech tech : kAllTechs) {
    const BandProfile& band = default_band_plan().profile(tech);
    const BandDerived& bd = dp.band(tech);
    for (Direction dir : {Direction::Downlink, Direction::Uplink}) {
      for (int cc = 1; cc <= 4; ++cc) {
        for (double prb : {0.02, 0.3, 1.0}) {
          for (double s = -12.0; s <= 35.0; s += 0.13) {
            const PhyRateResult a =
                compute_phy_rate(band, dir, Db{s}, cc, prb);
            const PhyRateResult b =
                cached_phy_rate(dp, bd, dir, Db{s}, cc, prb);
            ASSERT_EQ(a.rate.value, b.rate.value)
                << to_string(tech) << " sinr " << s << " cc " << cc;
            ASSERT_EQ(a.mcs, b.mcs);
            ASSERT_EQ(a.bler, b.bler);
            ASSERT_EQ(a.num_cc, b.num_cc);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wheels::radio

namespace wheels::trip {
namespace {

// The first segments of a stride-64 trajectory: a full test cycle (bulk
// DL, bulk UL, RTT, each followed by a gap), the 63 fast-forwarded cycles
// after it and the next full cycle -- about 64k slots at both slot
// lengths, with ~100 handovers per scenario along the way.
constexpr int kStride = 64;
constexpr std::size_t kSegments = 6 + (kStride - 1) + 6;

ran::TrafficProfile traffic_for(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::BulkDl: return ran::TrafficProfile::BackloggedDl;
    case SegmentKind::BulkUl: return ran::TrafficProfile::BackloggedUl;
    case SegmentKind::Rtt:
    case SegmentKind::Gap:
    case SegmentKind::FastForward: return ran::TrafficProfile::Idle;
  }
  return ran::TrafficProfile::Idle;
}

// Every LinkSample field, compared exactly.
auto fields(const ran::LinkSample& s) {
  return std::tuple(s.connected, static_cast<int>(s.tech), s.cell,
                    s.rsrp.value, s.sinr_dl.value, s.sinr_ul.value, s.mcs_dl,
                    s.mcs_ul, s.bler_dl, s.bler_ul, s.num_cc_dl, s.num_cc_ul,
                    s.phy_rate_dl.value, s.phy_rate_ul.value, s.in_handover,
                    s.air_latency.value, s.cell_load);
}

class ReplayKernel : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayKernel, BatchedStepMatchesPositionStep) {
  const scenario::ScenarioSpec spec = scenario::load_scenario(GetParam());
  const CampaignConfig cfg = CampaignConfig::from_scenario(spec, kStride);
  const Campaign campaign(cfg);
  TripSimulator sim(campaign.route(), campaign.corridor(),
                    Rng(cfg.seed).fork("trip"), cfg.drive);
  const Trajectory traj = record_trajectory(sim, campaign.corridor(), cfg);
  ASSERT_GE(traj.segments.size(), kSegments);
  const ran::LoadRegime regime = ran::regime_from_spec(spec.load_regime);

  std::size_t handovers = 0;
  for (ran::OperatorId op : ran::kAllOperators) {
    const auto i = static_cast<std::size_t>(op);
    const ran::OperatorProfile profile =
        ran::profile_from_spec(spec.operators[i], op);
    const ran::Deployment& dep = campaign.deployment(op);
    // One fork, three copies: the UEs must consume identical streams.
    const Rng ue_rng = Rng(cfg.seed).fork("equivalence");
    const auto make_ue = [&] {
      return ran::UeSimulator(campaign.corridor(), dep, profile, ue_rng,
                              ran::TrafficProfile::Idle, spec.bands, regime);
    };
    ran::UeSimulator by_position = make_ue();
    ran::UeSimulator prefilled = make_ue();
    ran::UeSimulator borrowing = make_ue();
    ran::SegmentBatch batch;

    for (std::size_t k = 0; k < kSegments; ++k) {
      const TrajectorySegment& seg = traj.segments[k];
      for (ran::UeSimulator* ue : {&by_position, &prefilled, &borrowing}) {
        ue->set_traffic(traffic_for(seg.kind));
      }
      if (seg.end == seg.begin) continue;
      prepare_segment_batch(traj, seg, dep, profile, batch);
      prefilled.begin_segment(batch);
      for (std::size_t j = seg.begin; j < seg.end; ++j) {
        const TrajectoryPoint& pt = traj.points[j];
        const std::size_t row = j - seg.begin;
        const auto want = fields(
            by_position.step(pt.time, pt.position, pt.speed, seg.slot));
        ASSERT_EQ(fields(prefilled.step(pt.time, seg.slot, batch, row)), want)
            << GetParam() << " " << to_string(op) << " prefilled, segment "
            << k << " row " << row;
        ASSERT_EQ(fields(borrowing.step(pt.time, seg.slot, batch, row)), want)
            << GetParam() << " " << to_string(op) << " borrowing, segment "
            << k << " row " << row;
      }
    }
    EXPECT_EQ(prefilled.handovers(), by_position.handovers()) << to_string(op);
    EXPECT_EQ(borrowing.handovers(), by_position.handovers()) << to_string(op);
    EXPECT_EQ(prefilled.seen_cells(), by_position.seen_cells());
    EXPECT_EQ(borrowing.seen_cells(), by_position.seen_cells());
    handovers += by_position.handovers().size();
  }
  // The comparison must cover the handover path, not just steady service.
  EXPECT_GT(handovers, 0U) << GetParam();
}

// FNV-1a checksums recorded from the scalar radio:: chain, which the
// campaign ran with the batch switched off and the position-based UE step
// always ran. The campaign at each scenario's stride and the static
// baselines (Verizon, T-Mobile, AT&T) of the same Campaign; the app
// campaign at stride 10 and its static baselines.
struct ScalarPins {
  std::string_view scenario;
  int stride;
  std::uint64_t campaign;
  std::array<std::uint64_t, 3> statics;
  std::uint64_t apps;
  std::array<std::uint64_t, 3> app_statics;
};

constexpr int kAppStride = 10;

constexpr std::array<ScalarPins, 6> kScalarPins = {{
    {"paper-default", contract::kGoldenStride,
     contract::kGoldenCampaignChecksum,
     {0xc29acc08279cd0bcULL, 0x420116fc585096eeULL, 0x879955a220b6e345ULL},
     0xa6a56b138f72efddULL,
     {0x69562470916eaf7bULL, 0x2a0f79c812e411c1ULL, 0xa5379c22d1ca3952ULL}},
    {"urban-loop", 16, 0x99312d940f380debULL,
     {0x9ff77f37084144b7ULL, 0xe65effac37fe8c32ULL, 0x2103afcc92b1bd34ULL},
     0x10eac8ab4888f376ULL,
     {0x7a7b482bfc067975ULL, 0x9fd3ffe407899af2ULL, 0xcbe7a9db777ce568ULL}},
    {"commuter-corridor", 32, 0x1aa9892158e4fc92ULL,
     {0x7756a13a68ca3195ULL, 0x7b79dd89a9657af0ULL, 0x4140170db3b85e45ULL},
     0xb922559d773d0174ULL,
     {0xf6a445d2ac7ddd8fULL, 0xa81c3bb95606db92ULL, 0xe452f1d241e8c361ULL}},
    {"highway-convoy", 64, 0x072f582e23060ba0ULL,
     {0x12ccf681c9f334ebULL, 0x544e6e5399dd946fULL, 0x9027917a5d11e04dULL},
     0xaa0ffd5a2a75371dULL,
     {0x0d380b55f28a9b36ULL, 0x38e0d2d8c8ba46c3ULL, 0x60e9630cd910b6d8ULL}},
    {"eu-band-plan", 32, 0xefe42ffcd7bb8d7cULL,
     {0x951b9907967eaf58ULL, 0x5aec0380df414687ULL, 0x69c39dc4b15c8f35ULL},
     0xd8becc51f886f37cULL,
     {0x0465830cf2c126f6ULL, 0x7be60f0b661041daULL, 0x576c70e59e802df4ULL}},
    {"degraded-coverage-storm", 32, 0xc73f9d0613f49fcbULL,
     {0x1825e2c5acb6a3b1ULL, 0xfcc65022fbb0887dULL, 0x932bc23f35d57a33ULL},
     0x0d1accc992300ec2ULL,
     {0xdf15e9107602ede4ULL, 0x7d2e5181628cf5c3ULL, 0x3d3e51e44a83e8e5ULL}},
}};

const ScalarPins& pins_for(std::string_view scenario) {
  for (const ScalarPins& p : kScalarPins) {
    if (p.scenario == scenario) return p;
  }
  ADD_FAILURE() << "no scalar pins for " << scenario;
  return kScalarPins[0];
}

// The campaign (at `jobs` workers) and its static baselines must hash to
// the scalar chain's checksums.
void expect_campaign_matches_scalar(std::string_view name, int jobs = 1) {
  const ScalarPins& pins = pins_for(name);
  Campaign c(CampaignConfig::from_scenario(
      scenario::load_scenario(std::string(name)), pins.stride));
  c.set_jobs(jobs);
  EXPECT_EQ(dataset::fnv1a(dataset::encode(c.run())), pins.campaign)
      << "scenario " << name << " at jobs=" << jobs
      << " diverged from the scalar replay bytes";
  for (ran::OperatorId op : ran::kAllOperators) {
    EXPECT_EQ(dataset::fnv1a(dataset::encode(c.run_static_baseline(op))),
              pins.statics[static_cast<std::size_t>(op)])
        << "scenario " << name << " static baseline " << to_string(op);
  }
}

TEST(ReplayKernel, PaperDefaultMatchesScalarAndGolden) {
  // The paper-default pin is the golden checksum itself.
  static_assert(kScalarPins[0].campaign == contract::kGoldenCampaignChecksum);
  expect_campaign_matches_scalar("paper-default");
}

TEST(ReplayKernel, UrbanLoopMatchesScalar) {
  expect_campaign_matches_scalar("urban-loop");
}

TEST(ReplayKernel, CommuterCorridorMatchesScalar) {
  expect_campaign_matches_scalar("commuter-corridor");
}

TEST(ReplayKernel, HighwayConvoyMatchesScalar) {
  expect_campaign_matches_scalar("highway-convoy");
}

TEST(ReplayKernel, EuBandPlanMatchesScalar) {
  expect_campaign_matches_scalar("eu-band-plan");
}

TEST(ReplayKernel, DegradedCoverageStormMatchesScalar) {
  expect_campaign_matches_scalar("degraded-coverage-storm");
}

TEST(ReplayKernel, MatchesAcrossJobs) {
  // Four workers must land on the same scalar bytes as one.
  expect_campaign_matches_scalar("urban-loop", 4);
}

// App campaigns record each schedule segment once and replay it per
// operator through the batch (apps::RecordedLink); their bytes must still
// be the ones the scalar chain produced when every operator re-drove the
// trip and stepped its UE by position.
class ReplayKernelApps : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayKernelApps, AppCampaignMatchesScalar) {
  const ScalarPins& pins = pins_for(GetParam());
  apps::AppCampaign c(apps::AppCampaignConfig::from_scenario(
      scenario::load_scenario(GetParam()), kAppStride));
  EXPECT_EQ(dataset::fnv1a(dataset::encode(c.run())), pins.apps)
      << "app campaign " << GetParam()
      << " diverged from the scalar replay bytes";
  for (ran::OperatorId op : ran::kAllOperators) {
    EXPECT_EQ(dataset::fnv1a(dataset::encode(c.run_static_baseline(op))),
              pins.app_statics[static_cast<std::size_t>(op)])
        << "app campaign " << GetParam() << " static baseline "
        << to_string(op);
  }
}

// A short Los Angeles route, paper-default otherwise: the drive lasts a
// few cycles and ends wherever `end_lon` puts the end of the route.
scenario::ScenarioSpec short_route(double end_lon) {
  scenario::ScenarioSpec s = scenario::paper_default();
  s.name = "short-route";
  s.route.waypoints = {{"Los Angeles", 34.05, -118.24, true},
                       {"East Los Angeles", 34.05, end_lon, false}};
  return s;
}

// Ends inside the gap after the third cycle's gaming run.
constexpr double kEndsInGapLon = -118.202;
// Ends inside the fourth cycle's 180 s video run.
constexpr double kEndsInWindowLon = -118.195;

// Where a stride-1, full-mix app schedule runs out of route, walked with
// a TripSimulator of its own: the slots the app campaign must record, the
// app runs started, and whether the trip finished inside an app window
// (the app then keeps stepping on the last point) or inside a gap (the gap
// stops early).
struct ScheduleWalk {
  std::size_t slots = 0;
  std::size_t runs = 0;
  bool ended_in_window = false;
  bool ended_in_gap = false;
};

ScheduleWalk walk_app_schedule(const apps::AppCampaignConfig& cfg) {
  const Route route = Route::from_spec(cfg.spec.route);
  const Rng rng(cfg.seed);
  const ran::Corridor corridor = build_corridor(route, rng.fork("corridor"));
  TripSimulator trip(route, corridor, rng.fork("trip"), cfg.drive);
  // AR and CAV without and with compression, 360-video, cloud gaming.
  const std::array<Millis, 6> windows = {
      Millis{20'000.0}, Millis{20'000.0},  Millis{20'000.0},
      Millis{20'000.0}, Millis{180'000.0}, Millis{60'000.0}};
  ScheduleWalk walk;
  while (!trip.finished()) {
    for (const Millis duration : windows) {
      if (trip.finished()) break;
      ++walk.runs;
      const std::size_t n = apps::slot_count(duration);
      for (std::size_t i = 0; i < n; ++i) {
        trip.advance(apps::kAppSlot);
        ++walk.slots;
        if (trip.finished() && i + 1 < n) walk.ended_in_window = true;
      }
      for (Millis el{0.0}; el.value < cfg.gap.value && !trip.finished();
           el += kIdleStep) {
        trip.advance(kIdleStep);
        ++walk.slots;
        if (trip.finished() && el.value + kIdleStep.value < cfg.gap.value) {
          walk.ended_in_gap = true;
        }
      }
    }
  }
  return walk;
}

std::int64_t apps_slots_counter() {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const obs::MetricValue* mv = snap.find("apps.slots");
  return mv != nullptr ? mv->value : 0;
}

// Runs the short-route app campaign at stride 1 and checks it against the
// schedule walk and the checksum the per-operator position-stepping engine
// produced for it.
void expect_short_route_matches_parent(double end_lon, std::uint64_t pin,
                                       bool ends_in_window) {
  const apps::AppCampaignConfig cfg =
      apps::AppCampaignConfig::from_scenario(short_route(end_lon), 1);
  const ScheduleWalk walk = walk_app_schedule(cfg);
  ASSERT_EQ(walk.ended_in_window, ends_in_window);
  ASSERT_EQ(walk.ended_in_gap, !ends_in_window);

  apps::AppCampaign c(cfg);
  const std::int64_t before = apps_slots_counter();
  const apps::AppCampaignResult& result = c.run();
  // Every recorded slot is replayed once per operator: past the end of
  // the route the app keeps stepping, the gap stops.
  EXPECT_EQ(apps_slots_counter() - before,
            static_cast<std::int64_t>(3 * walk.slots));
  for (ran::OperatorId op : ran::kAllOperators) {
    EXPECT_EQ(result.for_op(op).size(), walk.runs) << to_string(op);
  }
  EXPECT_EQ(dataset::fnv1a(dataset::encode(result)), pin)
      << "short-route app campaign (end lon " << end_lon
      << ") diverged from the position-stepping bytes";
}

TEST(ReplayKernelApps, RouteEndsInsideAppWindowMatchesParent) {
  expect_short_route_matches_parent(kEndsInWindowLon, 0x61668ef568e1c0d9ULL,
                                    /*ends_in_window=*/true);
}

TEST(ReplayKernelApps, RouteEndsInsideGapMatchesParent) {
  expect_short_route_matches_parent(kEndsInGapLon, 0x6230b02257a9265cULL,
                                    /*ends_in_window=*/false);
}

TEST(ReplayKernelApps, SlotsCounterIsStable) {
  // apps.slots is Det::Stable: two runs of one config replay the same
  // number of UE steps, three per recorded slot.
  const apps::AppCampaignConfig cfg =
      apps::AppCampaignConfig::from_scenario(short_route(kEndsInGapLon), 1);
  std::array<std::int64_t, 2> slots{};
  for (std::int64_t& n : slots) {
    apps::AppCampaign c(cfg);
    const std::int64_t before = apps_slots_counter();
    (void)c.run();
    n = apps_slots_counter() - before;
  }
  EXPECT_EQ(slots[0], slots[1]);
  EXPECT_EQ(slots[0],
            static_cast<std::int64_t>(3 * walk_app_schedule(cfg).slots));
}

TEST(ReplayKernelApps, RecordedLinkThrowsPastItsWindow) {
  const scenario::ScenarioSpec spec = short_route(kEndsInGapLon);
  const Route route = Route::from_spec(spec.route);
  const Rng rng(spec.seed);
  const ran::Corridor corridor = build_corridor(route, rng.fork("corridor"));
  const ran::OperatorProfile profile =
      ran::profile_from_spec(spec.operators[0], ran::OperatorId::Verizon);
  const ran::Deployment dep =
      ran::Deployment::generate(corridor, profile, rng.fork("deployment"));
  ran::UeSimulator ue(corridor, dep, profile, rng.fork("ue"),
                      ran::TrafficProfile::Interactive, spec.bands);
  TripSimulator trip(route, corridor, rng.fork("trip"));
  std::vector<TrajectoryPoint> window;
  for (int i = 0; i < 3; ++i) {
    window.push_back(resolve(trip.advance(apps::kAppSlot), corridor));
  }
  ran::SegmentBatch batch;
  apps::RecordedLink link(ue, dep, profile, window, apps::kAppSlot, batch);
  apps::LinkEnv env = link.env(Millis{12.0});
  EXPECT_THROW((void)env.step(Millis{20.0}), std::logic_error)
      << "a dt other than the recorded slot";
  for (int i = 0; i < 3; ++i) {
    EXPECT_NO_THROW((void)env.step(apps::kAppSlot));
  }
  EXPECT_EQ(link.remaining(), 0U);
  EXPECT_THROW((void)env.step(apps::kAppSlot), std::logic_error);
}

std::vector<std::string> library_names() {
  std::vector<std::string> names;
  for (const scenario::ScenarioSpec& s : scenario::builtin_scenarios()) {
    names.push_back(s.name);
  }
  return names;
}

std::string test_name(const ::testing::TestParamInfo<std::string>& param) {
  std::string name = param.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Library, ReplayKernel,
                         ::testing::ValuesIn(library_names()), test_name);
INSTANTIATE_TEST_SUITE_P(Library, ReplayKernelApps,
                         ::testing::ValuesIn(library_names()), test_name);

}  // namespace
}  // namespace wheels::trip
