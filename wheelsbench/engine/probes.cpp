#include "probes.h"

#include <algorithm>
#include <vector>

#include "core/rng.h"
#include "core/stats.h"
#include "net/tcp_cubic.h"
#include "radio/kernel.h"
#include "ran/kernel.h"
#include "ran/scenario_profiles.h"
#include "ran/ue.h"
#include "spans.h"
#include "trip/trajectory.h"

namespace wheelsbench {
namespace {

using namespace wheels;

constexpr int kPasses = 5;
constexpr std::size_t kSegments = 48;

// Keeps a probe's result observable so the timed calls are not elided.
volatile double g_sink = 0.0;

}  // namespace

ProbeResult run_probes(const trip::CampaignConfig& cfg) {
  const trip::Campaign campaign(cfg);
  trip::TripSimulator sim(campaign.route(), campaign.corridor(),
                          Rng(cfg.seed).fork("trip"), cfg.drive);
  const trip::Trajectory traj =
      trip::record_trajectory(sim, campaign.corridor(), cfg);

  std::vector<const trip::TrajectorySegment*> bulk;
  for (const auto& seg : traj.segments) {
    if (seg.kind == trip::SegmentKind::BulkDl && seg.end > seg.begin) {
      bulk.push_back(&seg);
    }
  }
  std::vector<const trip::TrajectorySegment*> picked;
  const std::size_t step = std::max<std::size_t>(1, bulk.size() / kSegments);
  for (std::size_t i = 0; i < bulk.size() && picked.size() < kSegments;
       i += step) {
    picked.push_back(bulk[i]);
  }

  const auto op = ran::OperatorId::Verizon;
  const ran::OperatorProfile profile =
      ran::profile_from_spec(cfg.spec.operators[0], op);
  const ran::LoadRegime regime = ran::regime_from_spec(cfg.spec.load_regime);
  const ran::Deployment& dep = campaign.deployment(op);

  ProbeResult out;
  std::vector<double> nearest, ue_step, phy, cubic, normal;
  std::vector<ran::LinkSample> links;
  for (int pass = 0; pass < kPasses; ++pass) {
    ran::UeSimulator ue(campaign.corridor(), dep, profile,
                        Rng(cfg.seed).fork("probe-ue"),
                        ran::TrafficProfile::BackloggedDl, cfg.spec.bands,
                        regime);
    ran::SegmentBatch batch;
    links.clear();
    std::int64_t fill_ns = 0;
    std::int64_t step_ns = 0;
    for (const auto* seg : picked) {
      const std::size_t n = seg->end - seg->begin;
      batch.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& pt = traj.points[seg->begin + i];
        batch.pos_m[i] = pt.position.value;
        batch.speed_mph[i] = pt.speed.value;
        batch.env[i] = pt.env;
        batch.tz[i] = pt.tz;
      }
      const std::int64_t t0 = now_ns();
      ran::fill_nearest_cells(dep, profile, batch);
      const std::int64_t t1 = now_ns();
      ue.begin_segment(batch);
      for (std::size_t i = 0; i < n; ++i) {
        links.push_back(ue.step(traj.points[seg->begin + i].time, seg->slot,
                                batch, i));
      }
      step_ns += now_ns() - t1;
      fill_ns += t1 - t0;
    }
    const auto calls = static_cast<double>(links.size());
    nearest.push_back(static_cast<double>(fill_ns) / calls);
    ue_step.push_back(static_cast<double>(step_ns) / calls);

    const radio::DerivedPlan plan = radio::derive_plan(cfg.spec.bands);
    double acc = 0.0;
    std::int64_t t0 = now_ns();
    for (const auto& l : links) {
      const double prb = std::max(0.06, 1.0 - l.cell_load);
      acc += radio::cached_phy_rate(plan, plan.band(l.tech),
                                    radio::Direction::Downlink, l.sinr_dl,
                                    l.num_cc_dl, prb)
                 .rate.value;
    }
    phy.push_back(static_cast<double>(now_ns() - t0) / calls);

    net::CubicFlow flow(Rng(cfg.seed).fork("probe-tcp"));
    t0 = now_ns();
    for (const auto& l : links) {
      acc += flow.step(cfg.slot, l.phy_rate_dl,
                       Millis{2.0 * l.air_latency.value + 30.0});
    }
    cubic.push_back(static_cast<double>(now_ns() - t0) / calls);

    Rng rng = Rng(cfg.seed).fork("probe-normal");
    t0 = now_ns();
    for (std::size_t i = 0; i < links.size(); ++i) acc += rng.normal();
    normal.push_back(static_cast<double>(now_ns() - t0) / calls);
    g_sink = g_sink + acc;
    out.calls = links.size();
  }
  out.nearest_cell_ns = wheels::median(nearest);
  out.ue_step_ns = wheels::median(ue_step);
  out.phy_rate_ns = wheels::median(phy);
  out.cubic_step_ns = wheels::median(cubic);
  out.rng_normal_ns = wheels::median(normal);
  return out;
}

}  // namespace wheelsbench
