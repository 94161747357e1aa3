#include "apps/app_campaign.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/accuracy.h"
#include "apps/link_env.h"
#include "core/thread_pool.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ran/scenario_profiles.h"
#include "trip/region.h"
#include "trip/route.h"
#include "trip/trajectory.h"

namespace wheels::apps {
namespace {

using radio::Tech;
using ran::OperatorId;

// Record and replay time are wall-clock; the replayed UE step count is a
// pure function of the config. All are counted per segment, never per
// slot.
struct AppMetrics {
  obs::Counter& record_us;
  obs::Counter& replay_us;
  obs::Counter& slots;
};

AppMetrics& app_metrics() {
  // wheels-lint: allow(static-local)
  static AppMetrics m{
      obs::Registry::global().counter("apps.record_us", obs::Det::WallClock),
      obs::Registry::global().counter("apps.replay_us", obs::Det::WallClock),
      obs::Registry::global().counter("apps.slots", obs::Det::Stable),
  };
  return m;
}

std::vector<net::EdgeSite> edge_sites_from(const trip::Route& route) {
  std::vector<net::EdgeSite> sites;
  for (const auto& c : route.cities()) {
    if (c.has_edge_server) sites.push_back({c.name, c.route_pos});
  }
  return sites;
}

constexpr Millis kArFrameInterval{1'000.0 / 30.0};

// Fill the app-specific metric fields of a record.
void fill_offload(AppRunRecord& rec, const OffloadRunResult& r,
                  bool is_ar, bool compression) {
  rec.mean_e2e_ms = r.mean_e2e_ms;
  rec.median_e2e_ms = r.median_e2e_ms;
  rec.offloaded_fps = r.offloaded_fps;
  rec.e2e_ms = r.e2e_ms;
  rec.frac_high_speed_5g = r.frac_high_speed_5g;
  if (is_ar) {
    rec.map = run_map(r.e2e_ms, kArFrameInterval, compression);
  }
}

// One operator's phone: its deployment, its UE and its own batch scratch,
// so the phones can replay a segment concurrently. Not movable: the UE
// holds references to the profile and the deployment.
struct AppPhone {
  ran::OperatorProfile profile;
  ran::Deployment dep;
  ran::UeSimulator ue;
  ran::SegmentBatch batch;

  AppPhone(const ran::OperatorProfile& profile_, const ran::Corridor& corridor,
           Rng dep_rng, Rng ue_rng, const radio::BandPlan& plan,
           ran::LoadRegime regime)
      : profile(profile_),
        dep(ran::Deployment::generate(corridor, profile, std::move(dep_rng))),
        ue(corridor, dep, profile, std::move(ue_rng),
           ran::TrafficProfile::Interactive, plan, regime) {}
  AppPhone(const AppPhone&) = delete;
  AppPhone& operator=(const AppPhone&) = delete;
};

// One app run of the round-robin cycle.
struct AppWindow {
  AppKind app = AppKind::Ar;
  bool compression = false;
  Millis duration{0.0};
};

// Gaps and fast-forwarded cycles: advance at the idle step while the
// budget lasts and the trip is not done.
void record_idle(std::vector<trip::TrajectoryPoint>& out,
                 trip::TripSimulator& trip, const ran::Corridor& corridor,
                 Millis duration) {
  out.clear();
  for (Millis el{0.0}; el.value < duration.value && !trip.finished();
       el += trip::kIdleStep) {
    out.push_back(trip::resolve(trip.advance(trip::kIdleStep), corridor));
  }
}

// App windows: exactly `slots` app slots. Past the end of the route the
// trip holds its last point and the app keeps stepping on it.
void record_window(std::vector<trip::TrajectoryPoint>& out,
                   trip::TripSimulator& trip, const ran::Corridor& corridor,
                   std::size_t slots) {
  out.clear();
  for (std::size_t i = 0; i < slots; ++i) {
    out.push_back(trip::resolve(trip.advance(kAppSlot), corridor));
  }
}

}  // namespace

AppCampaignConfig AppCampaignConfig::from_scenario(
    const scenario::ScenarioSpec& spec, int cycle_stride) {
  scenario::validate(spec);
  AppCampaignConfig cfg;
  cfg.seed = spec.seed;
  cfg.cycle_stride = cycle_stride;
  cfg.gap = Millis{spec.timing.gap_ms};
  cfg.drive.hours_per_day = spec.drive.hours_per_day;
  cfg.drive.start_hour_local = spec.drive.start_hour_local;
  cfg.drive.speed =
      trip::SpeedTargets{spec.speed.urban_mph, spec.speed.suburban_mph,
                         spec.speed.rural_mph, spec.speed.max_mph};
  cfg.spec = spec;
  return cfg;
}

AppCampaign::AppCampaign(AppCampaignConfig cfg)
    : cfg_(std::move(cfg)),
      jobs_(resolve_jobs(0, static_cast<int>(ran::kAllOperators.size()))) {
  scenario::validate(cfg_.spec);
}

void AppCampaign::set_jobs(int jobs) {
  jobs_ = resolve_jobs(jobs, static_cast<int>(ran::kAllOperators.size()));
}

const AppCampaignResult& AppCampaign::run() {
  const std::lock_guard<std::mutex> lock(run_mu_);
  if (ran_) return result_;
  const obs::Span run_span("apps.run", "apps");
  // Filled locally and published only on success: a throw leaves result_
  // empty and ran_ false.
  AppCampaignResult result;
  const trip::Route route = trip::Route::from_spec(cfg_.spec.route);
  Rng rng(cfg_.seed);
  const ran::Corridor corridor =
      trip::build_corridor(route, rng.fork("corridor"));
  const net::ServerSelector servers(edge_sites_from(route));
  const ran::LoadRegime regime =
      ran::regime_from_spec(cfg_.spec.load_regime);
  const scenario::AppMixSpec& mix = cfg_.spec.apps;
  // Skipped-cycle drive time: each enabled offload run is 20 s, video
  // 180 s, gaming 60 s, one gap after every enabled run. The default mix
  // evaluates to exactly the pre-scenario constant.
  const double offload_runs =
      (mix.ar ? 2.0 : 0.0) + (mix.cav ? 2.0 : 0.0);
  const double gap_count = offload_runs + (mix.video ? 1.0 : 0.0) +
                           (mix.gaming ? 1.0 : 0.0);
  const Millis skip_len{offload_runs * 20'000.0 +
                        (mix.video ? 180'000.0 : 0.0) +
                        (mix.gaming ? 60'000.0 : 0.0) +
                        gap_count * cfg_.gap.value};

  // The app runs of one cycle, in schedule order. Each is followed by a
  // gap.
  std::vector<AppWindow> windows;
  for (const bool is_ar : {true, false}) {
    if (is_ar ? !mix.ar : !mix.cav) continue;
    for (const bool compression : {false, true}) {
      const OffloadConfig cfg =
          is_ar ? ar_config(compression) : cav_config(compression);
      windows.push_back(
          {is_ar ? AppKind::Ar : AppKind::Cav, compression, cfg.run_duration});
    }
  }
  if (mix.video) {
    windows.push_back({AppKind::Video, false, VideoConfig{}.run_duration});
  }
  if (mix.gaming) {
    windows.push_back({AppKind::Gaming, false, GamingConfig{}.run_duration});
  }

  // The phones share the car: one trip drives the schedule, segment by
  // segment, and every operator replays each recorded segment with its own
  // UE and app streams. The trip's advance sequence is a pure function of
  // the config, so this equals driving a trip per operator.
  trip::TripSimulator trip(route, corridor, rng.fork("trip"), cfg_.drive);
  std::vector<std::unique_ptr<AppPhone>> phones;
  for (OperatorId op : ran::kAllOperators) {
    const scenario::OperatorSpec& ospec =
        cfg_.spec.operators[static_cast<std::size_t>(op)];
    phones.push_back(std::make_unique<AppPhone>(
        ran::profile_from_spec(ospec, op), corridor,
        // wheels-rng: dynamic(one deployment stream per operator name)
        rng.fork(ospec.name),
        // wheels-rng: dynamic(per-operator UE stream)
        rng.fork(ospec.name).fork("app-ue"), cfg_.spec.bands, regime));
  }
  AppMetrics& metrics = app_metrics();
  std::vector<trip::TrajectoryPoint> points;  // the segment in flight

  // The segment in flight is replayed by every phone, one task per phone
  // on a pool that lives for the whole run (none at jobs 1). fn(oi) reads
  // the shared recording and touches only phone oi and result.runs[oi];
  // the next segment is recorded once all of them are done. A segment is
  // fanned out only while at least two cores are free of other pool tasks:
  // inside other parallel work that already fills the cores (a provider or
  // a benchmark simulating several datasets at once) the fan-out gains no
  // core, and its extra threads and per-segment barrier only slow
  // everything down.
  std::optional<ThreadPool> pool;
  if (jobs_ > 1) {
    pool.emplace(static_cast<int>(
        std::min(static_cast<std::size_t>(jobs_), phones.size())));
  }
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const auto replay = [&](const auto& fn) {
    const std::int64_t replay_start = obs::now_ns();
    if (pool && cores - busy_pool_workers() >= 2) {
      parallel_for_each(*pool, phones.size(), fn);
    } else {
      for (std::size_t oi = 0; oi < phones.size(); ++oi) fn(oi);
    }
    metrics.replay_us.add(obs::elapsed_us(replay_start));
    metrics.slots.add(phones.size() * points.size());
  };

  const auto gap = [&](Millis duration) {
    const std::int64_t record_start = obs::now_ns();
    record_idle(points, trip, corridor, duration);
    metrics.record_us.add(obs::elapsed_us(record_start));
    replay([&](std::size_t oi) {
      AppPhone& ph = *phones[oi];
      ph.ue.set_traffic(ran::TrafficProfile::Idle);
      RecordedLink link(ph.ue, ph.dep, ph.profile, points, trip::kIdleStep,
                        ph.batch);
      for (std::size_t i = 0; i < points.size(); ++i) {
        link.step(trip::kIdleStep);
      }
      ph.ue.set_traffic(ran::TrafficProfile::Interactive);
    });
  };

  int cycle = 0;
  while (!trip.finished()) {
    if (cfg_.cycle_stride > 1 && (cycle % cfg_.cycle_stride) != 0) {
      gap(skip_len);
      ++cycle;
      continue;
    }
    ++cycle;

    for (const AppWindow& w : windows) {
      if (trip.finished()) break;
      const trip::TripPoint start = trip.current();
      const TimeZone tz = corridor.at(start.position).tz;
      const std::int64_t record_start = obs::now_ns();
      record_window(points, trip, corridor, slot_count(w.duration));
      metrics.record_us.add(obs::elapsed_us(record_start));

      const auto run_app = [&](std::size_t oi) {
        const OperatorId op = ran::kAllOperators[oi];
        const scenario::OperatorSpec& ospec = cfg_.spec.operators[oi];
        AppPhone& ph = *phones[oi];
        // wheels-rng: dynamic(per-operator app-session stream)
        const Rng app_rng = rng.fork(ospec.name).fork("apps");
        AppRunRecord rec;
        rec.app = w.app;
        rec.compression = w.compression;
        rec.op = op;
        rec.start = start.time;
        rec.position = start.position;
        rec.tz = tz;
        const auto ep = servers.select(op, rec.position, rec.tz);
        rec.server = ep.kind;
        const std::size_t ho_base = ph.ue.handovers().size();
        RecordedLink link(ph.ue, ph.dep, ph.profile, points, kAppSlot,
                          ph.batch);
        LinkEnv env = link.env(ep.one_way_delay);

        switch (w.app) {
          case AppKind::Ar:
          case AppKind::Cav: {
            // Fork indices derive from (cycle, is_ar, compression), so
            // disabling a family never renumbers the remaining streams.
            const bool is_ar = w.app == AppKind::Ar;
            const bool compression = w.compression;
            const auto cfg =
                is_ar ? ar_config(compression) : cav_config(compression);
            // wheels-rng: dynamic(disjoint salt per cycle/app/compression)
            const auto r = run_offload(cfg, env, app_rng.fork(cycle * 8 +
                                                              (is_ar ? 0 : 2) +
                                                              compression));
            fill_offload(rec, r, is_ar, compression);
            break;
          }
          case AppKind::Video: {
            const auto r = run_video(VideoConfig{}, env);
            rec.qoe = r.avg_qoe;
            rec.avg_bitrate_mbps = r.avg_bitrate_mbps;
            rec.rebuffer_fraction = r.rebuffer_fraction;
            rec.frac_high_speed_5g = r.frac_high_speed_5g;
            break;
          }
          case AppKind::Gaming: {
            const auto r =
                // wheels-rng: dynamic(gaming slot 7 of the per-cycle salt block)
                run_gaming(GamingConfig{}, env, app_rng.fork(cycle * 8 + 7));
            rec.gaming_bitrate_mbps = r.median_bitrate_mbps;
            rec.gaming_latency_ms = r.mean_latency_ms;
            rec.frame_drop_rate = r.frame_drop_rate;
            rec.frac_high_speed_5g = r.frac_high_speed_5g;
            break;
          }
        }
        if (link.remaining() != 0) {
          throw std::logic_error(std::string(to_string(w.app)) +
                                 " run ended before its recorded window");
        }
        rec.handovers = static_cast<int>(ph.ue.handovers().size() - ho_base);
        result.runs[oi].push_back(std::move(rec));
      };
      replay(run_app);
      gap(cfg_.gap);
    }
  }
  result_ = std::move(result);
  ran_ = true;
  return result_;
}

std::vector<AppRunRecord> AppCampaign::run_static_baseline(OperatorId op) {
  const scenario::OperatorSpec& ospec =
      cfg_.spec.operators[static_cast<std::size_t>(op)];
  const obs::Span baseline_span("apps.baseline." + ospec.name, "apps");
  std::vector<AppRunRecord> out;
  const trip::Route route = trip::Route::from_spec(cfg_.spec.route);
  Rng rng(cfg_.seed);
  const ran::Corridor corridor =
      trip::build_corridor(route, rng.fork("corridor"));
  const net::ServerSelector servers(edge_sites_from(route));
  const ran::LoadRegime regime =
      ran::regime_from_spec(cfg_.spec.load_regime);
  const scenario::AppMixSpec& mix = cfg_.spec.apps;
  const ran::OperatorProfile profile = ran::profile_from_spec(ospec, op);
  const ran::Deployment dep =
      // wheels-rng: dynamic(one deployment stream per operator name)
      ran::Deployment::generate(corridor, profile, rng.fork(ospec.name));
  // wheels-rng: dynamic(per-operator static-baseline stream)
  Rng srng = rng.fork(ospec.name).fork("static-apps");

  for (const auto& city : route.cities()) {
    // Nearest mmWave site in the urban core, else mid-band.
    const ran::Cell* site = nullptr;
    for (Tech tech : {Tech::NR_MMWAVE, Tech::NR_MID}) {
      double best_d = 22'000.0;
      for (const auto& c : dep.cells(tech)) {
        const double d = std::abs(c.route_pos.value - city.route_pos.value);
        if (d < best_d) {
          best_d = d;
          site = &c;
        }
      }
      if (site) break;
    }
    if (!site) continue;

    const Meters pos = site->route_pos;
    const TimeZone tz = corridor.at(pos).tz;
    const auto ep = servers.select(op, pos, tz);
    // wheels-rng: dynamic(per-city UE stream for the static baseline)
    ran::UeSimulator ue(corridor, dep, profile, srng.fork(city.name),
                        ran::TrafficProfile::Interactive, cfg_.spec.bands,
                        regime);
    ue.set_favourable_conditions(true);
    CivilTime noon;
    noon.day = 1;
    noon.hour = 12;
    SimTime t = from_civil(noon, tz);

    LinkEnv env;
    env.path_one_way = ep.one_way_delay;
    env.step = [&](Millis dt) {
      const auto link = ue.step(t, pos, Mph{0.0}, dt);
      t += dt;
      return link;
    };

    auto make_record = [&](AppKind app, bool compression) {
      AppRunRecord rec;
      rec.app = app;
      rec.compression = compression;
      rec.op = op;
      rec.start = t;
      rec.position = pos;
      rec.tz = tz;
      rec.server = ep.kind;
      return rec;
    };

    for (int rep = 0; rep < 3; ++rep) {
      for (const bool is_ar : {true, false}) {
        if (is_ar ? !mix.ar : !mix.cav) continue;
        for (const bool compression : {false, true}) {
          auto rec = make_record(is_ar ? AppKind::Ar : AppKind::Cav,
                                 compression);
          const auto cfg =
              is_ar ? ar_config(compression) : cav_config(compression);
          const auto r =
              // wheels-rng: dynamic(per-city stream, disjoint salt per rep/app)
              run_offload(cfg, env, srng.fork(city.name).fork(rep * 8 + 2 *
                                                              is_ar +
                                                              compression));
          fill_offload(rec, r, is_ar, compression);
          out.push_back(std::move(rec));
        }
      }
      if (mix.video) {
        auto rec = make_record(AppKind::Video, false);
        const auto r = run_video(VideoConfig{}, env);
        rec.qoe = r.avg_qoe;
        rec.avg_bitrate_mbps = r.avg_bitrate_mbps;
        rec.rebuffer_fraction = r.rebuffer_fraction;
        rec.frac_high_speed_5g = r.frac_high_speed_5g;
        out.push_back(std::move(rec));
      }
      if (mix.gaming) {
        auto rec = make_record(AppKind::Gaming, false);
        const auto r = run_gaming(GamingConfig{}, env,
                                  // wheels-rng: dynamic(per-city gaming rep, offset past the offload salt block)
                                  srng.fork(city.name).fork(100 + rep));
        rec.gaming_bitrate_mbps = r.median_bitrate_mbps;
        rec.gaming_latency_ms = r.mean_latency_ms;
        rec.frame_drop_rate = r.frame_drop_rate;
        rec.frac_high_speed_5g = r.frac_high_speed_5g;
        out.push_back(std::move(rec));
      }
    }
  }
  return out;
}

}  // namespace wheels::apps
