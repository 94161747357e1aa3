// The measurement campaign: drives the route once, running the study's
// round-robin network test suite (30 s downlink bulk, 30 s uplink bulk,
// 20 s ICMP RTT) simultaneously on three phones (one per operator), while
// three passive "handover-logger" phones record technology and handovers
// continuously. Also provides the per-city static baselines of Fig. 3a.
//
// Execution model (see DESIGN.md "Parallel execution model"): the drive is
// recorded once into a Trajectory, then each operator's PhoneSet replays it
// on its own worker thread, one segment batch at a time
// (trip/replay_kernel.h). Results are bit-identical for any jobs count
// because every stochastic process is pinned to per-operator (or per-city)
// Rng forks and outputs land in per-operator slots assembled in fixed
// order.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <vector>

#include "core/rng.h"
#include "net/server.h"
#include "net/tcp_cubic.h"
#include "ran/corridor.h"
#include "ran/deployment.h"
#include "ran/kernel.h"
#include "ran/ue.h"
#include "scenario/spec.h"
#include "trip/records.h"
#include "trip/region.h"
#include "trip/route.h"
#include "trip/trajectory.h"
#include "trip/trip_simulator.h"

namespace wheels::trip {

struct CampaignConfig {
  std::uint64_t seed = 42;
  Millis slot{20.0};  // PHY/TCP simulation slot during active tests
  Millis tput_test_duration{30'000.0};
  Millis rtt_test_duration{20'000.0};
  Millis gap{3'000.0};
  Millis ping_interval{200.0};
  Millis sample_window{500.0};  // XCAL throughput logging period
  // Run every k-th test cycle and fast-forward the rest: k=1 reproduces
  // the full campaign; k=4 gives a 4x faster run with 1/4 of the samples
  // but the same geographic spread.
  int cycle_stride = 1;
  DriveConfig drive{};
  // The declarative scenario the campaign realizes. The timing/seed/drive
  // fields above are *derived* from it by from_scenario(); the spec is the
  // single owner of those values (the defaults here match paper-default so
  // a plain CampaignConfig{} still reproduces the study).
  scenario::ScenarioSpec spec = scenario::paper_default();
  // Execution knobs (worker count) live outside this struct on purpose:
  // they must never affect the dataset fingerprint or the result bytes.

  // Derive a config from a validated scenario. `cycle_stride` is an
  // execution knob, not part of the scenario (it changes sample density,
  // not the world being simulated).
  static CampaignConfig from_scenario(const scenario::ScenarioSpec& spec,
                                      int cycle_stride = 1);
};

struct CampaignResult {
  std::array<OperatorLogs, 3> logs;  // indexed by OperatorId value
  Meters route_length{0.0};
  int days = 0;
  Millis drive_time{0.0};

  [[nodiscard]] const OperatorLogs& for_op(ran::OperatorId op) const {
    return logs[static_cast<std::size_t>(op)];
  }

  friend bool operator==(const CampaignResult&,
                         const CampaignResult&) = default;
};

// Per-city static baseline (the "best static conditions" of Fig. 3a).
struct StaticBaseline {
  ran::OperatorId op = ran::OperatorId::Verizon;
  std::vector<double> dl_tput_mbps;  // 500 ms samples over all cities
  std::vector<double> ul_tput_mbps;
  std::vector<double> rtt_ms;
  int cities_tested = 0;

  friend bool operator==(const StaticBaseline&,
                         const StaticBaseline&) = default;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig cfg = CampaignConfig{});
  ~Campaign();

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  // Run the full driving campaign (idempotent and safe to call from
  // several threads: the first call simulates, later calls return the same
  // result). The reference stays valid for the lifetime of the Campaign;
  // copy every sample vector only if you need it to outlive the instance.
  const CampaignResult& run();

  // Static measurements near the best high-speed-5G site of each major
  // city (skipping operator-city pairs without mmWave/mid-band, like the
  // study did). Cities fan out across workers; samples are merged in route
  // order so the result is independent of the jobs count.
  StaticBaseline run_static_baseline(ran::OperatorId op);

  // Worker threads used by run()/run_static_baseline. jobs <= 0 resolves
  // from WHEELS_JOBS (default 1). Changing it never changes results, only
  // wall-clock time.
  void set_jobs(int jobs);
  [[nodiscard]] int jobs() const { return jobs_; }

  [[nodiscard]] const Route& route() const { return route_; }
  [[nodiscard]] const ran::Corridor& corridor() const { return corridor_; }
  [[nodiscard]] const ran::Deployment& deployment(ran::OperatorId op) const;

 private:
  struct PhoneSet;  // per-operator UEs + TCP flow + bookkeeping

  void replay_operator(PhoneSet& ph, const Trajectory& traj);
  void replay_bulk(PhoneSet& ph, const Trajectory& traj,
                   const TrajectorySegment& seg, TestType type);
  void replay_rtt(PhoneSet& ph, const Trajectory& traj,
                  const TrajectorySegment& seg);
  void replay_idle(PhoneSet& ph, const Trajectory& traj,
                   const TrajectorySegment& seg);
  // The passive UE borrows row `row` of the segment batch for its
  // geometry but keeps its own stepping cadence.
  void step_passive(PhoneSet& ph, const TrajectoryPoint& pt, Millis dt,
                    const ran::SegmentBatch& batch, std::size_t row);
  // Prepare the scratch batch for `seg` and start the test UE on it.
  const ran::SegmentBatch& segment_batch(PhoneSet& ph, const Trajectory& traj,
                                         const TrajectorySegment& seg);

  CampaignConfig cfg_;
  Rng rng_;
  Route route_;
  ran::Corridor corridor_;
  ran::LoadRegime regime_;
  // Realized roster profiles, indexed like result_.logs. Declared before
  // deployments_/phones_: both keep pointers/references into this array.
  std::array<ran::OperatorProfile, 3> profiles_;
  std::array<std::unique_ptr<ran::Deployment>, 3> deployments_;
  net::ServerSelector servers_;
  TripSimulator trip_;
  std::vector<std::unique_ptr<PhoneSet>> phones_;
  CampaignResult result_;
  int jobs_ = 1;
  std::mutex run_mu_;
  bool ran_ = false;
};

}  // namespace wheels::trip
