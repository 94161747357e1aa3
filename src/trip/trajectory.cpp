#include "trip/trajectory.h"

#include "trip/campaign.h"

namespace wheels::trip {

TrajectoryPoint resolve(const TripPoint& pt, const ran::Corridor& corridor) {
  const auto& seg = corridor.at(pt.position);
  return {pt.time, pt.position, pt.speed, pt.day, seg.tz, seg.env};
}

namespace {

// Mirrors the sequential runner's per-segment loop shape exactly: sample the
// start state, then advance while the budget lasts and the trip is not done.
// Empty segments (trip finished mid-cycle) are still recorded because replay
// must mirror their side effects (traffic-profile switches, flow restarts).
void record_segment(Trajectory& out, TripSimulator& trip,
                    const ran::Corridor& corridor, SegmentKind kind,
                    int test_id, Millis slot, Millis duration) {
  TrajectorySegment seg;
  seg.kind = kind;
  seg.test_id = test_id;
  seg.slot = slot;
  seg.start = resolve(trip.current(), corridor);
  seg.begin = out.points.size();
  Millis elapsed{0.0};
  while (elapsed.value < duration.value && !trip.finished()) {
    const TripPoint pt = trip.advance(slot);
    elapsed += slot;
    out.points.push_back(resolve(pt, corridor));
  }
  seg.end = out.points.size();
  out.segments.push_back(seg);
}

}  // namespace

Trajectory record_trajectory(TripSimulator& trip, const ran::Corridor& corridor,
                             const CampaignConfig& cfg) {
  Trajectory out;
  const Millis cycle{2.0 * cfg.tput_test_duration.value +
                     cfg.rtt_test_duration.value + 3.0 * cfg.gap.value};
  int cycle_no = 0;
  int test_id = 0;
  while (!trip.finished()) {
    if (cfg.cycle_stride > 1 && (cycle_no % cfg.cycle_stride) != 0) {
      record_segment(out, trip, corridor, SegmentKind::FastForward, -1,
                     kIdleStep, cycle);
    } else {
      record_segment(out, trip, corridor, SegmentKind::BulkDl, test_id++,
                     cfg.slot, cfg.tput_test_duration);
      record_segment(out, trip, corridor, SegmentKind::Gap, -1, kIdleStep,
                     cfg.gap);
      record_segment(out, trip, corridor, SegmentKind::BulkUl, test_id++,
                     cfg.slot, cfg.tput_test_duration);
      record_segment(out, trip, corridor, SegmentKind::Gap, -1, kIdleStep,
                     cfg.gap);
      record_segment(out, trip, corridor, SegmentKind::Rtt, test_id++,
                     cfg.slot, cfg.rtt_test_duration);
      record_segment(out, trip, corridor, SegmentKind::Gap, -1, kIdleStep,
                     cfg.gap);
    }
    ++cycle_no;
  }
  out.total_drive_time = trip.total_drive_time();
  out.days = trip.current().day;
  return out;
}

}  // namespace wheels::trip
