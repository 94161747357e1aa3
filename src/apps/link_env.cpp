#include "apps/link_env.h"

#include <algorithm>
#include <stdexcept>

#include "trip/replay_kernel.h"

namespace wheels::apps {

std::size_t slot_count(Millis duration, Millis slot) {
  std::size_t n = 0;
  for (Millis t{0.0}; t.value < duration.value; t += slot) ++n;
  return n;
}

RecordedLink::RecordedLink(ran::UeSimulator& ue, const ran::Deployment& dep,
                           const ran::OperatorProfile& profile,
                           std::span<const trip::TrajectoryPoint> points,
                           Millis slot, ran::SegmentBatch& batch)
    : ue_(ue), dep_(dep), profile_(profile), points_(points), slot_(slot),
      batch_(batch) {}

ran::LinkSample RecordedLink::step(Millis dt) {
  if (next_ == points_.size()) {
    throw std::logic_error("RecordedLink: stepped past the recorded window");
  }
  if (dt.value != slot_.value) {
    throw std::logic_error(
        "RecordedLink: step dt differs from the recorded slot");
  }
  if (next_ == chunk_end_) {
    chunk_begin_ = next_;
    chunk_end_ = std::min(points_.size(), next_ + kChunkRows);
    trip::fill_segment_batch(
        points_.subspan(chunk_begin_, chunk_end_ - chunk_begin_), dep_,
        profile_, batch_);
    ue_.begin_segment(batch_);
  }
  const trip::TrajectoryPoint& pt = points_[next_];
  const std::size_t row = next_ - chunk_begin_;
  ++next_;
  return ue_.step(pt.time, dt, batch_, row);
}

LinkEnv RecordedLink::env(Millis path_one_way) {
  LinkEnv e;
  e.step = [this](Millis dt) { return step(dt); };
  e.path_one_way = path_one_way;
  return e;
}

}  // namespace wheels::apps
