// The link environment an application run executes against.
//
// Applications are written against this tiny interface instead of the trip
// machinery so they can run over a recorded drive (AppCampaign, through a
// RecordedLink), a static baseline, or a synthetic trace in tests.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "core/units.h"
#include "ran/deployment.h"
#include "ran/kernel.h"
#include "ran/operator_profile.h"
#include "ran/ue.h"
#include "trip/trajectory.h"

namespace wheels::apps {

// Every app steps its link at this fixed slot.
inline constexpr Millis kAppSlot{10.0};

// How many steps `for (t = 0; t < duration; t += slot)` takes -- the loop
// shape of every app, with the same floating-point accumulation, so an app
// window's length is known before the app runs.
[[nodiscard]] std::size_t slot_count(Millis duration, Millis slot = kAppSlot);

struct LinkEnv {
  // Advance the underlying link by dt and return its state.
  std::function<ran::LinkSample(Millis dt)> step;
  // Wired one-way delay to the serving (cloud or edge) server.
  Millis path_one_way{12.0};
};

// Replays a recorded stretch of the drive for one UE: each step moves the
// UE onto the next recorded point through the segment-batch kernel
// (fill_segment_batch + UeSimulator::begin_segment + the batched step).
// Batches are prepared in chunks of kChunkRows, so the batch and the UE's
// prefetched shadowing rows stay small however long the stretch is.
// Stepping past the last recorded point, or at a dt other than the one the
// points were recorded at, throws std::logic_error: the recording decides
// how far the car moves, never the app.
class RecordedLink {
 public:
  static constexpr std::size_t kChunkRows = 2048;

  // `points` and `batch` must outlive the link; `batch` is scratch only.
  RecordedLink(ran::UeSimulator& ue, const ran::Deployment& dep,
               const ran::OperatorProfile& profile,
               std::span<const trip::TrajectoryPoint> points, Millis slot,
               ran::SegmentBatch& batch);

  ran::LinkSample step(Millis dt);

  // A LinkEnv whose step() is this link's.
  [[nodiscard]] LinkEnv env(Millis path_one_way);

  [[nodiscard]] std::size_t remaining() const {
    return points_.size() - next_;
  }

 private:
  ran::UeSimulator& ue_;
  const ran::Deployment& dep_;
  const ran::OperatorProfile& profile_;
  std::span<const trip::TrajectoryPoint> points_;
  Millis slot_;
  ran::SegmentBatch& batch_;
  std::size_t next_ = 0;         // next point to step onto
  std::size_t chunk_begin_ = 0;  // points_[chunk_begin_, chunk_end_) are
  std::size_t chunk_end_ = 0;    // the rows of batch_
};

}  // namespace wheels::apps
