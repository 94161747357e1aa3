#include "apps/gaming.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/stats.h"
#include "radio/technology.h"

namespace wheels::apps {

GamingRunResult run_gaming(const GamingConfig& cfg, LinkEnv& env, Rng rng) {
  const Millis slot = kAppSlot;
  GamingRunResult out;

  double capacity_est = 20.0;  // Mbps, warm start
  double bitrate = 15.0;
  double queue_mbit = 0.0;  // backlog at the bottleneck
  double fps = cfg.target_fps;

  std::vector<double> bitrate_samples;
  std::vector<double> latency_samples;
  double frames_sent = 0.0, frames_dropped = 0.0;
  int hs5g_slots = 0, slots = 0;
  Millis since_adapt{0.0};
  Millis blackout{0.0};  // consecutive time with no usable capacity

  for (Millis now{0.0}; now.value < cfg.run_duration.value; now += slot) {
    const auto link = env.step(slot);
    ++slots;
    if (link.connected && radio::is_high_speed(link.tech)) ++hs5g_slots;

    const double cap = link.phy_rate_dl.value;

    // Bottleneck backlog: grows when sending above capacity, drains at
    // the spare rate. The jitter buffer drops (rather than queues) frames
    // beyond ~400 ms of backlog, bounding the latency excursion.
    queue_mbit += (bitrate - cap) * slot.seconds();
    queue_mbit = std::clamp(queue_mbit, 0.0, 0.25 * std::max(bitrate, cap));
    const double queue_ms =
        cap > 0.1 ? queue_mbit / cap * 1e3
                  : (queue_mbit > 0.0 ? 250.0 : 0.0);

    // Frame accounting: frames whose queueing exceeds a few frame
    // intervals are dropped unless the frame rate adapts.
    const double frame_interval_ms = 1'000.0 / fps;
    frames_sent += fps * slot.seconds();
    if (!link.connected || link.in_handover || cap < 0.1) {
      blackout += slot;
      // Brief interruptions ride out the jitter buffer; once it is
      // exhausted (~2 s) every frame is lost.
      frames_dropped +=
          (blackout.value > 2'000.0 ? 0.9 : 0.2) * fps * slot.seconds();
    } else if (queue_ms > 4.0 * frame_interval_ms && cap < bitrate) {
      // Overloaded: the platform first adapts FPS, still losing a few.
      blackout = Millis{0.0};
      fps = std::max(15.0, fps - 30.0 * slot.seconds());
      frames_dropped += 0.1 * fps * slot.seconds();
    } else {
      blackout = Millis{0.0};
      fps = std::min(cfg.target_fps, fps + 10.0 * slot.seconds());
    }

    // Latency sample ~10 Hz: RTT/2-ish network latency + queueing.
    if (slots % 10 == 0) {
      const double net_lat = link.air_latency.value +
                             env.path_one_way.value + queue_ms +
                             rng.uniform(0.0, 3.0);
      latency_samples.push_back(net_lat);
      bitrate_samples.push_back(bitrate);
    }

    // Capacity estimation + bitrate adaptation at 100 ms cadence.
    since_adapt += slot;
    if (since_adapt.value >= 100.0) {
      since_adapt = Millis{0.0};
      capacity_est = (1.0 - cfg.ema_alpha) * capacity_est +
                     cfg.ema_alpha * cap;
      double target = cfg.capacity_safety * capacity_est;
      target = std::clamp(target, cfg.min_bitrate_mbps,
                          cfg.max_bitrate_mbps);
      // The adapter ramps up slowly and cuts quickly.
      if (target > bitrate) {
        bitrate += std::min(2.0, target - bitrate);
      } else {
        bitrate = target;
      }
    }
  }

  if (!bitrate_samples.empty()) {
    out.median_bitrate_mbps = median(bitrate_samples);
  }
  if (!latency_samples.empty()) {
    RunningStats rs;
    for (double v : latency_samples) rs.add(v);
    out.mean_latency_ms = rs.mean();
    out.p90_latency_ms = percentile(latency_samples, 90.0);
  }
  out.frame_drop_rate =
      frames_sent > 0.0 ? std::min(1.0, frames_dropped / frames_sent) : 0.0;
  out.frac_high_speed_5g =
      slots ? static_cast<double>(hs5g_slots) / slots : 0.0;
  return out;
}

}  // namespace wheels::apps
