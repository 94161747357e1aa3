#include "apps/offload.h"

#include <algorithm>

#include "core/stats.h"
#include "radio/technology.h"

namespace wheels::apps {

OffloadConfig ar_config(bool use_compression) {
  OffloadConfig c;
  c.fps = 30.0;
  c.frame_raw_kb = 450.0;
  c.frame_compressed_kb = 50.0;
  c.compression_time = Millis{6.3};
  c.inference_time = Millis{24.9};
  c.decompression_time = Millis{1.0};
  c.run_duration = Millis{20'000.0};
  c.use_compression = use_compression;
  return c;
}

OffloadConfig cav_config(bool use_compression) {
  OffloadConfig c;
  c.fps = 10.0;
  c.frame_raw_kb = 2000.0;
  c.frame_compressed_kb = 38.0;
  c.compression_time = Millis{34.8};
  c.inference_time = Millis{44.0};
  c.decompression_time = Millis{19.1};
  c.run_duration = Millis{20'000.0};
  c.use_compression = use_compression;
  return c;
}

OffloadRunResult run_offload(const OffloadConfig& cfg, LinkEnv& env,
                             Rng rng) {
  const Millis slot = kAppSlot;
  const double frame_kb =
      cfg.use_compression ? cfg.frame_compressed_kb : cfg.frame_raw_kb;

  // Pipeline state for the frame in flight.
  enum class Stage { Idle, Compressing, Uploading, Serving, Downloading };
  Stage stage = Stage::Idle;
  Millis stage_remaining{0.0};
  double upload_kb_left = 0.0;
  double download_kb_left = 0.0;
  Millis frame_started{0.0};  // E2E clock of the frame in flight

  OffloadRunResult out;
  int hs5g_slots = 0, connected_slots = 0, slots = 0;
  Millis now{0.0};
  Millis next_frame{0.0};
  const Millis frame_interval{1'000.0 / cfg.fps};
  bool frame_available = false;

  while (now.value < cfg.run_duration.value) {
    const auto link = env.step(slot);
    now += slot;
    ++slots;
    if (link.connected) ++connected_slots;
    if (link.connected && radio::is_high_speed(link.tech)) ++hs5g_slots;

    // Camera produces frames at the configured FPS; only the newest one is
    // kept (best-effort offloading).
    if (!(now < next_frame)) {
      frame_available = true;
      next_frame += frame_interval;
    }

    // Advance the in-flight frame.
    if (stage != Stage::Idle) frame_started += slot;
    switch (stage) {
      case Stage::Idle:
        if (frame_available) {
          frame_available = false;
          frame_started = Millis{0.0};
          if (cfg.use_compression) {
            stage = Stage::Compressing;
            // Compression time varies a little with content.
            stage_remaining =
                Millis{cfg.compression_time.value * rng.uniform(0.9, 1.15)};
          } else {
            stage = Stage::Uploading;
            upload_kb_left = frame_kb;
          }
        }
        break;
      case Stage::Compressing:
        stage_remaining -= slot;
        if (stage_remaining.value <= 0.0) {
          stage = Stage::Uploading;
          upload_kb_left = frame_kb * rng.uniform(0.85, 1.15);
        }
        break;
      case Stage::Uploading: {
        // Mbps * ms / 8 = KB; best-effort sockets realize ~3/4 of the
        // radio rate (slow start, HARQ stalls).
        const double kb = 0.75 * link.phy_rate_ul.value * slot.value / 8.0;
        upload_kb_left -= kb;
        if (upload_kb_left <= 0.0) {
          stage = Stage::Serving;
          // One-way wired path + inference.
          stage_remaining =
              Millis{env.path_one_way.value * 2.0 +
                     cfg.inference_time.value * rng.uniform(0.95, 1.1)};
        }
        break;
      }
      case Stage::Serving:
        stage_remaining -= slot;
        if (stage_remaining.value <= 0.0) {
          stage = Stage::Downloading;
          download_kb_left = cfg.result_kb;
        }
        break;
      case Stage::Downloading: {
        const double kb = 0.75 * link.phy_rate_dl.value * slot.value / 8.0;
        download_kb_left -= kb;
        if (download_kb_left <= 0.0) {
          Millis e2e = frame_started;
          if (cfg.use_compression) {
            e2e += Millis{cfg.decompression_time.value *
                          rng.uniform(0.9, 1.1)};
          }
          out.e2e_ms.push_back(e2e.value);
          stage = Stage::Idle;
        }
        break;
      }
    }
  }

  out.offloaded_fps =
      static_cast<double>(out.e2e_ms.size()) / cfg.run_duration.seconds();
  if (!out.e2e_ms.empty()) {
    RunningStats rs;
    for (double v : out.e2e_ms) rs.add(v);
    out.mean_e2e_ms = rs.mean();
    out.median_e2e_ms = median(out.e2e_ms);
  }
  out.frac_high_speed_5g =
      slots ? static_cast<double>(hs5g_slots) / slots : 0.0;
  out.frac_connected =
      slots ? static_cast<double>(connected_slots) / slots : 0.0;
  return out;
}

}  // namespace wheels::apps
