// Per-call cost probes for the hot functions of the cold path.
//
// Inputs come from the workload's own recorded trajectory: the drive is
// recorded with trip::record_trajectory exactly as Campaign::run records
// it, a spread of its bulk-downlink segments is replayed through a UE, and
// the resulting link samples feed the PHY-rate and CUBIC probes. Each
// probe reports the median over several passes of nanoseconds per call.
#pragma once

#include <cstdint>

#include "trip/campaign.h"

namespace wheelsbench {

struct ProbeResult {
  double rng_normal_ns = 0.0;
  double phy_rate_ns = 0.0;
  double ue_step_ns = 0.0;
  double nearest_cell_ns = 0.0;
  double cubic_step_ns = 0.0;
  std::uint64_t calls = 0;  // calls timed per probe and pass
};

[[nodiscard]] ProbeResult run_probes(const wheels::trip::CampaignConfig& cfg);

}  // namespace wheelsbench
