// The analysis calls of the figure and table printers, without the
// printing: bench/bench_fig1..12 and bench_table1..3 for the measurement
// campaign, bench_fig13..16 for the app campaign. Every computed number
// is folded into a digest so the work cannot be elided and two runs of
// one seed can be compared bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_campaign.h"
#include "dataset/serialize.h"
#include "spans.h"
#include "trip/campaign.h"

namespace wheelsbench {

// The bit patterns of the numbers added, hashed with dataset::fnv1a.
class Digest {
 public:
  void add(double v);
  void add(const std::vector<double>& vs);
  void add_bits(std::uint64_t bits);
  [[nodiscard]] std::uint64_t value() const {
    return wheels::dataset::fnv1a(bytes_);
  }

 private:
  std::string bytes_;
};

// Figs. 1-12 and Tables 1-3, one span per analysis module.
void measurement_figures(
    Tracer& tracer, const wheels::trip::CampaignResult& res,
    const std::array<const wheels::trip::StaticBaseline*, 3>& statics,
    Digest& digest);

// Figs. 13-16: the per-operator QoE summaries and best static runs.
void app_figures(
    Tracer& tracer, const wheels::apps::AppCampaignResult& res,
    const std::array<const std::vector<wheels::apps::AppRunRecord>*, 3>&
        statics,
    Digest& digest);

}  // namespace wheelsbench
