#include "figures.h"

#include <cstring>
#include <map>

#include "analysis/correlation.h"
#include "analysis/coverage.h"
#include "analysis/dataset_stats.h"
#include "analysis/handover_analysis.h"
#include "analysis/longterm.h"
#include "analysis/operator_diversity.h"
#include "analysis/performance.h"
#include "core/stats.h"

namespace wheelsbench {
namespace {

using namespace wheels;
using trip::TestType;

constexpr std::array<TestType, 2> kBulk = {TestType::DownlinkBulk,
                                           TestType::UplinkBulk};
constexpr std::array<TestType, 3> kAllTests = {
    TestType::DownlinkBulk, TestType::UplinkBulk, TestType::Ping};
constexpr double kSpeedBounds[4] = {0.0, 20.0, 60.0, 1e9};

void add_shares(Digest& d, const analysis::TechShares& s) {
  for (double x : s.share) d.add(x);
  d.add(s.total_miles);
}

void add_percentiles(Digest& d, const std::vector<double>& v,
                     std::initializer_list<double> ps) {
  for (double p : ps) d.add(percentile(v, p));
}

// Figs. 1 and 2.
void coverage(const trip::CampaignResult& res, Digest& d) {
  const double route_km = res.route_length.kilometers();
  for (const auto& log : res.logs) {
    add_shares(d, analysis::coverage_from_passive(log.passive));
    add_shares(d, analysis::coverage_from_kpi(log.kpi));
    const auto pm =
        analysis::route_coverage_map_passive(log.passive, 50.0, route_km);
    const auto am = analysis::route_coverage_map_active(log.kpi, 50.0, route_km);
    d.add(analysis::coverage_disagreement(pm, am));
    analysis::KpiFilter dl, ul;
    dl.only_downlink = true;
    ul.only_uplink = true;
    add_shares(d, analysis::coverage_from_kpi(log.kpi, dl));
    add_shares(d, analysis::coverage_from_kpi(log.kpi, ul));
    for (int tz = 0; tz < 4; ++tz) {
      analysis::KpiFilter f;
      f.tz = tz;
      add_shares(d, analysis::coverage_from_kpi(log.kpi, f));
    }
    for (int b = 0; b < 3; ++b) {
      analysis::KpiFilter f;
      f.min_mph = kSpeedBounds[b];
      f.max_mph = kSpeedBounds[b + 1];
      add_shares(d, analysis::coverage_from_kpi(log.kpi, f));
    }
  }
}

// Figs. 3, 4, 5, 7 and 8.
void performance(const trip::CampaignResult& res,
                 const std::array<const trip::StaticBaseline*, 3>& statics,
                 Digest& d) {
  for (const auto* sb : statics) {
    add_percentiles(d, sb->dl_tput_mbps, {50, 100});
    add_percentiles(d, sb->ul_tput_mbps, {50, 100});
    add_percentiles(d, sb->rtt_ms, {0, 50});
  }
  for (const auto& log : res.logs) {
    analysis::PerfFilter dl, ul;
    dl.test = TestType::DownlinkBulk;
    ul.test = TestType::UplinkBulk;
    const auto dls = analysis::tput_samples(log.kpi, dl);
    const auto uls = analysis::tput_samples(log.kpi, ul);
    const auto rtts = analysis::rtt_samples(log.rtt, {});
    add_percentiles(d, dls, {50, 75, 100});
    add_percentiles(d, uls, {50, 75});
    add_percentiles(d, rtts, {50, 100});
    d.add(EmpiricalCdf(dls).at(5.0));
    d.add(EmpiricalCdf(uls).at(5.0));
  }
  // Fig. 4: per technology, plus Verizon edge vs cloud.
  for (auto test : kBulk) {
    for (const auto& log : res.logs) {
      for (radio::Tech tech : radio::kAllTechs) {
        analysis::PerfFilter f;
        f.test = test;
        f.tech = tech;
        const auto v = analysis::tput_samples(log.kpi, f);
        if (v.size() < 20) continue;
        add_percentiles(d, v, {10, 50, 75, 90, 100});
        d.add(EmpiricalCdf(v).at(2.0));
      }
    }
  }
  for (const auto& log : res.logs) {
    for (radio::Tech tech : radio::kAllTechs) {
      analysis::PerfFilter f;
      f.tech = tech;
      f.connected_only = true;
      const auto v = analysis::rtt_samples(log.rtt, f);
      if (v.size() < 20) continue;
      add_percentiles(d, v, {50, 90});
    }
  }
  const auto& vz = res.for_op(ran::OperatorId::Verizon);
  for (auto test : kBulk) {
    analysis::PerfFilter fe, fc;
    fe.test = fc.test = test;
    fe.server = net::ServerKind::Edge;
    fc.server = net::ServerKind::Cloud;
    d.add(percentile(analysis::tput_samples(vz.kpi, fe), 50));
    d.add(percentile(analysis::tput_samples(vz.kpi, fc), 50));
  }
  {
    analysis::PerfFilter fe, fc;
    fe.server = net::ServerKind::Edge;
    fc.server = net::ServerKind::Cloud;
    d.add(percentile(analysis::rtt_samples(vz.rtt, fe), 50));
    d.add(percentile(analysis::rtt_samples(vz.rtt, fc), 50));
  }
  // Fig. 5: per time zone.
  for (auto test : kBulk) {
    for (const auto& log : res.logs) {
      for (int tz = 0; tz < 4; ++tz) {
        analysis::PerfFilter f;
        f.test = test;
        f.tz = static_cast<TimeZone>(tz);
        add_percentiles(d, analysis::tput_samples(log.kpi, f), {50, 75});
      }
    }
  }
  // Figs. 7 and 8: versus speed.
  for (auto test : kBulk) {
    for (const auto& log : res.logs) {
      for (const auto& st : analysis::tput_by_speed_and_tech(log.kpi, test)) {
        d.add({st.p10, st.median, st.p90, st.max});
      }
    }
  }
  for (const auto& log : res.logs) {
    for (const auto& st : analysis::rtt_by_speed_and_tech(log.rtt)) {
      d.add({st.median, st.p90});
    }
    for (int b = 0; b < 3; ++b) {
      analysis::PerfFilter f;
      f.min_mph = kSpeedBounds[b];
      f.max_mph = kSpeedBounds[b + 1];
      d.add(percentile(analysis::rtt_samples(log.rtt, f), 50));
    }
  }
}

// Fig. 6.
void operator_diversity(const trip::CampaignResult& res, Digest& d) {
  const std::pair<ran::OperatorId, ran::OperatorId> pairs[] = {
      {ran::OperatorId::Verizon, ran::OperatorId::TMobile},
      {ran::OperatorId::TMobile, ran::OperatorId::ATT},
      {ran::OperatorId::ATT, ran::OperatorId::Verizon},
  };
  for (auto test : kBulk) {
    for (const auto& [a, b] : pairs) {
      const auto ps =
          analysis::pair_samples(res.for_op(a).kpi, res.for_op(b).kpi, test);
      const auto an = analysis::analyze_pair(ps);
      for (double f : an.bin_fraction) d.add(f);
      d.add(an.first_wins);
      add_percentiles(d, an.all_diffs, {25, 50, 75});
    }
  }
}

// Figs. 9 and 10, Table 3.
void longterm(const trip::CampaignResult& res, Digest& d) {
  for (const auto& log : res.logs) {
    for (auto test : kAllTests) {
      d.add(percentile(analysis::test_means(log.tests, test), 50));
      d.add(percentile(analysis::test_cv_percent(log.tests, test), 50));
      for (const auto& b : analysis::by_hs5g_share(log.tests, test, 4)) {
        d.add(b.median);
      }
    }
  }
  for (const auto& row : analysis::ookla_q3_2022()) {
    d.add({row.dl_mbps, row.ul_mbps, row.rtt_ms});
  }
}

// Figs. 11 and 12.
void handover(const trip::CampaignResult& res, Digest& d) {
  for (const auto& log : res.logs) {
    for (auto test : kBulk) {
      add_percentiles(d, analysis::handovers_per_mile(log.tests, test),
                      {50, 75, 100});
      add_percentiles(
          d, analysis::handover_durations(log.tests, log.test_handovers, test),
          {50, 75, 95});
    }
  }
  std::map<radio::HandoverKind, std::vector<double>> by_kind;
  for (auto test : kBulk) {
    for (const auto& log : res.logs) {
      std::vector<double> d1, d2;
      for (const auto& i :
           analysis::handover_impacts(log.kpi, log.test_handovers, test)) {
        d1.push_back(i.delta_t1);
        d2.push_back(i.delta_t2);
        if (test == TestType::DownlinkBulk) by_kind[i.kind].push_back(i.delta_t2);
      }
      add_percentiles(d, d1, {50});
      add_percentiles(d, d2, {50, 100});
    }
  }
  for (const auto& [kind, v] : by_kind) add_percentiles(d, v, {50});
}

// Table 2.
void correlation(const trip::CampaignResult& res, Digest& d) {
  for (const auto& log : res.logs) {
    for (auto test : kBulk) {
      const auto c = analysis::correlate(log.kpi, test);
      d.add({c.rsrp, c.mcs, c.ca, c.bler, c.speed, c.handovers,
             static_cast<double>(c.samples)});
    }
  }
}

// Table 1.
void dataset_stats(const trip::CampaignResult& res, Digest& d) {
  const auto st = analysis::dataset_stats(res);
  d.add({st.total_km, static_cast<double>(st.days), st.rx_gb, st.tx_gb});
  for (std::size_t i = 0; i < 3; ++i) {
    d.add({static_cast<double>(st.unique_cells[i]),
           static_cast<double>(st.handovers[i]), st.runtime_min[i]});
  }
}

}  // namespace

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_bits(bits);
}

void Digest::add_bits(std::uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    bytes_ += static_cast<char>((bits >> (8 * i)) & 0xffu);
  }
}

void Digest::add(const std::vector<double>& vs) {
  for (double v : vs) add(v);
}

void measurement_figures(
    Tracer& tracer, const trip::CampaignResult& res,
    const std::array<const trip::StaticBaseline*, 3>& statics, Digest& d) {
  {
    const Span s(tracer, "analysis.coverage", "analysis");
    coverage(res, d);
  }
  {
    const Span s(tracer, "analysis.performance", "analysis");
    performance(res, statics, d);
  }
  {
    const Span s(tracer, "analysis.operator_diversity", "analysis");
    operator_diversity(res, d);
  }
  {
    const Span s(tracer, "analysis.longterm", "analysis");
    longterm(res, d);
  }
  {
    const Span s(tracer, "analysis.handover", "analysis");
    handover(res, d);
  }
  {
    const Span s(tracer, "analysis.correlation", "analysis");
    correlation(res, d);
  }
  {
    const Span s(tracer, "analysis.dataset_stats", "analysis");
    dataset_stats(res, d);
  }
}

void app_figures(
    Tracer& tracer, const apps::AppCampaignResult& res,
    const std::array<const std::vector<apps::AppRunRecord>*, 3>& statics,
    Digest& d) {
  const Span s(tracer, "core.stats.app_qoe", "core");
  using apps::AppKind;
  for (auto op : ran::kAllOperators) {
    for (AppKind app : {AppKind::Ar, AppKind::Cav}) {
      for (const bool compression : {false, true}) {
        std::vector<double> e2e, fps, map;
        for (const auto& r : res.for_op(op)) {
          if (r.app != app || r.compression != compression ||
              r.median_e2e_ms <= 0.0) {
            continue;
          }
          e2e.push_back(r.median_e2e_ms);
          fps.push_back(r.offloaded_fps);
          map.push_back(r.map);
        }
        add_percentiles(d, e2e, {0, 50, 90});
        add_percentiles(d, fps, {50});
        add_percentiles(d, map, {50, 100});
      }
    }
    std::vector<double> qoe, br, reb, gbr, lat, drop;
    for (const auto& r : res.for_op(op)) {
      if (r.app == AppKind::Video) {
        qoe.push_back(r.qoe);
        br.push_back(r.avg_bitrate_mbps);
        reb.push_back(100.0 * r.rebuffer_fraction);
      } else if (r.app == AppKind::Gaming) {
        gbr.push_back(r.gaming_bitrate_mbps);
        lat.push_back(r.gaming_latency_ms);
        drop.push_back(100.0 * r.frame_drop_rate);
      }
    }
    add_percentiles(d, qoe, {0, 50});
    add_percentiles(d, br, {50});
    add_percentiles(d, reb, {50, 100});
    add_percentiles(d, gbr, {50});
    add_percentiles(d, lat, {50});
    add_percentiles(d, drop, {50, 100});
  }
  // Best static runs per operator and app.
  for (const auto* runs : statics) {
    double best_ar = 1e18, best_video = -1e18, best_gaming = 0.0;
    for (const auto& r : *runs) {
      if (r.app == AppKind::Ar && r.compression && r.mean_e2e_ms > 0.0) {
        best_ar = std::min(best_ar, r.mean_e2e_ms);
      } else if (r.app == AppKind::Video) {
        best_video = std::max(best_video, r.qoe);
      } else if (r.app == AppKind::Gaming) {
        best_gaming = std::max(best_gaming, r.gaming_bitrate_mbps);
      }
    }
    d.add({best_ar, best_video, best_gaming});
  }
}

}  // namespace wheelsbench
