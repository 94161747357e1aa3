#include "checks.h"

#include <cmath>
#include <string_view>

#include "apps/app_campaign.h"
#include "trip/campaign.h"

namespace wheelsbench {
namespace {

using namespace wheels;

// Collects the first violation; later ones are ignored.
struct Verdict {
  std::string first;
  void fail(std::string_view what) {
    if (first.empty()) first = what;
  }
  void finite_nonneg(double v, std::string_view what) {
    if (!std::isfinite(v) || v < 0.0) fail(what);
  }
  void within(double v, double lo, double hi, std::string_view what) {
    if (!std::isfinite(v) || v < lo || v > hi) fail(what);
  }
};

template <typename Rec, typename TimeOf>
void monotone(Verdict& v, const std::vector<Rec>& recs, TimeOf time_of,
              std::string_view what) {
  for (std::size_t i = 1; i < recs.size(); ++i) {
    if (time_of(recs[i]) < time_of(recs[i - 1])) {
      v.fail(what);
      return;
    }
  }
}

void check(Verdict& v, const trip::OperatorLogs& log) {
  for (const auto& s : log.kpi) {
    v.finite_nonneg(s.tput_mbps, "kpi.tput_mbps");
    v.finite_nonneg(s.mcs, "kpi.mcs");
    v.within(s.bler, 0.0, 1.0, "kpi.bler");
    v.finite_nonneg(s.num_cc, "kpi.num_cc");
    v.finite_nonneg(s.speed.value, "kpi.speed");
    v.finite_nonneg(s.position.value, "kpi.position");
    if (!std::isfinite(s.rsrp_dbm)) v.fail("kpi.rsrp_dbm");
    if (s.handovers < 0) v.fail("kpi.handovers");
  }
  for (const auto& s : log.rtt) {
    v.finite_nonneg(s.rtt_ms, "rtt.rtt_ms");
    v.finite_nonneg(s.speed.value, "rtt.speed");
  }
  for (const auto& t : log.tests) {
    v.finite_nonneg(t.mean, "test.mean");
    v.finite_nonneg(t.stddev, "test.stddev");
    v.finite_nonneg(t.duration.value, "test.duration");
    v.finite_nonneg(t.bytes_transferred, "test.bytes");
    v.within(t.frac_high_speed_5g, 0.0, 1.0, "test.frac_high_speed_5g");
    if (t.samples < 0 || t.handovers < 0) v.fail("test.counts");
  }
  for (const auto* hos : {&log.test_handovers, &log.passive_handovers}) {
    for (const auto& h : *hos) v.finite_nonneg(h.duration.value, "ho.duration");
    monotone(v, *hos, [](const auto& h) { return h.time; }, "ho.time order");
  }
  monotone(v, log.kpi, [](const auto& s) { return s.time; }, "kpi.time order");
  monotone(v, log.rtt, [](const auto& s) { return s.time; }, "rtt.time order");
  monotone(v, log.passive, [](const auto& s) { return s.time; },
           "passive.time order");
  monotone(v, log.tests, [](const auto& t) { return t.start; },
           "test.start order");
}

void check(Verdict& v, const trip::CampaignResult& r) {
  for (const auto& log : r.logs) check(v, log);
  v.finite_nonneg(r.route_length.value, "route_length");
  if (r.days <= 0) v.fail("days");
}

void check(Verdict& v, const trip::StaticBaseline& b) {
  for (double x : b.dl_tput_mbps) v.finite_nonneg(x, "static.dl");
  for (double x : b.ul_tput_mbps) v.finite_nonneg(x, "static.ul");
  for (double x : b.rtt_ms) v.finite_nonneg(x, "static.rtt");
}

// QoE_k = B_k - lambda |B_k - B_{k-1}| - mu T_k can never exceed the top
// bitrate of the ladder (100 Mbps); mAP is a percentage.
constexpr double kMaxVideoQoe = 100.0;

void check(Verdict& v, const std::vector<apps::AppRunRecord>& runs) {
  for (const auto& r : runs) {
    v.finite_nonneg(r.mean_e2e_ms, "app.mean_e2e_ms");
    v.finite_nonneg(r.median_e2e_ms, "app.median_e2e_ms");
    v.finite_nonneg(r.offloaded_fps, "app.offloaded_fps");
    v.within(r.map, 0.0, 100.0, "app.map");
    for (double x : r.e2e_ms) v.finite_nonneg(x, "app.e2e_ms");
    if (!std::isfinite(r.qoe) || r.qoe > kMaxVideoQoe) v.fail("app.qoe");
    v.finite_nonneg(r.avg_bitrate_mbps, "app.avg_bitrate_mbps");
    v.within(r.rebuffer_fraction, 0.0, 1.0, "app.rebuffer_fraction");
    v.finite_nonneg(r.gaming_bitrate_mbps, "app.gaming_bitrate_mbps");
    v.finite_nonneg(r.gaming_latency_ms, "app.gaming_latency_ms");
    v.within(r.frame_drop_rate, 0.0, 1.0, "app.frame_drop_rate");
    v.within(r.frac_high_speed_5g, 0.0, 1.0, "app.frac_high_speed_5g");
    if (r.handovers < 0) v.fail("app.handovers");
  }
}

void check(Verdict& v, const apps::AppCampaignResult& r) {
  for (const auto& runs : r.runs) {
    check(v, runs);
    monotone(v, runs, [](const auto& x) { return x.start; },
             "app.start order");
  }
}

template <typename Result>
void round_trip(Verdict& v, std::string_view payload) {
  Result decoded;
  if (!dataset::decode(payload, decoded)) {
    v.fail("payload does not decode");
    return;
  }
  if (dataset::encode(decoded) != payload) v.fail("re-encode differs");
  check(v, decoded);
}

}  // namespace

std::string verify_persisted(const dataset::DatasetCache& cache,
                             const Persisted& p) {
  Verdict v;
  const auto loaded = cache.load(p.kind, p.fingerprint, p.op);
  if (!loaded) {
    v.fail("dataset file missing or corrupt");
  } else if (*loaded != p.payload) {
    v.fail("reloaded payload differs from the encoded one");
  } else {
    switch (p.kind) {
      case dataset::DatasetKind::Campaign:
        round_trip<trip::CampaignResult>(v, *loaded);
        break;
      case dataset::DatasetKind::StaticBaseline:
        round_trip<trip::StaticBaseline>(v, *loaded);
        break;
      case dataset::DatasetKind::AppCampaign:
        round_trip<apps::AppCampaignResult>(v, *loaded);
        break;
      case dataset::DatasetKind::AppStaticBaseline:
        round_trip<std::vector<apps::AppRunRecord>>(v, *loaded);
        break;
    }
  }
  if (v.first.empty()) return {};
  return std::string(dataset::to_string(p.kind)) + " " +
         dataset::DatasetCache::file_name(p.kind, p.fingerprint, p.op) +
         ": " + v.first;
}

}  // namespace wheelsbench
