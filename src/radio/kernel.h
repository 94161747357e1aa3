// Batched replay kernel, radio half: per-band hoisted link-budget
// constants and table-driven SINR -> CQI -> MCS adaptation.
//
// Every function here is a cached mirror of an existing scalar radio
// function (pathloss, rsrp, sinr_downlink/uplink, compute_phy_rate): the
// per-band constant subexpressions are evaluated once in derive_plan() by
// calling the originals, and the per-slot remainder repeats the original
// expression tree term for term, in the same association order. The
// scalar functions stay the model definition; ran::UeSimulator computes
// its KPI chain only through these mirrors, which are bit-identical to
// the originals by construction -- tests/test_replay_kernel.cpp sweeps
// every table against its source function, and the golden seed-42
// stride-64 checksum pins the whole chain.
#pragma once

#include <array>
#include <cstddef>

#include "core/units.h"
#include "radio/band.h"
#include "radio/mcs.h"
#include "radio/pathloss.h"
#include "radio/phy_rate.h"
#include "radio/technology.h"

namespace wheels::radio {

// Per-band constants hoisted out of the per-slot KPI chain.
struct BandDerived {
  Tech tech = Tech::LTE;
  double pl0_db = 0.0;  // FSPL at the d0 reference, pathloss()'s first term
  std::array<double, 3> ple{};  // pathloss exponent, indexed by Environment
  double rsrp_const_db = 0.0;   // (per_re_power_dl + antenna_gain_dl)
  double ul_const_db = 0.0;     // (per_re_power_ul + antenna_gain_dl)
  double bw_hz_dl = 0.0;
  double bw_hz_ul = 0.0;
  int max_cc_dl = 1;
  int max_cc_ul = 1;
  int layers_dl = 1;
  int layers_ul = 1;
  double peak_dl_mbps = 0.0;
  double peak_ul_mbps = 0.0;
  // Per-MCS carrier rate prefixes of compute_phy_rate()'s accumulation
  // term ((bw_hz * se) * layers, evaluated in exactly that order), and the
  // same with the trailing * kPhyOverhead already applied -- used when the
  // BLER factor is provably exactly 1.0 (see cached_phy_rate).
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> rate_base_dl{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> rate_base_ul{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> rate_full_dl{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> rate_full_ul{};
};

// The full derived state of one band plan: per-band constants plus the
// link-adaptation tables (which are plan-independent but live here so a
// replaying UE carries exactly one derived object, no globals).
struct DerivedPlan {
  std::array<BandDerived, 5> bands{};  // indexed by Tech
  // cqi_required_sinr_db[c - 1] is the decode threshold of CQI c (1..15),
  // strictly increasing -- the counting lookup below relies on that.
  std::array<double, static_cast<std::size_t>(kMaxCqi)> cqi_required_sinr_db{};
  std::array<int, static_cast<std::size_t>(kMaxCqi) + 1> mcs_for_cqi{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> mcs_efficiency{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> mcs_threshold_db{};

  [[nodiscard]] const BandDerived& band(Tech t) const {
    return bands[static_cast<std::size_t>(t)];
  }
};

[[nodiscard]] BandDerived derive_band(const BandProfile& p);
[[nodiscard]] DerivedPlan derive_plan(const BandPlan& plan);

// pathloss(band, env, distance).value with the FSPL term and exponent
// table hoisted.
[[nodiscard]] double cached_pathloss_db(const BandDerived& b, Environment env,
                                        double distance_m);

// cqi_from_sinr(sinr) via the threshold table. The original keeps the
// highest CQI whose threshold is <= sinr; with strictly increasing
// thresholds that equals the count of thresholds <= sinr.
[[nodiscard]] int cqi_from_sinr_table(const DerivedPlan& dp, double sinr_db);

// compute_phy_rate(band, dir, sinr, num_cc, prb_fraction) with band
// constants from `b` and adaptation lookups from the tables in `dp`.
[[nodiscard]] PhyRateResult cached_phy_rate(const DerivedPlan& dp,
                                            const BandDerived& b,
                                            Direction dir, Db sinr, int num_cc,
                                            double prb_fraction);

}  // namespace wheels::radio
