// Correctness gate of the benchmark: every persisted dataset must reload
// from disk, decode, and re-encode to the bytes that were written, and its
// records must satisfy the physical invariants of the model (finite,
// non-negative KPIs; QoE and mAP inside their formula bounds; per-operator
// timestamps that never go backwards).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/cache.h"
#include "dataset/serialize.h"
#include "ran/operator_profile.h"

namespace wheelsbench {

// One dataset file a workload wrote, with the payload it encoded.
struct Persisted {
  wheels::dataset::DatasetKind kind = wheels::dataset::DatasetKind::Campaign;
  std::uint64_t fingerprint = 0;
  wheels::ran::OperatorId op = wheels::ran::OperatorId::Verizon;
  std::string payload;
};

// Reload `p` through `cache`, compare, decode, re-encode and check the
// record invariants. Returns an empty string when everything holds, else
// the first violation.
[[nodiscard]] std::string verify_persisted(
    const wheels::dataset::DatasetCache& cache, const Persisted& p);

}  // namespace wheelsbench
