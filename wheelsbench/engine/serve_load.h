// Open-loop load generator for the serve daemon.
//
// Requests are due on a fixed schedule (request k at t0 + k / rate),
// spread round-robin over a few connections that one generator thread
// drives, pipelining frames without waiting for replies. Latency is
// measured from when a request was due, not from when it was sent, so a
// stall charges every request queued behind it; how late the generator
// itself sent each request is recorded separately.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wheelsbench {

// The request universe of a workload and the order requests are drawn in.
struct QueryMix {
  std::vector<std::string> frames;    // request frame bytes per query
  std::vector<std::string> expected;  // reply frame bytes per query
  std::vector<std::uint32_t> order;   // query index of each request
};

struct LoadOptions {
  std::string socket_path;
  int connections = 2;
  double limit_ms = 0.0;  // p99 latency limit a step must meet
  bool tamper = false;    // corrupt one received reply (gate self-test)
};

struct StepResult {
  double rate_rps = 0.0;
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;      // no reply, or transport error
  std::uint64_t mismatched = 0;  // reply bytes differ from the expected
  std::uint64_t backlog = 0;     // unanswered when the last request was due
  // Answered requests per second over the schedule plus the p50 latency.
  double delivered_rps = 0.0;
  std::vector<double> latency_ms;   // answered requests in due order,
                                    // measured from the due time
  std::vector<double> send_lag_ms;  // per sent request
  bool passed = false;
};

// Run one ladder step: `rate_rps` for `seconds`, continuing the mix at
// `cursor` (advanced past the requests used).
[[nodiscard]] StepResult run_step(const LoadOptions& opts, const QueryMix& mix,
                                  std::size_t& cursor, double rate_rps,
                                  double seconds);

// Percentile (0..100) by nearest rank over an unsorted copy. Not
// core/stats.h's interpolating percentile: run.py summarises the same
// latencies by nearest rank, and the two must agree.
[[nodiscard]] double percentile_of(std::vector<double> xs, double p);

}  // namespace wheelsbench
