// The three benchmark workloads. Each round runs in a fresh process with a
// fresh cache directory and walks the user's path through the layers:
//
//   cold     simulate the workload's datasets and persist them;
//   figures  load every dataset from disk with a fresh provider and run
//            every analysis call of the workload's figures;
//   serve    start wheels_served on that cache and drive it open-loop at a
//            ladder of fixed rates.
//
// drive-cold and apps-cold time all three phases after set-up. serve-mix
// runs cold (its working set of small library-scenario datasets) and
// figures (the in-process Router pass that computes the expected reply of
// every query) during set-up, then times the serve phase only.
#pragma once

#include <cstdint>
#include <string>

namespace wheelsbench {

struct RunOptions {
  std::string workload;  // drive-cold | apps-cold | serve-mix
  std::string mode = "round";  // round | setup | audit | probes
  std::uint64_t seed = 42;
  std::string dir;     // private work directory of this process
  int jobs = 1;
  std::string served;  // path of the wheels_served binary
  bool trace = false;
  std::string inject;  // corrupt-cache | tamper-reply (gate self-tests)
};

// Runs the requested mode, printing JSON lines on stdout: {"event":
// "ready", "t_ns": ...} when set-up is done, then one {"event": "result",
// ...} object. Returns the process exit code.
int run(const RunOptions& opts);

}  // namespace wheelsbench
