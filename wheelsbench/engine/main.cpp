// wheelsbench_engine: one process of the wheels benchmark.
//
// run.py starts it once per round (and once per set-up probe, RNG-audit
// pass and per-call probe pass) with a private work directory; the engine
// prints JSON lines on stdout, the last one being its result.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "wheelsbench_engine: %s\n"
               "usage: wheelsbench_engine --workload W --seed N --dir DIR "
               "--jobs J --served PATH\n"
               "         [--mode round|setup|audit|probes] [--trace 0|1]\n"
               "         [--inject corrupt-cache|tamper-reply]\n",
               what.c_str());
  std::exit(2);
}

double parse_number(const std::string& text, const std::string& opt) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < 0) {
    usage_error("invalid value '" + text + "' for " + opt);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  wheelsbench::RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--mode") {
      o.mode = value;
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_number(value, arg));
    } else if (arg == "--dir") {
      o.dir = value;
    } else if (arg == "--jobs") {
      o.jobs = static_cast<int>(parse_number(value, arg));
    } else if (arg == "--served") {
      o.served = value;
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--inject") {
      o.inject = value;
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  if (o.workload != "drive-cold" && o.workload != "apps-cold" &&
      o.workload != "serve-mix") {
    usage_error("unknown workload '" + o.workload + "'");
  }
  if (o.mode != "round" && o.mode != "setup" && o.mode != "audit" &&
      o.mode != "probes") {
    usage_error("unknown mode '" + o.mode + "'");
  }
  if (o.dir.empty() || o.jobs < 1) usage_error("need --dir and --jobs >= 1");
  if (o.mode == "round" && o.served.empty()) usage_error("need --served");
  try {
    return wheelsbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wheelsbench_engine: %s\n", e.what());
    return 1;
  }
}
