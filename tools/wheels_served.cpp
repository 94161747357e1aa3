// wheels_served: the long-running campaign query daemon.
//
// Keeps hot WDS1 datasets memory-resident in an LRU-bounded store and
// answers analysis queries (KPI percentiles, per-region slices, app QoE
// summaries) over the framed binary protocol of src/serve, on an AF_UNIX
// socket or a stdin/stdout pipe. Cache misses resolve through
// CampaignProvider with cross-request single-flight, so a thundering herd
// on one cold fingerprint simulates exactly once.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/runtime.h"
#include "serve/daemon.h"

namespace {

using namespace wheels;

int usage(std::ostream& os, int code) {
  os << "usage: wheels_served (--socket PATH | --stdio) [options]\n"
        "\n"
        "options:\n"
        "  --socket PATH      listen on an AF_UNIX stream socket at PATH\n"
        "  --stdio            serve one session on stdin/stdout instead\n"
        "  --dir DIR          dataset cache directory (default:\n"
        "                     WHEELS_DATASET_DIR or build/dataset-cache)\n"
        "  --jobs N           simulation worker threads (default:\n"
        "                     WHEELS_JOBS, else 1, and one per operator\n"
        "                     inside an app campaign); any N produces\n"
        "                     byte-identical responses\n"
        "  --max-datasets N   resident dataset cap (default:\n"
        "                     WHEELS_SERVE_MAX_DATASETS, else 8)\n"
        "  --idle-ms N        per-connection idle/read timeout, 0 = off\n"
        "                     (default: WHEELS_SERVE_IDLE_MS, else 30000)\n"
        "  --max-frame N      max accepted frame body in bytes (default:\n"
        "                     WHEELS_SERVE_MAX_FRAME, else 1048576)\n"
        "  --verbose          per-session notes on stderr\n"
        "  --metrics PATH     write a JSON-lines metrics snapshot on exit\n"
        "                     (same as WHEELS_METRICS=PATH)\n"
        "  --trace PATH       write a Chrome trace_event file on exit\n"
        "                     (same as WHEELS_TRACE=PATH)\n";
  return code;
}

long parse_long_or_exit(const std::string& text, const char* opt) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < 0) {
    std::cerr << "wheels_served: invalid value '" << text << "' for " << opt
              << "\n";
    std::exit(2);
  }
  return v;
}

serve::Daemon* g_daemon = nullptr;

void on_signal(int) {
  // request_stop() is async-signal-safe: an atomic store + a pipe write.
  if (g_daemon != nullptr) g_daemon->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  serve::DaemonOptions opts;
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "wheels_served: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") return usage(std::cout, 0);
    if (arg == "--socket") {
      opts.socket_path = value();
    } else if (arg == "--stdio") {
      opts.stdio = true;
    } else if (arg == "--dir") {
      opts.router.store.provider.cache_dir = value();
    } else if (arg == "--jobs") {
      opts.router.store.provider.jobs =
          static_cast<int>(parse_long_or_exit(value(), "--jobs"));
    } else if (arg == "--max-datasets") {
      opts.router.store.max_datasets =
          static_cast<int>(parse_long_or_exit(value(), "--max-datasets"));
    } else if (arg == "--idle-ms") {
      opts.idle_timeout_ms =
          static_cast<int>(parse_long_or_exit(value(), "--idle-ms"));
    } else if (arg == "--max-frame") {
      opts.router.max_frame_bytes = parse_long_or_exit(value(), "--max-frame");
    } else if (arg == "--verbose") {
      opts.verbose = true;
      opts.router.store.provider.verbose = true;
    } else if (arg == "--metrics") {
      metrics_path = value();
    } else if (arg == "--trace") {
      trace_path = value();
    } else {
      std::cerr << "wheels_served: unknown argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }
  if (opts.socket_path.empty() && !opts.stdio) {
    std::cerr << "wheels_served: need --socket PATH or --stdio\n";
    return usage(std::cerr, 2);
  }
  obs::init_from_env();
  if (!metrics_path.empty()) obs::set_metrics_export_path(metrics_path);
  if (!trace_path.empty()) obs::set_trace_export_path(trace_path);

  serve::Daemon daemon(opts);
  g_daemon = &daemon;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const int rc = daemon.run();
  g_daemon = nullptr;
  return rc;
}
