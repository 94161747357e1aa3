#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/app_campaign.h"
#include "checks.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/thread_pool.h"
#include "dataset/fingerprint.h"
#include "dataset/provider.h"
#include "figures.h"
#include "obs/metrics.h"
#include "obs/rng_audit.h"
#include "obs/runtime.h"
#include "obs/trace.h"
#include "probes.h"
#include "scenario/spec.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve_load.h"
#include "spans.h"
#include "trip/campaign.h"

extern char** environ;

namespace wheelsbench {
namespace {

using namespace wheels;
namespace fs = std::filesystem;

// Every dataset of every workload is simulated at this cycle stride.
constexpr int kStride = 64;

// p99 latency limit of a ladder step; BENCHMARK.json states it in the
// serve-mix workload's description.
constexpr double kLimitMs = 100.0;

// Open-loop ladder of one workload. The first step runs at the reference
// rate. The steps above it start at the cap and climb by kClimb until a
// rate fails; then they bisect (geometrically) between the highest passing
// and the lowest failing rate until the two are within kResolution, which
// locates the knee to about 12%. A step passes when its p99 latency (from
// due time) meets the limit, no request fails and the backlog does not
// grow.
//
// The knee is a per-layer metric; untraced rounds stop once the cap
// passes. The end-to-end serve_max_rps is the knee capped at `cap_rps`,
// about half the knee of a quiet host: the knee moves with the load other
// tenants put on a shared host (a ten-seed spread of 0.34 on serve-mix,
// 4-core host), wider than any bound an end-to-end metric may carry, so
// that metric registers only a loss that takes the capacity below the cap.
struct Ladder {
  double ref_rps;
  double ref_seconds;  // long enough for many 1000-request windows
  double cap_rps;
};

constexpr double kClimb = 1.25;
constexpr double kResolution = 1.12;
// Upper bound on the steps of one ladder, retries included.
constexpr int kMaxSteps = 24;
// Duration of every step above the reference rate.
constexpr double kStepSeconds = 0.4;

Ladder ladder_for(const std::string& workload) {
  // With four connections on a quiet 4-core host the daemon degrades from
  // about 6000-7500 requests/s on drive-cold, 4000-5500/s on serve-mix
  // (store-miss decodes) and 190000-230000/s on apps-cold.
  if (workload == "drive-cold") return {1000.0, 3.0, 3000.0};
  if (workload == "apps-cold") return {20000.0, 1.0, 80000.0};
  return {1000.0, 4.0, 2000.0};
}

// ---- JSON output -------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  JsonObject& number(const std::string& key, double v) {
    return raw(key, num(v));
  }
  JsonObject& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& string(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", xs[i]);
    out += buf;
  }
  return out + "]";
}

void emit(const std::string& line) {
  std::fputs((line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

// ---- obs counters --------------------------------------------------------------

// Counter/gauge value, or a histogram's sum, from one registry snapshot.
std::int64_t metric(const obs::Snapshot& snap, std::string_view name) {
  const obs::MetricValue* mv = snap.find(name);
  if (mv == nullptr) return 0;
  return mv->kind == obs::MetricKind::Histogram ? mv->sum : mv->value;
}

// Peak RSS of this process, and of a child process while it still runs.
double peak_rss_mb() {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---- the serve daemon as a child process -----------------------------------------

class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::string& socket,
                const std::string& cache, int jobs)
      : socket_(socket) {
    const std::string jobs_s = std::to_string(jobs);
    std::vector<std::string> args = {binary,   "--socket", socket, "--dir",
                                     cache,    "--jobs",   jobs_s, "--idle-ms",
                                     "0"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    // Keep the engine's stdout for its own JSON lines.
    posix_spawn_file_actions_adddup2(&fa, STDERR_FILENO, STDOUT_FILENO);
    const int rc =
        posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary);
    }
    for (int i = 0; i < 1000; ++i) {
      serve::Client c;
      if (c.connect(socket_)) {
        const auto r = c.call(serve::Request{serve::PingRequest{7}});
        if (r && std::holds_alternative<serve::PongReply>(r->second)) return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("wheels_served exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop();
    throw std::runtime_error("wheels_served did not come up");
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  ~DaemonProcess() { stop(); }

  [[nodiscard]] pid_t pid() const { return pid_; }

  // Ask for a clean shutdown; kill after a grace period. Always reaps.
  void stop() {
    if (pid_ < 0) return;
    {
      serve::Client c;
      if (c.connect(socket_)) {
        (void)c.call(serve::Request{serve::ShutdownRequest{}});
      }
    }
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ---- workload definitions ---------------------------------------------------------

struct DatasetRef {
  std::string scenario;
  std::uint64_t seed = 0;
  bool apps = false;
};

scenario::ScenarioSpec spec_for(const DatasetRef& ref) {
  scenario::ScenarioSpec spec = scenario::load_scenario(ref.scenario);
  spec.seed = ref.seed;
  return spec;
}

// The datasets each workload generates (and later serves).
std::vector<DatasetRef> datasets_for(const std::string& workload,
                                     std::uint64_t seed) {
  if (workload == "drive-cold") return {{"paper-default", seed, false}};
  if (workload == "apps-cold") return {{"paper-default", seed, true}};
  // serve-mix: 6 small campaigns and 3 app campaigns -- more distinct
  // datasets than the store's default capacity of 8 -- listed from most to
  // least requested within each kind. The ranking is fixed so the cost of a
  // store miss (decoding a 3-4 MB campaign or a small app dataset) does not
  // depend on the seed; the seed picks the datasets' own seeds and the
  // request order.
  std::vector<DatasetRef> refs;
  for (std::uint64_t k = 0; k < 2; ++k) {
    for (const char* s : {"urban-loop", "eu-band-plan", "commuter-corridor"}) {
      refs.push_back({s, seed + k, false});
    }
  }
  for (const char* s : {"urban-loop", "eu-band-plan", "commuter-corridor"}) {
    refs.push_back({s, seed, true});
  }
  return refs;
}

serve::DatasetSelector selector_for(const DatasetRef& ref) {
  serve::DatasetSelector sel;
  sel.scenario = ref.scenario;
  sel.has_seed = true;
  sel.seed = ref.seed;
  sel.stride = kStride;
  return sel;
}

// Query kinds of the serve load and their shares of the requests. The
// shares follow wheels_loadgen's hot phase, which sends KpiPercentiles,
// RegionSlice and Ping in the ratio 3:1:1; AppQoe takes Ping's share. A
// kind that none of the workload's datasets answers drops out and the
// others keep their ratio (drive-cold 3:1, apps-cold AppQoe only).
enum QueryKind : std::uint8_t { kKpi, kRegion, kAppQoe, kKindCount };
constexpr std::array<double, kKindCount> kKindShare = {3.0, 1.0, 1.0};
constexpr std::array<const char*, kKindCount> kKindName = {"kpi", "region",
                                                           "app_qoe"};
// Within a kind, dataset popularity follows Zipf's law with this exponent,
// in the order of datasets_for(), and the queries of that kind on one
// dataset are equally likely. Like the kind shares this is an assumed
// workload, not a measured one; every run reports the kind shares it sent
// and the daemon's store-miss share.
constexpr double kZipfExponent = 1.0;

QueryKind query_kind(const serve::Request& q) {
  if (std::holds_alternative<serve::KpiQuery>(q)) return kKpi;
  if (std::holds_alternative<serve::RegionSliceQuery>(q)) return kRegion;
  return kAppQoe;
}

// Index drawn with probability proportional to its weight; `cdf` holds the
// running sums of the weights.
std::size_t draw(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform() * cdf.back();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

// Every distinct query against one dataset.
std::vector<serve::Request> queries_for(const DatasetRef& ref) {
  std::vector<serve::Request> out;
  const serve::DatasetSelector sel = selector_for(ref);
  for (std::uint8_t op = 0; op < 3; ++op) {
    if (ref.apps) {
      out.emplace_back(serve::AppQoeQuery{sel, op});
      continue;
    }
    for (std::uint8_t test = 0; test < 3; ++test) {
      const double bounds[5] = {-1.0, 0.0, 20.0, 60.0, 1e9};
      for (int b = 0; b < 4; ++b) {
        serve::KpiQuery q;
        q.dataset = sel;
        q.op = op;
        q.test = test;
        q.min_mph = b == 0 ? -1.0 : bounds[b];
        q.max_mph = b == 0 ? 1e9 : bounds[b + 1];
        out.emplace_back(q);
      }
      out.emplace_back(serve::RegionSliceQuery{sel, op, test});
    }
  }
  return out;
}

// ---- one round ---------------------------------------------------------------------

struct Unit {
  std::string name;
  std::string layer;
  dataset::DatasetKind kind;
  std::uint64_t fingerprint;
  ran::OperatorId op;
  std::function<std::string()> simulate_and_encode;
};

class Round {
 public:
  explicit Round(const RunOptions& o)
      : o_(o), tracer_(o.trace), cache_dir_(o.dir + "/cache") {}

  int run();

 private:
  void set_up();
  void cold(std::uint32_t parent);
  void figures();
  double figures_once(Digest& d);
  double router_pass(std::vector<std::string>& replies);
  void serve_prepare();
  void serve_phase();
  void verify();
  void trace_layers(JsonObject& layers);
  std::unique_ptr<trip::Campaign> make_campaign(const trip::CampaignConfig& cfg,
                                                int jobs);
  std::string drive(trip::Campaign& c);
  template <typename Result>
  std::string encoded(const Result& r) {
    const Span e(tracer_, "dataset.encode", "dataset");
    return dataset::encode(r);
  }
  void error(const std::string& what) {
    errors_.push_back(what);
    std::fprintf(stderr, "wheelsbench: %s\n", what.c_str());
  }

  const RunOptions& o_;
  Tracer tracer_;
  std::string cache_dir_;
  std::vector<DatasetRef> refs_;
  std::vector<scenario::ScenarioSpec> specs_;
  std::vector<Persisted> persisted_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::atomic<std::uint64_t> handovers_{0};
  std::atomic<std::uint64_t> app_runs_{0};
  std::uint64_t campaign_fnv_ = 0;
  Digest digest_;

  double scenario_s_ = 0.0;
  double cold_s_ = 0.0;
  double figures_s_ = 0.0;
  double serve_s_ = 0.0;
  std::uint32_t cold_span_ = 0;
  std::uint32_t figures_span_ = 0;
  std::uint32_t serve_span_ = 0;
  std::int64_t cold_t0_ = 0, cold_t1_ = 0, fig_t0_ = 0, fig_t1_ = 0;
  obs::Snapshot before_cold_, after_cold_, before_fig_, after_fig_;

  serve::RouterOptions router_opts_;
  QueryMix mix_;
  std::vector<serve::Request> queries_;
  std::vector<std::size_t> warm_queries_;  // first query of each dataset
  std::vector<QueryKind> query_kind_;      // per query
  std::array<std::uint64_t, kKindCount> kind_sent_{};  // requests sent
  std::vector<StepResult> steps_;
  bool knee_found_ = false;  // false: stopped at the cap or out of steps
  double peak_rss_mb_ = 0.0;  // engine and daemon, through the reference step
  std::uint64_t warm_attempted_ = 0;
  std::uint64_t reply_reports_ = 0;  // errors_ entries that count mismatches
  serve::StatsReply stats_;
  std::unique_ptr<DaemonProcess> daemon_;
};

void Round::set_up() {
  {
    const std::int64_t t0 = now_ns();
    const Span s(tracer_, "scenario.load", "scenario");
    refs_ = datasets_for(o_.workload, o_.seed);
    for (const auto& r : refs_) specs_.push_back(spec_for(r));
    scenario_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  }
  fs::remove_all(o_.dir);
  fs::create_directories(cache_dir_);
}

std::unique_ptr<trip::Campaign> Round::make_campaign(
    const trip::CampaignConfig& cfg, int jobs) {
  const Span s(tracer_, "trip.setup", "trip");
  auto c = std::make_unique<trip::Campaign>(cfg);
  c->set_jobs(jobs);
  return c;
}

// Run the measurement campaign and encode it.
std::string Round::drive(trip::Campaign& c) {
  const auto& res = c.run();
  for (const auto& log : res.logs) {
    handovers_ += log.test_handovers.size() + log.passive_handovers.size();
  }
  return encoded(res);
}

void Round::cold(std::uint32_t parent) {
  dataset::DatasetCache cache(cache_dir_);
  std::vector<Unit> units;
  std::unique_ptr<trip::Campaign> campaign;
  // App campaigns are the longest units; starting them first keeps the
  // fan-out's critical path short and steady.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < refs_.size(); ++i) {
    if (refs_[i].apps) order.push_back(i);
  }
  for (std::size_t i = 0; i < refs_.size(); ++i) {
    if (!refs_[i].apps) order.push_back(i);
  }
  for (std::size_t i : order) {
    const DatasetRef& ref = refs_[i];
    const scenario::ScenarioSpec& spec = specs_[i];
    if (ref.apps) {
      const auto acfg = apps::AppCampaignConfig::from_scenario(spec, kStride);
      units.push_back({"apps.campaign", "apps", dataset::DatasetKind::AppCampaign,
                       dataset::fingerprint(acfg), ran::OperatorId::Verizon,
                       [this, acfg] {
                         apps::AppCampaign c(acfg);
                         const auto& res = c.run();
                         for (const auto& runs : res.runs) {
                           app_runs_ += runs.size();
                           for (const auto& r : runs) {
                             handovers_ += static_cast<std::uint64_t>(r.handovers);
                           }
                         }
                         return encoded(res);
                       }});
      if (o_.workload != "apps-cold") continue;
      for (auto op : ran::kAllOperators) {
        units.push_back({"apps.baseline", "apps",
                         dataset::DatasetKind::AppStaticBaseline,
                         dataset::fingerprint_static(acfg), op, [this, acfg, op] {
                           apps::AppCampaign c(acfg);
                           return encoded(c.run_static_baseline(op));
                         }});
      }
      continue;
    }
    const auto cfg = trip::CampaignConfig::from_scenario(spec, kStride);
    if (o_.workload != "drive-cold") {
      // serve-mix working set: many small campaigns, one worker each.
      units.push_back({"trip.campaign", "trip", dataset::DatasetKind::Campaign,
                       dataset::fingerprint(cfg), ran::OperatorId::Verizon,
                       [this, cfg] { return drive(*make_campaign(cfg, 1)); }});
      continue;
    }
    // One Campaign serves the drive and its baselines, as the provider's
    // memoized instance does for `wheels_campaign generate`.
    campaign = make_campaign(cfg, o_.jobs);
    trip::Campaign* c = campaign.get();
    units.push_back({"trip.campaign", "trip", dataset::DatasetKind::Campaign,
                     dataset::fingerprint(cfg), ran::OperatorId::Verizon,
                     [this, c] { return drive(*c); }});
    for (auto op : ran::kAllOperators) {
      units.push_back({"trip.baseline", "trip",
                       dataset::DatasetKind::StaticBaseline,
                       dataset::fingerprint_static(cfg), op,
                       [this, c, op] { return encoded(c->run_static_baseline(op)); }});
    }
  }

  persisted_.assign(units.size(), Persisted{});
  std::mutex mu;
  parallel_for_each(o_.jobs, units.size(), [&](std::size_t i) {
    const Unit& u = units[i];
    const Span unit(tracer_, "unit." + u.name, "bench", parent);
    std::string payload;
    {
      // The layer call; the encode span nests inside it and is charged to
      // the dataset layer.
      const Span s(tracer_, u.name, u.layer);
      payload = u.simulate_and_encode();
    }
    {
      const Span s(tracer_, "dataset.store", "dataset");
      if (!cache.store(u.kind, u.fingerprint, u.op, payload)) {
        const std::lock_guard<std::mutex> lock(mu);
        error("cannot persist " + u.name);
      }
    }
    persisted_[i] = {u.kind, u.fingerprint, u.op, std::move(payload)};
  });
  attempted_ += units.size();
  if (o_.workload == "drive-cold") {
    campaign_fnv_ = dataset::fnv1a(persisted_.front().payload);
  }
}

// Repetitions of the figures pass per round (one when traced, so the
// trace covers exactly the reported pass); the median is reported.
int figure_reps(const RunOptions& o) {
  if (o.trace) return 1;
  if (o.workload == "apps-cold") return 200;  // a pass takes about 2 ms
  return 3;
}

// One figures pass with a fresh provider; returns its wall time.
double Round::figures_once(Digest& d) {
  dataset::ProviderOptions popts;
  popts.cache_dir = cache_dir_;
  popts.jobs = o_.jobs;
  dataset::CampaignProvider provider(popts);
  const std::int64_t t0 = now_ns();
  fig_t0_ = t0;
  {
    const Span phase(tracer_, "phase.figures", "bench");
    figures_span_ = phase.id();
    const auto& spec = specs_.front();
    if (!refs_.front().apps) {
      const auto cfg = trip::CampaignConfig::from_scenario(spec, kStride);
      const trip::CampaignResult* res = nullptr;
      std::array<const trip::StaticBaseline*, 3> statics{};
      {
        const Span s(tracer_, "dataset.load", "dataset");
        res = &provider.load_or_run(cfg);
        for (auto op : ran::kAllOperators) {
          statics[static_cast<std::size_t>(op)] =
              &provider.load_or_run_static(cfg, op);
        }
      }
      measurement_figures(tracer_, *res, statics, d);
      attempted_ += 4 + 7;
    } else {
      const auto acfg = apps::AppCampaignConfig::from_scenario(spec, kStride);
      const apps::AppCampaignResult* res = nullptr;
      std::array<const std::vector<apps::AppRunRecord>*, 3> statics{};
      {
        const Span s(tracer_, "dataset.load", "dataset");
        res = &provider.load_or_run_apps(acfg);
        for (auto op : ran::kAllOperators) {
          statics[static_cast<std::size_t>(op)] =
              &provider.load_or_run_apps_static(acfg, op);
        }
      }
      app_figures(tracer_, *res, statics, d);
      attempted_ += 4 + 1;
    }
  }
  fig_t1_ = now_ns();
  if (provider.campaign_simulations() + provider.baseline_simulations() != 0) {
    error("figures re-simulated a dataset: a persisted file did not load");
  }
  return static_cast<double>(fig_t1_ - t0) / 1e9;
}

void Round::figures() {
  before_fig_ = obs::Registry::global().snapshot();
  std::vector<double> times;
  for (int r = 0; r < figure_reps(o_); ++r) {
    Digest d;
    times.push_back(figures_once(d));
    if (r == 0) {
      digest_ = d;
    } else if (d.value() != digest_.value()) {
      error("figures differ between two passes over the same files");
    }
  }
  after_fig_ = obs::Registry::global().snapshot();
  figures_s_ = wheels::median(times);
}

// One pass of an in-process Router over every query; returns its wall
// time and the reply frames. The pass first resolves every dataset of the
// working set into the Router's store (file load and decode), then handles
// every query on that warm store (the analysis of each query and its frame
// codec), so a trace of serve-mix splits the two.
double Round::router_pass(std::vector<std::string>& replies) {
  serve::RouterOptions opts = router_opts_;
  // Room for the whole working set: resolving it up front evicts nothing.
  opts.store.max_datasets = static_cast<int>(refs_.size());
  serve::Router router(opts);
  serve::SessionState session;
  const bool is_figures = o_.workload == "serve-mix";
  const std::int64_t t0 = now_ns();
  {
    std::optional<Span> phase;
    std::optional<Span> part;
    if (is_figures) {
      phase.emplace(tracer_, "phase.figures", "bench");
      figures_span_ = phase->id();
      part.emplace(tracer_, "dataset.load", "dataset");
    }
    for (std::size_t i = 0; i < refs_.size(); ++i) {
      if (refs_[i].apps) {
        (void)router.store().apps(
            apps::AppCampaignConfig::from_scenario(specs_[i], kStride));
      } else {
        (void)router.store().campaign(
            trip::CampaignConfig::from_scenario(specs_[i], kStride));
      }
    }
    if (is_figures) {
      part.reset();
      part.emplace(tracer_, "analysis.queries", "analysis");
    }
    for (const auto& frame : mix_.frames) {
      replies.push_back(router.handle(
          std::string_view(frame).substr(serve::kFrameHeaderBytes), session));
    }
  }
  const std::int64_t t1 = now_ns();
  if (is_figures) {
    fig_t0_ = t0;
    fig_t1_ = t1;
    attempted_ += replies.size();
  }
  if (session.errors != 0) error("the in-process Router answered with errors");
  if (router.store().misses() != static_cast<long long>(refs_.size())) {
    error("the in-process Router did not answer from its warm store");
  }
  const auto& p = router.store().provider();
  if (p.campaign_simulations() + p.baseline_simulations() != 0) {
    error("the in-process Router re-simulated: a persisted file did not load");
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

// Builds the query universe, the seeded request order (kind shares and
// Zipf popularity above) and the expected reply of every query, computed
// by an in-process Router over the same cache directory. For serve-mix
// this is the figures phase.
void Round::serve_prepare() {
  // pools[kind][rank]: the queries of one kind on the rank-th dataset that
  // answers that kind.
  std::array<std::vector<std::vector<std::uint32_t>>, kKindCount> pools;
  for (const auto& ref : refs_) {
    std::array<std::vector<std::uint32_t>, kKindCount> mine;
    warm_queries_.push_back(queries_.size());
    for (auto& q : queries_for(ref)) {
      const QueryKind k = query_kind(q);
      mine[k].push_back(static_cast<std::uint32_t>(queries_.size()));
      query_kind_.push_back(k);
      queries_.push_back(std::move(q));
    }
    for (int k = 0; k < kKindCount; ++k) {
      if (!mine[k].empty()) pools[k].push_back(std::move(mine[k]));
    }
  }

  for (const auto& q : queries_) {
    mix_.frames.push_back(serve::wrap_frame(serve::encode_request(q)));
  }
  router_opts_.store.provider.cache_dir = cache_dir_;
  router_opts_.store.provider.jobs = o_.jobs;
  // serve-mix's figures phase: the expected replies, computed by a fresh
  // in-process Router per pass; every pass must agree with the first.
  const bool is_figures = o_.workload == "serve-mix";
  if (is_figures) before_fig_ = obs::Registry::global().snapshot();
  std::vector<double> times;
  const int reps = is_figures ? figure_reps(o_) : 1;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::string> replies;
    times.push_back(router_pass(replies));
    if (r == 0) {
      mix_.expected = std::move(replies);
    } else if (replies != mix_.expected) {
      error("in-process Router replies differ between two passes");
    }
  }
  if (is_figures) {
    after_fig_ = obs::Registry::global().snapshot();
    figures_s_ = wheels::median(times);
    for (const auto& frame : mix_.expected) {
      digest_.add_bits(dataset::fnv1a(frame));
    }
  }

  std::vector<double> kind_cdf;
  std::array<std::vector<double>, kKindCount> rank_cdf;
  double total = 0.0;
  for (int k = 0; k < kKindCount; ++k) {
    total += pools[k].empty() ? 0.0 : kKindShare[k];
    kind_cdf.push_back(total);
    double sum = 0.0;
    for (std::size_t r = 0; r < pools[k].size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      rank_cdf[k].push_back(sum);
    }
  }
  Rng rng = Rng(o_.seed).fork("wheelsbench.serve-mix");
  constexpr std::size_t kOrder = 1 << 17;
  mix_.order.reserve(kOrder);
  for (std::size_t i = 0; i < kOrder; ++i) {
    const std::size_t k = draw(kind_cdf, rng);
    const auto& qs = pools[k][draw(rank_cdf[k], rng)];
    mix_.order.push_back(qs[rng.uniform_index(qs.size())]);
  }
}

void Round::serve_phase() {
  const Ladder ladder = ladder_for(o_.workload);
  const std::string socket = o_.dir + "/s.sock";
  const std::int64_t t0 = now_ns();
  {
    const Span phase(tracer_, "phase.serve", "bench");
    serve_span_ = phase.id();
    // Warm-up: one closed-loop request per dataset, checked like the rest
    // but not timed.
    {
      const Span s(tracer_, "serve.warm", "serve");
      serve::Client c;
      if (!c.connect(socket)) error("cannot connect to wheels_served");
      for (std::size_t q : warm_queries_) {
        ++warm_attempted_;
        if (!c.send_raw(mix_.frames[q]) || !c.read_reply() ||
            c.last_reply_bytes() != mix_.expected[q]) {
          error("warm-up reply differs from the in-process Router");
        }
      }
    }
    LoadOptions lo;
    lo.socket_path = socket;
    // One connection and generator thread per worker: at most nproc.
    lo.connections = o_.jobs;
    lo.limit_ms = kLimitMs;
    std::size_t cursor = 0;
    double rate = ladder.ref_rps;
    double passing = 0.0;
    double failing = 0.0;
    bool retried = false;
    for (int k = 0; k < kMaxSteps; ++k) {
      lo.tamper = k == 0 && o_.inject == "tamper-reply";
      {
        const Span s(tracer_, "serve.step", "serve");
        steps_.push_back(run_step(lo, mix_, cursor, rate,
                                  k == 0 ? ladder.ref_seconds : kStepSeconds));
      }
      if (k == 0) {
        // Memory is read through the reference step: how far the buffers
        // grow on the overloaded steps above it depends on how far past
        // the knee each one lands.
        peak_rss_mb_ = std::max(peak_rss_mb(), peak_rss_mb(daemon_->pid()));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      // A climbing step that fails runs once more at the same rate: a
      // single host stall of ~100 ms fails a step near the knee, and the
      // rate counts as failing only if the retry fails too.
      if (k != 0 && !steps_.back().passed && !retried) {
        retried = true;
        continue;
      }
      retried = false;
      (steps_.back().passed ? passing : failing) = rate;
      // Nothing above a failing reference step can pass.
      if (passing == 0.0) break;
      // serve_max_rps needs the knee only up to the cap; the climb above
      // it runs in traced rounds, for serve.knee_rps.
      if (!o_.trace && passing >= ladder.cap_rps) break;
      if (failing != 0.0 && failing <= passing * kResolution) break;
      if (k == 0) {
        rate = ladder.cap_rps;
      } else if (failing == 0.0) {
        rate = passing * kClimb;
      } else {
        rate = std::sqrt(passing * failing);
      }
    }
    knee_found_ = failing != 0.0 && failing <= passing * kResolution;
    for (std::size_t i = 0; i < cursor; ++i) {
      ++kind_sent_[query_kind_[mix_.order[i % mix_.order.size()]]];
    }
  }
  serve_s_ = static_cast<double>(now_ns() - t0) / 1e9;

  serve::Client c;
  const auto r = c.connect(socket)
                     ? c.call(serve::Request{serve::StatsRequest{}})
                     : std::nullopt;
  if (r && std::holds_alternative<serve::StatsReply>(r->second)) {
    stats_ = std::get<serve::StatsReply>(r->second);
  } else {
    error("no Stats reply from wheels_served");
  }
  c.close();
  daemon_->stop();
  if (stats_.errors != 0) error("wheels_served reported request errors");
  if (stats_.campaign_simulations + stats_.baseline_simulations != 0) {
    error("wheels_served re-simulated a dataset");
  }
  attempted_ += warm_attempted_;
  for (const auto& s : steps_) {
    attempted_ += s.attempted;
    if (s.mismatched != 0) {
      error(std::to_string(s.mismatched) +
            " reply frames differ from the in-process Router");
      ++reply_reports_;
    }
  }
}

void Round::verify() {
  const dataset::DatasetCache cache(cache_dir_);
  for (const auto& p : persisted_) {
    ++attempted_;
    const std::string why = verify_persisted(cache, p);
    if (!why.empty()) error(why);
  }
}

// Per-layer metrics of a traced round, read from the engine's own spans,
// the obs counters and the spans the campaign records.
void Round::trace_layers(JsonObject& layers) {
  const auto spans = tracer_.spans();
  std::map<std::string, double> by_name;
  for (const auto& s : spans) {
    by_name[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  const auto self = self_time_by_layer(spans);
  std::map<std::string, double> blocking;
  for (std::uint32_t root : {cold_span_, figures_span_, serve_span_}) {
    for (const auto& [layer, v] : blocking_time_by_layer(spans, root)) {
      blocking[layer] += v;
    }
  }
  for (const char* layer :
       {"bench", "scenario", "trip", "apps", "dataset", "analysis", "core",
        "serve"}) {
    const auto find = [&](const std::map<std::string, double>& m) {
      const auto it = m.find(layer);
      return it == m.end() ? 0.0 : it->second;
    };
    layers.number(std::string("self.") + layer + "_s", find(self));
    layers.number(std::string("block.") + layer + "_s", find(blocking));
  }
  const auto span_s = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second;
  };

  // Spans the campaign itself records (obs), split into the cold and the
  // figures windows.
  double replay_busy = 0.0, replay_crit = 0.0, cache_load = 0.0;
  for (const auto& e : obs::trace_events()) {
    const double d = static_cast<double>(e.end_ns - e.start_ns) / 1e9;
    if (e.name.rfind("campaign.replay.", 0) == 0) {
      replay_busy += d;
      replay_crit = std::max(replay_crit, d);
    } else if (e.name == "dataset.cache.load" && e.start_ns >= fig_t0_ &&
               e.end_ns <= fig_t1_) {
      cache_load += d;
    }
  }
  const auto delta = [](const obs::Snapshot& a, const obs::Snapshot& b,
                        std::string_view name) {
    return static_cast<double>(metric(b, name) - metric(a, name));
  };
  // The engine's own fan-out runs one pool task per unit, and that task
  // waits on the campaign's nested pools; count only the library's tasks.
  double units_s = 0.0;
  std::size_t units = 0;
  for (const auto& s : spans) {
    if (s.name.rfind("unit.", 0) == 0) {
      units_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      ++units;
    }
  }
  const double pool_busy = std::max(
      0.0, delta(before_cold_, after_cold_, "pool.task_us") / 1e6 - units_s);
  const double capacity = static_cast<double>(o_.jobs) * cold_s_;
  layers.number("core.pool.tasks",
                std::max(0.0, delta(before_cold_, after_cold_, "pool.tasks") -
                                  static_cast<double>(units)))
      .number("core.pool.busy_s", pool_busy)
      .number("core.pool.capacity_s", capacity)
      .number("core.pool.idle_share",
              capacity > 0 ? std::max(0.0, 1.0 - pool_busy / capacity) : 0.0)
      .number("core.pool.queue_depth_max",
              static_cast<double>(metric(after_cold_, "pool.queue_depth_max")))
      .number("scenario.load_s", scenario_s_)
      .number("radio.kpi_chain_calls",
              delta(before_cold_, after_cold_, "campaign.kernel.slots"))
      .number("ran.handovers", static_cast<double>(handovers_))
      .number("trip.setup_s", span_s("trip.setup"))
      .number("trip.record_s",
              delta(before_cold_, after_cold_, "campaign.record_us") / 1e6)
      .number("trip.replay_busy_s", replay_busy)
      .number("trip.replay_critical_s", replay_crit)
      .number("trip.kernel_batch_s",
              delta(before_cold_, after_cold_, "campaign.kernel.batch_us") / 1e6)
      .number("trip.baseline_s", span_s("trip.baseline"))
      .number("apps.campaign_s", span_s("apps.campaign"))
      .number("apps.baseline_s", span_s("apps.baseline"))
      .number("apps.runs", static_cast<double>(app_runs_))
      .number("dataset.encode_s", span_s("dataset.encode"))
      .number("dataset.store_s", span_s("dataset.store"))
      .number("dataset.bytes_written",
              delta(before_cold_, after_cold_, "dataset.cache.bytes_written"))
      .number("dataset.load_s", cache_load)
      .number("dataset.decode_s",
              std::max(0.0, span_s("dataset.load") - cache_load))
      .number("dataset.bytes_read",
              delta(before_fig_, after_fig_, "dataset.cache.bytes_read"))
      .number("trace.cold_s", cold_s_)
      .number("trace.figures_s", figures_s_)
      .number("trace.serve_s", serve_s_);
  double analysis_busy = 0.0;
  for (const char* m : {"coverage", "performance", "handover", "correlation",
                        "longterm", "operator_diversity", "dataset_stats",
                        "queries"}) {
    const double v = span_s((std::string("analysis.") + m).c_str());
    analysis_busy += v;
    layers.number(std::string("analysis.") + m + "_s", v);
  }
  // serve-mix has no figure printers: its analysis is the Router pass on a
  // warm store (analysis.queries).
  layers.number("analysis.busy_s", analysis_busy);

  // Router cost per call, single-threaded, over the first requests of the
  // workload's own mix against a cold store of the default capacity.
  serve::Router router(router_opts_);
  serve::SessionState session;
  std::vector<double> handle_us;
  const std::size_t n = std::min<std::size_t>(mix_.order.size(), 4000);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& frame = mix_.frames[mix_.order[i]];
    const std::string_view body =
        std::string_view(frame).substr(serve::kFrameHeaderBytes);
    const std::int64_t t0 = now_ns();
    const std::string reply = router.handle(body, session);
    handle_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (reply != mix_.expected[mix_.order[i]]) {
      error("in-process Router replay differs from its own earlier reply");
      break;
    }
  }
  const double client_p50_ms =
      steps_.empty() ? 0.0 : percentile_of(steps_.front().latency_ms, 50);
  const double handle_p50_us = percentile_of(handle_us, 50);
  layers.number("serve.latency_p50_ms", client_p50_ms)
      .number("serve.handle_p50_us", handle_p50_us)
      .number("serve.handle_p99_us", percentile_of(handle_us, 99))
      // What the socket, the daemon's scheduling and the generator add.
      .number("serve.transport_p50_us",
              std::max(0.0, client_p50_ms * 1e3 - handle_p50_us));
}

int Round::run() {
  obs::install_thread_pool_hooks();
  if (o_.trace) obs::set_trace_enabled(true);
  if (o_.mode == "audit") obs::set_rng_audit_enabled(true);

  set_up();
  if (o_.mode == "setup") {
    emit(JsonObject().string("event", "ready").integer("t_ns", now_ns()).str());
    emit(JsonObject().string("event", "result").str());
    fs::remove_all(o_.dir);
    return 0;
  }
  if (o_.mode == "probes") {
    const auto cfg = trip::CampaignConfig::from_scenario(specs_.front(), kStride);
    const ProbeResult p = run_probes(cfg);
    emit(JsonObject()
             .string("event", "result")
             .number("core.rng.normal_ns", p.rng_normal_ns)
             .number("radio.phy_rate_ns", p.phy_rate_ns)
             .number("ran.ue_step_ns", p.ue_step_ns)
             .number("ran.nearest_cell_ns", p.nearest_cell_ns)
             .number("net.cubic_step_ns", p.cubic_step_ns)
             .integer("probe.calls", p.calls)
             .str());
    fs::remove_all(o_.dir);
    return 0;
  }
  if (o_.mode == "audit") {
    cold(0);
    std::uint64_t draws = 0;
    for (const auto& s : obs::rng_audit_snapshot()) draws += s.draws;
    emit(JsonObject()
             .string("event", "result")
             .integer("core.rng.draws", draws)
             .str());
    fs::remove_all(o_.dir);
    return 0;
  }

  const bool serve_mix = o_.workload == "serve-mix";
  const auto timed_cold = [&] {
    before_cold_ = obs::Registry::global().snapshot();
    cold_t0_ = now_ns();
    {
      const Span phase(tracer_, "phase.cold", "bench");
      cold_span_ = phase.id();
      cold(phase.id());
    }
    cold_t1_ = now_ns();
    cold_s_ = static_cast<double>(cold_t1_ - cold_t0_) / 1e9;
    after_cold_ = obs::Registry::global().snapshot();
    if (o_.inject == "corrupt-cache") {
      const dataset::DatasetCache cache(cache_dir_);
      const auto& p = persisted_.front();
      std::fstream f(cache.path_for(p.kind, p.fingerprint, p.op),
                     std::ios::in | std::ios::out | std::ios::binary);
      const auto at = static_cast<std::streamoff>(p.payload.size() / 2);
      char c = 0;
      f.seekg(at);
      f.get(c);
      f.seekp(at);
      f.put(static_cast<char>(c ^ 0x5a));
    }
  };

  if (serve_mix) {
    timed_cold();
    serve_prepare();
    if (errors_.empty()) {
      daemon_ = std::make_unique<DaemonProcess>(o_.served, o_.dir + "/s.sock",
                                                cache_dir_, o_.jobs);
    }
    emit(JsonObject().string("event", "ready").integer("t_ns", now_ns()).str());
  } else {
    emit(JsonObject().string("event", "ready").integer("t_ns", now_ns()).str());
    timed_cold();
    figures();
    if (errors_.empty()) serve_prepare();
    if (errors_.empty()) {
      daemon_ = std::make_unique<DaemonProcess>(o_.served, o_.dir + "/s.sock",
                                                cache_dir_, o_.jobs);
    }
  }
  // Once a phase has failed, serving wrong or missing data proves nothing.
  if (daemon_) serve_phase();
  verify();

  const Ladder ladder = ladder_for(o_.workload);
  double max_rps = 0.0;
  double knee_rps = 0.0;
  std::vector<double> lags;
  std::string steps_json = "[";
  for (const auto& s : steps_) {
    if (s.passed) {
      knee_rps = std::max(knee_rps, s.delivered_rps);
      if (s.rate_rps <= ladder.cap_rps) max_rps = std::max(max_rps, s.delivered_rps);
    }
    lags.insert(lags.end(), s.send_lag_ms.begin(), s.send_lag_ms.end());
    if (steps_json.size() > 1) steps_json += ", ";
    steps_json += JsonObject()
                      .number("rate_rps", s.rate_rps)
                      .number("delivered_rps", s.delivered_rps)
                      .number("seconds", s.seconds)
                      .integer("attempted", s.attempted)
                      .integer("answered", s.answered)
                      .integer("failed", s.failed)
                      .integer("mismatched", s.mismatched)
                      .integer("backlog", s.backlog)
                      .number("p50_ms", percentile_of(s.latency_ms, 50))
                      .number("p99_ms", percentile_of(s.latency_ms, 99))
                      .number("lag_p99_ms", percentile_of(s.send_lag_ms, 99))
                      .raw("passed", s.passed ? "true" : "false")
                      .str();
  }
  steps_json += "]";
  std::uint64_t lost = 0;
  std::uint64_t mismatched = 0;
  for (const auto& s : steps_) {
    lost += s.failed;
    mismatched += s.mismatched;
  }
  const std::uint64_t lookups = stats_.store_hits + stats_.store_misses;
  std::uint64_t sent = 0;
  for (std::uint64_t n : kind_sent_) sent += n;
  JsonObject kind_share;
  for (int k = 0; k < kKindCount; ++k) {
    kind_share.number(kKindName[k], sent ? static_cast<double>(kind_sent_[k]) /
                                               static_cast<double>(sent)
                                         : 0.0);
  }
  JsonObject serve_json;
  serve_json.number("ref_rps", ladder.ref_rps)
      .number("limit_ms", kLimitMs)
      .integer("connections", static_cast<std::uint64_t>(o_.jobs))
      .number("max_rps", max_rps)
      .number("cap_rps", ladder.cap_rps)
      .number("knee_rps", knee_found_ ? knee_rps : std::nan(""))
      .raw("ref_latency_ms",
           array(steps_.empty() ? std::vector<double>{} : steps_.front().latency_ms))
      .number("send_lag_p99_ms", percentile_of(lags, 99))
      .integer("lost", lost)
      .integer("mismatched", mismatched)
      .integer("store_hits", stats_.store_hits)
      .integer("store_misses", stats_.store_misses)
      .integer("store_evictions", stats_.store_evictions)
      .number("store_hit_ratio",
              lookups ? static_cast<double>(stats_.store_hits) /
                            static_cast<double>(lookups)
                      : 0.0)
      .integer("errors", stats_.errors)
      .raw("kind_share", kind_share.str())
      .raw("steps", steps_json);

  JsonObject result;
  result.string("event", "result")
      .string("workload", o_.workload)
      .integer("seed", o_.seed)
      .integer("jobs", static_cast<std::uint64_t>(o_.jobs))
      .integer("schema_version", dataset::kSchemaVersion)
      .integer("stride", kStride)
      .string("build_type", WHEELSBENCH_BUILD_TYPE)
      .string("compiler", WHEELSBENCH_COMPILER)
      .number("cold_s", cold_s_)
      .number("figures_s", figures_s_)
      .number("serve_s", serve_s_)
      .number("peak_rss_mb", peak_rss_mb_)
      .string("figures_digest", hex(digest_.value()))
      .integer("attempted", attempted_)
      .integer("failed", errors_.size() - reply_reports_ + lost + mismatched)
      .raw("serve", serve_json.str());
  if (o_.workload == "drive-cold") result.string("campaign_fnv", hex(campaign_fnv_));
  std::string errs = "[";
  for (const auto& e : errors_) errs += (errs.size() > 1 ? ", " : "") + quote(e);
  result.raw("errors", errs + "]");
  if (o_.trace) {
    JsonObject layers;
    trace_layers(layers);
    layers.number("serve.store_hit_ratio",
                  lookups ? static_cast<double>(stats_.store_hits) /
                                static_cast<double>(lookups)
                          : 0.0)
        .number("serve.store_lookups", static_cast<double>(lookups))
        .number("serve.store_evictions",
                static_cast<double>(stats_.store_evictions))
        .number("serve.send_lag_p99_ms", percentile_of(lags, 99))
        .number("serve.errors", static_cast<double>(stats_.errors));
    result.raw("layers", layers.str());
    std::ofstream(o_.dir + "/../spans-" + o_.workload + ".jsonl")
        << tracer_.to_jsonl();
  }
  emit(result.str());
  fs::remove_all(o_.dir);
  return 0;
}

}  // namespace

int run(const RunOptions& opts) {
  Round round(opts);
  return round.run();
}

}  // namespace wheelsbench
