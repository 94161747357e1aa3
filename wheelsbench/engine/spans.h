// In-memory span recorder for the benchmark's traced runs.
//
// The engine opens a span around every call it makes into a layer's
// public API (name, layer, start, end, parent). Spans stay in memory and
// are written out once, when the run ends. A disabled Tracer records
// nothing, so untraced runs pay one branch per span.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wheelsbench {

// Host monotonic clock in nanoseconds (CLOCK_MONOTONIC, the clock the
// Python runner reads for set-up timing).
[[nodiscard]] std::int64_t now_ns();

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = no parent
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  // One JSON object per span, in id order.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  friend class Span;
  std::uint32_t open(std::string_view name, std::string_view layer,
                     std::uint32_t parent);
  void close(std::uint32_t id);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_; index = id - 1
};

// RAII span. Nested spans on one thread find their parent automatically;
// work handed to another thread names its parent explicitly.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, std::string_view layer);
  Span(Tracer& tracer, std::string_view name, std::string_view layer,
       std::uint32_t parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_ = 0;
  std::uint32_t saved_current_ = 0;
};

// Self time per layer, in seconds: each span's duration minus the part of
// it that its children cover, summed over the layer's spans. Parallel
// children make the sum exceed wall time.
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<SpanRecord>& spans);

// Blocking time per layer under `root`, in seconds. Every instant of the
// root's wall time is charged to exactly one span: descend from the root,
// at each level into the active child that ends last (the one the parent
// waits for), and charge the instant to the deepest span reached. The
// values therefore sum to the root's duration.
[[nodiscard]] std::map<std::string, double> blocking_time_by_layer(
    const std::vector<SpanRecord>& spans, std::uint32_t root);

}  // namespace wheelsbench
