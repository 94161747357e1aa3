#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace wheelsbench {
namespace {

thread_local std::uint32_t t_current = 0;

std::uint32_t thread_tag() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, std::uint32_t> ids;
  const std::lock_guard<std::mutex> lock(mu);
  const auto [it, inserted] = ids.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(ids.size() + 1));
  return it->second;
}

// Children of every span, by parent id.
std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>> children_of(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>> out;
  for (const auto& s : spans) {
    if (s.parent != 0) out[s.parent].push_back(&s);
  }
  return out;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::open(std::string_view name, std::string_view layer,
                           std::uint32_t parent) {
  SpanRecord rec;
  rec.parent = parent;
  rec.name = name;
  rec.layer = layer;
  rec.tid = thread_tag();
  rec.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  char line[512];
  for (const auto& s : spans()) {
    std::snprintf(line, sizeof line,
                  "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                  "\"layer\": \"%s\", \"tid\": %u, \"start_ns\": %lld, "
                  "\"end_ns\": %lld}\n",
                  s.id, s.parent, s.name.c_str(), s.layer.c_str(), s.tid,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += line;
  }
  return out;
}

Span::Span(Tracer& tracer, std::string_view name, std::string_view layer)
    : Span(tracer, name, layer, t_current) {}

Span::Span(Tracer& tracer, std::string_view name, std::string_view layer,
           std::uint32_t parent)
    : tracer_(tracer), saved_current_(t_current) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.open(name, layer, parent);
  t_current = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  tracer_.close(id_);
  t_current = saved_current_;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<SpanRecord>& spans) {
  const auto kids = children_of(spans);
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (const auto it = kids.find(s.id); it != kids.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return out;
}

std::map<std::string, double> blocking_time_by_layer(
    const std::vector<SpanRecord>& spans, std::uint32_t root) {
  std::map<std::string, double> out;
  if (root == 0 || root > spans.size()) return out;
  const SpanRecord& r = spans[root - 1];
  const auto kids = children_of(spans);

  std::vector<std::int64_t> cuts{r.start_ns, r.end_ns};
  std::function<void(std::uint32_t)> collect = [&](std::uint32_t id) {
    const auto it = kids.find(id);
    if (it == kids.end()) return;
    for (const SpanRecord* c : it->second) {
      cuts.push_back(std::clamp(c->start_ns, r.start_ns, r.end_ns));
      cuts.push_back(std::clamp(c->end_ns, r.start_ns, r.end_ns));
      collect(c->id);
    }
  };
  collect(root);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::int64_t a = cuts[i];
    const std::int64_t b = cuts[i + 1];
    const SpanRecord* node = &r;
    for (;;) {
      const auto it = kids.find(node->id);
      if (it == kids.end()) break;
      const SpanRecord* next = nullptr;
      for (const SpanRecord* c : it->second) {
        if (c->start_ns > a || c->end_ns < b) continue;
        if (next == nullptr || c->end_ns > next->end_ns ||
            (c->end_ns == next->end_ns && c->id > next->id)) {
          next = c;
        }
      }
      if (next == nullptr) break;
      node = next;
    }
    out[node->layer] += static_cast<double>(b - a) / 1e9;
  }
  return out;
}

}  // namespace wheelsbench
