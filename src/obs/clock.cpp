#include "obs/clock.h"

#include <atomic>
#include <chrono>

namespace wheels::obs {
namespace {

std::atomic<ClockFn> g_clock{nullptr};

std::int64_t monotonic_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int64_t now_ns() {
  if (const ClockFn fn = g_clock.load(std::memory_order_relaxed)) return fn();
  return monotonic_now_ns();
}

std::uint64_t elapsed_us(std::int64_t start_ns) {
  const std::int64_t d = now_ns() - start_ns;
  return d > 0 ? static_cast<std::uint64_t>(d) / 1000 : 0;
}

void set_clock_for_testing(ClockFn fn) {
  g_clock.store(fn, std::memory_order_relaxed);
}

}  // namespace wheels::obs
