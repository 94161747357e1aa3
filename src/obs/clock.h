// The observability clock: the only place in src/ allowed to read a host
// monotonic clock.
//
// Everything the simulation computes derives from SimTime; wall-clock time
// exists only to *measure the measurement* (task latency, phase durations,
// trace span timestamps) and must never leak into results. Funnelling every
// reading through obs::now_ns() keeps that boundary mechanical: the
// steady-clock wheels_lint rule bans std::chrono::steady_clock /
// high_resolution_clock everywhere else under src/, and tests swap the
// source via set_clock_for_testing() to make span math deterministic.
#pragma once

#include <cstdint>

namespace wheels::obs {

// A replacement timestamp source for tests. Must be monotonic
// non-decreasing; returns nanoseconds from an arbitrary origin.
using ClockFn = std::int64_t (*)();

// Nanoseconds from the process monotonic clock (or the test override).
[[nodiscard]] std::int64_t now_ns();

// Whole microseconds elapsed since `start_ns` (a now_ns() reading); 0 if
// the clock has not moved forward.
[[nodiscard]] std::uint64_t elapsed_us(std::int64_t start_ns);

// Override the timestamp source (nullptr restores the real monotonic
// clock). Test-only: swapping clocks while spans are open mixes origins.
void set_clock_for_testing(ClockFn fn);

}  // namespace wheels::obs
