#include "serve_load.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>

#include <fcntl.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.h"
#include "spans.h"

namespace wheelsbench {
namespace {

// Replies still missing this long after the last request was due count
// as failed.
constexpr std::int64_t kDrainNs = 5'000'000'000;

int connect_nonblocking(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Inflight {
  std::int64_t due_ns = 0;
  std::uint32_t query = 0;
};

// One pipelined connection and what it has seen.
struct Conn {
  int fd = -1;
  bool broken = false;
  std::deque<Inflight> fifo;
  std::string wbuf;
  std::size_t woff = 0;
  std::string rbuf;
  std::size_t roff = 0;
  std::vector<double> latency_ms;
};

// Read what `c` has received and match complete frames, in order, to its
// oldest outstanding requests.
void receive(Conn& c, const QueryMix& mix, bool& tamper, StepResult& res) {
  char chunk[1 << 16];
  const ssize_t r = ::read(c.fd, chunk, sizeof chunk);
  if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR)) {
    c.broken = true;
    return;
  }
  if (r <= 0) return;
  const std::int64_t now = now_ns();
  c.rbuf.append(chunk, static_cast<std::size_t>(r));
  for (;;) {
    const std::string_view avail(c.rbuf.data() + c.roff, c.rbuf.size() - c.roff);
    std::uint32_t body = 0;
    const auto st = wheels::serve::peek_frame(
        avail, std::numeric_limits<std::uint32_t>::max(), body);
    if (st == wheels::serve::FrameStatus::NeedMore) break;
    if (st != wheels::serve::FrameStatus::Ok || c.fifo.empty()) {
      c.broken = true;
      return;
    }
    const std::size_t len = wheels::serve::kFrameHeaderBytes + body;
    if (avail.size() < len) break;
    std::string frame(avail.substr(0, len));
    c.roff += len;
    const Inflight f = c.fifo.front();
    c.fifo.pop_front();
    if (tamper) {
      frame.back() = static_cast<char>(frame.back() ^ 0x5a);
      tamper = false;
    }
    if (frame != mix.expected[f.query]) ++res.mismatched;
    ++res.answered;
    c.latency_ms.push_back(static_cast<double>(now - f.due_ns) / 1e6);
  }
  if (c.roff > (1u << 20)) {
    c.rbuf.erase(0, c.roff);
    c.roff = 0;
  }
}

void flush(Conn& c) {
  if (c.woff >= c.wbuf.size()) return;
  const ssize_t w = ::write(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff);
  if (w > 0) {
    c.woff += static_cast<std::size_t>(w);
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    }
  } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
    c.broken = true;
  }
}

}  // namespace

double percentile_of(std::vector<double> xs, double p) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(xs.size()))) - 1;
  return xs[idx];
}

StepResult run_step(const LoadOptions& opts, const QueryMix& mix,
                    std::size_t& cursor, double rate_rps, double seconds) {
  StepResult res;
  res.rate_rps = rate_rps;
  res.seconds = seconds;
  const auto n = static_cast<std::uint64_t>(
      std::max(1.0, std::round(rate_rps * seconds)));
  res.attempted = n;
  std::vector<Conn> conns(static_cast<std::size_t>(std::max(1, opts.connections)));
  const std::uint64_t g = conns.size();
  for (auto& c : conns) {
    c.fd = connect_nonblocking(opts.socket_path);
    c.broken = c.fd < 0;
  }
  const double period_ns = 1e9 / rate_rps;
  const std::int64_t t0 = now_ns() + 5'000'000;
  const auto due_of = [&](std::uint64_t k) {
    return t0 + static_cast<std::int64_t>(
                    std::llround(static_cast<double>(k) * period_ns));
  };
  const std::int64_t deadline = due_of(n - 1) + kDrainNs;
  bool tamper = opts.tamper;
  std::uint64_t next = 0;

  // One thread drives every connection and never sleeps: replies are seen
  // as soon as they arrive, so the generator adds no wake-up delay of its
  // own to the latencies it measures.
  for (;;) {
    const std::int64_t now = now_ns();
    while (next < n && due_of(next) <= now) {
      Conn& c = conns[next % g];
      const std::uint32_t q = mix.order[(cursor + next) % mix.order.size()];
      c.wbuf += mix.frames[q];
      c.fifo.push_back({due_of(next), q});
      res.send_lag_ms.push_back(static_cast<double>(now - due_of(next)) / 1e6);
      if (next + 1 == n) {
        for (const auto& o : conns) res.backlog += o.fifo.size();
        res.backlog -= 1;  // the request just sent
      }
      ++next;
    }
    bool outstanding = false;
    for (auto& c : conns) {
      if (c.broken) continue;
      flush(c);
      if (!c.broken) receive(c, mix, tamper, res);
      outstanding = outstanding || (!c.broken && !c.fifo.empty());
    }
    if (next >= n && !outstanding) break;
    if (now > deadline) break;
    // Give the CPU to a daemon thread woken on this core, if any.
    sched_yield();
  }
  cursor += n;

  // Connection c answered its requests c, c + G, ... in order; merge the
  // latencies back into due order.
  std::vector<double> by_due(n, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    const auto& lat = conns[c].latency_ms;
    for (std::size_t j = 0; j < lat.size(); ++j) by_due[c + j * g] = lat[j];
    if (conns[c].fd >= 0) ::close(conns[c].fd);
  }
  for (double v : by_due) {
    if (!std::isnan(v)) res.latency_ms.push_back(v);
  }
  res.failed = n - res.answered;

  // Answered requests per second of schedule, with the typical reply delay
  // added to the schedule's span (a single late last reply does not count
  // against the rate).
  const double p50 = percentile_of(res.latency_ms, 50.0);
  const double span_s = static_cast<double>(n - 1) * period_ns / 1e9 +
                        (std::isfinite(p50) ? p50 / 1e3 : 0.0);
  if (span_s > 0.0) res.delivered_rps = static_cast<double>(res.answered) / span_s;
  const double p99 = percentile_of(res.latency_ms, 99.0);
  const double backlog_allowed =
      rate_rps * opts.limit_ms / 1000.0 + static_cast<double>(g);
  res.passed = res.failed == 0 && res.mismatched == 0 && p99 <= opts.limit_ms &&
               static_cast<double>(res.backlog) <= backlog_allowed;
  return res;
}

}  // namespace wheelsbench
