#pragma once
/// \file common.hpp
/// Shared pieces of the benchmark: the clock, order statistics, and the
/// named-metric list every workload fills in.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto ix = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(ix, v.size() - 1)];
}

/// Median as the mean of the two middle order statistics.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Latency percentiles are taken in each of four consecutive windows of a
/// run's operations (in due-time order) and the run reports the median of
/// the four: one stall episode or one slow call then moves one window, not
/// the run's figure.
inline constexpr std::size_t kWindows = 4;

[[nodiscard]] inline double windowed_quantile(const std::vector<double>& in_order, double q) {
  const std::size_t n = in_order.size();
  const std::size_t windows = std::min(kWindows, n);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(w * n / windows);
    const auto last = in_order.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / windows);
    per_window.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(per_window);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list (printed and serialized in insertion order).
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<Metric> items_;
};

/// What one workload run hands back to main: metrics plus the operation
/// tally that becomes the result line's attempted/failed fields.
struct RunResult {
  Metrics end_to_end;
  Metrics per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;              ///< failed or incorrect operations
  std::vector<std::string> failures;     ///< first few reasons, for stderr
  std::vector<std::pair<std::string, std::string>> notes;  ///< sample counts etc.

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 16) failures.push_back(std::move(why));
  }
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON path (traced runs)
};

/// Run body(worker, workers) on min(cores, count) threads and join them all;
/// the body takes items worker, worker + workers, ... Used only outside the
/// timed regions (input generation, output checks). The first exception a
/// body throws is rethrown after every thread has joined.
template <class Body>
void parallel_stripes(std::size_t count, const Body& body) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::max<std::size_t>(1, std::min(cores, count));
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        body(w, workers);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// JSON string literal with the minimal escaping our names need.
[[nodiscard]] inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// A double with all its digits (round-trip precision); JSON has no NaN or
/// infinity, so those become null.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
