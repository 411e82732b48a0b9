#pragma once
/// Shared helpers for the benchmark harness binaries: aligned table
/// printing, geometric means, time formatting, and the machine-readable
/// JSON sink behind the CI `bench-results` artifact (--json <path>).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace benchutil {

/// The paper's measurement protocol (§3.4): run `batch` executions per
/// timed measurement ("20 runs with a single synchronization at the end"),
/// repeating measurements until `min_total_seconds` of benchmark time has
/// accumulated; report the best per-run time. Scaled-down defaults keep
/// the CPU-backend harness fast; pass 20 / 2.0 for the paper's exact
/// protocol.
inline double measure_seconds(const std::function<void()>& fn, int batch = 5,
                              double min_total_seconds = 0.3) {
  using clock = std::chrono::steady_clock;
  double best = std::numeric_limits<double>::infinity();
  double total = 0.0;
  do {
    const auto t0 = clock::now();
    for (int i = 0; i < batch; ++i) fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    best = std::min(best, dt / batch);
    total += dt;
  } while (total < min_total_seconds);
  return best;
}

/// Lower quartile, median and upper quartile of a sample (linear
/// interpolation between order statistics).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// Geometric mean accumulator with range tracking (paper Table 4 format).
class GeoMean {
 public:
  void add(double x) {
    if (x <= 0.0) return;
    log_sum_ += std::log(x);
    ++count_;
    lo_ = count_ == 1 ? x : std::min(lo_, x);
    hi_ = count_ == 1 ? x : std::max(hi_, x);
  }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : std::exp(log_sum_ / count_);
  }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

 private:
  double log_sum_ = 0.0;
  double lo_ = 0.0;
  double hi_ = 0.0;
  int count_ = 0;
};

inline std::string fmt_seconds(double s) {
  char buf[32];
  if (s < 0) {
    return "   n/a";
  }
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

/// Machine-readable result sink: every row the table printers show can also
/// be recorded as {"name", "value", "unit"} and flushed to the path given
/// by `--json <path>`. CI uploads these files as the `bench-results`
/// workflow artifact (BENCH_<bench>.json), seeding the per-push perf
/// trajectory. Disabled (all calls no-ops) when no path was requested, so
/// interactive runs stay pure table output.
class JsonSink {
 public:
  /// Scan argv for `--json <path>`; absent -> disabled sink.
  static JsonSink from_args(const std::string& bench_name, int argc, char** argv) {
    JsonSink sink(bench_name);
    for (int i = 0; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") sink.path_ = argv[i + 1];
    }
    return sink;
  }

  explicit JsonSink(std::string bench_name) : bench_(std::move(bench_name)) {}

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void record(const std::string& name, double value, const std::string& unit) {
    if (!enabled()) return;
    rows_.push_back(Row{name, value, unit});
  }

  /// Write the collected rows; returns false (with a stderr note) when the
  /// path is not writable. Call once at the end of main.
  bool flush() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write --json path %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n", bench_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.9g, \"unit\": \"%s\"}%s\n",
                   rows_[i].name.c_str(), rows_[i].value, rows_[i].unit.c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\n[json] %zu results -> %s\n", rows_.size(), path_.c_str());
    return true;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::string bench_;
  std::string path_;
  std::vector<Row> rows_;
};

}  // namespace benchutil
