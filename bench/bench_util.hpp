#pragma once
/// Shared helpers for the benchmark harness binaries: aligned table
/// printing, geometric means, time formatting, run hygiene (CPU/wall and
/// host steal), and the machine-readable JSON sink behind the CI
/// `bench-results` artifact (--json <path>).

#include <sys/resource.h>
#include <unistd.h>

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

/// Run hygiene of one timed section: construct it before the section and
/// read() after. It samples the process's CPU time (getrusage: user +
/// system, all threads), the wall clock, and the host's steal time summed
/// over its CPUs (the "cpu" line of /proc/stat, where readable). A pooled
/// section whose CPU/wall stays near 1 got about one CPU from the host for
/// the whole pool, so its times say more about the host than the code;
/// warn_if_starved() says so. No gate reads these numbers.
class RunHygiene {
 public:
  struct Reading {
    double cpu_per_wall = 0.0;
    double steal_seconds = -1.0;  ///< negative when /proc/stat is unreadable

    /// "CPU/wall 3.41, steal 0.02 s" (steal "n/a" where unreadable).
    [[nodiscard]] std::string text() const {
      char buf[64];
      if (steal_seconds < 0.0) {
        std::snprintf(buf, sizeof(buf), "CPU/wall %.2f, steal n/a", cpu_per_wall);
      } else {
        std::snprintf(buf, sizeof(buf), "CPU/wall %.2f, steal %.2f s", cpu_per_wall,
                      steal_seconds);
      }
      return buf;
    }

    /// Prints a warning when a section pooled over `pool_width` >= 2
    /// threads read CPU/wall below 1.5.
    void warn_if_starved(unsigned pool_width, const std::string& section) const {
      if (pool_width < 2 || cpu_per_wall >= 1.5) return;
      std::printf("  WARNING: %s read CPU/wall %.2f on a %u-wide pool: the host starved "
                  "the run, so its times are not comparable\n",
                  section.c_str(), cpu_per_wall, pool_width);
    }
  };

  RunHygiene() : cpu0_(cpu_seconds()), steal0_(steal_seconds()) {}

  [[nodiscard]] Reading read() const {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0_).count();
    const double steal1 = steal_seconds();
    Reading r;
    r.cpu_per_wall = wall > 0.0 ? (cpu_seconds() - cpu0_) / wall : 0.0;
    if (steal0_ >= 0.0 && steal1 >= 0.0) r.steal_seconds = steal1 - steal0_;
    return r;
  }

 private:
  static double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
  }

  static double steal_seconds() {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return -1.0;
    unsigned long long t[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                                &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
    std::fclose(f);
    const long hz = sysconf(_SC_CLK_TCK);
    return got == 8 && hz > 0 ? static_cast<double>(t[7]) / static_cast<double>(hz)
                              : -1.0;
  }

  std::chrono::steady_clock::time_point wall0_ = std::chrono::steady_clock::now();
  double cpu0_;
  double steal0_;
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
