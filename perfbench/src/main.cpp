/// perfbench: the repository benchmark's measuring program.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE] [--source REV]
///       Runs one workload for S seconds and prints its metrics, one per
///       line, then a fingerprint line, then the result as one JSON line:
///       {"correct":..,"attempted":..,"failed":..,"metrics":{..},
///        "fingerprint":{..},"notes":{..}}
///       Untraced runs report the end-to-end metrics, traced runs the
///       per-layer ones (and write Chrome trace-event JSON to FILE).
///   perfbench --setup-probe --workload NAME --seed N
///       Measures one cold set-up in this fresh process and prints
///       "setup_s <seconds>".
///   perfbench --calibrate --workload served_mix --seed N --seconds S
///       Closed-loop capacity of the served request mix (requests/s).
///
/// Exit status is 0 only when every operation succeeded and every output
/// check passed. perfbench/run.py builds this program and is the entry
/// point the benchmark is run through.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "fingerprint.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {dense_values|dense_thin|served_mix} "
               "--seed N --seconds S --trace {0|1} [--trace-out FILE] "
               "[--source REV] [--setup-probe | --calibrate]\n");
}

enum class Mode { Run, SetupProbe, Calibrate };

bool parse(int argc, char** argv, Options& opt, Mode& mode, std::string& source) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-probe" || arg == "--calibrate") {
      mode = arg == "--calibrate" ? Mode::Calibrate : Mode::SetupProbe;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      opt.trace_out = v;
    } else if (arg == "--source") {
      source = v;
    } else {
      return false;
    }
  }
  return (is_dense_workload(opt.workload) || is_served_workload(opt.workload)) &&
         opt.seconds > 0.0 && opt.seconds <= 600.0;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const Metric& x : m.items()) {
    if (out.size() > 1) out += ",";
    out += json_string(x.name) + ":{\"value\":" + json_number(x.value) +
           ",\"unit\":" + json_string(x.unit) + "}";
  }
  return out + "}";
}

int run(int argc, char** argv) {
  Options opt;
  Mode mode = Mode::Run;
  std::string source = "unknown";
  if (!parse(argc, argv, opt, mode, source) || (mode == Mode::Calibrate && is_dense_workload(opt.workload))) {
    usage();
    return 2;
  }
  const bool dense = is_dense_workload(opt.workload);

  if (mode == Mode::SetupProbe) {
    const double s = dense ? setup_dense(opt) : setup_served(opt);
    if (s < 0.0) {
      std::fprintf(stderr, "perfbench: set-up request failed\n");
      return 1;
    }
    std::printf("setup_s %.9f\n", s);
    return 0;
  }

  const RunResult res = mode == Mode::Calibrate ? calibrate_served(opt)
                        : dense                ? run_dense(opt)
                                               : run_served(opt);
  const Metrics& shown = opt.trace ? res.per_layer : res.end_to_end;
  for (const Metric& m : shown.items()) {
    std::printf("%-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : res.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());

  std::string notes = "{";
  for (const auto& [k, v] : res.notes) {
    if (notes.size() > 1) notes += ",";
    notes += json_string(k) + ":" + json_string(v);
  }
  notes += "}";
  const bool correct = res.failed == 0 && res.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s,"
              "\"fingerprint\":%s,\"notes\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics_json(shown).c_str(),
              fingerprint_json(unisvd::ka::default_backend(), source).c_str(),
              notes.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
