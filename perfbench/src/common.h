// Shared plumbing for the benchmark workloads: options, the result record
// every workload fills, timing helpers and small statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run only the set-up phase (construction + warm-up), report when the
  /// first timed block would start, and exit.
  bool setup_only = false;
  /// Directory (inside the checkout) the traced run writes its spans to.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` holds the untraced metrics
/// (set-up time is measured by the launcher across fresh processes);
/// `per_layer` is filled only by a traced run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< operations the workload ran
  std::uint64_t failed = 0;     ///< operations that errored or mis-checked
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// splitmix64: decorrelates derived seeds (workload seed -> per-item seeds).
inline std::uint64_t mix_seed(std::uint64_t x) {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Marks the end of set-up: the launcher times process start to this line.
inline void announce_setup_done(Clock::time_point main_start) {
  std::printf("setup_done %.6f\n", seconds_between(main_start, Clock::now()));
  std::fflush(stdout);
}

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Workload entry points (one process runs exactly one of them).
Result run_link(const Options& opt, Clock::time_point main_start);
Result run_harbor(const Options& opt, Clock::time_point main_start);
Result run_network(const Options& opt, Clock::time_point main_start);

}  // namespace perfbench
