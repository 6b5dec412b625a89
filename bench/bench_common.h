// Shared helpers for the figure-reproduction harnesses. Each bench binary
// regenerates one table/figure of the paper and prints the same series the
// paper reports (medians, CDFs, PER bars). Packet counts default to values
// that finish in seconds; set AQUA_BENCH_PACKETS to scale them up and
// AQUA_SWEEP_THREADS to size the parallel sweep pool.
#pragma once

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/link_session.h"
#include "sim/runner.h"
#include "sim/sweep.h"

namespace aqua::bench {

using BatchStats = sim::BatchStats;

namespace detail {

/// Strict positive-int parse: rejects empty strings, trailing junk,
/// overflow, and non-positive values.
inline std::optional<int> parse_positive_int(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v <= 0 ||
      v > INT_MAX) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

/// Parses a positive int from the environment; warns (once per call) and
/// returns `fallback` on garbage instead of silently treating it as 0.
inline int positive_int_env(const char* name, int fallback) {
  const char* env = std::getenv(name);  // lint: det-ok(bench knob: selects how much work to run, never what the DSP computes)
  if (!env) return fallback;
  if (const std::optional<int> v = parse_positive_int(env)) return *v;
  std::fprintf(stderr,
               "warning: ignoring invalid %s=\"%s\" (want a positive "
               "integer); using %d\n",
               name, env, fallback);
  return fallback;
}

}  // namespace detail

/// Number of packets per configuration (env-overridable).
inline int packets_per_config(int fallback = 12) {
  return detail::positive_int_env("AQUA_BENCH_PACKETS", fallback);
}

/// Path given with `--json <path>` (perf-baseline output), or nullptr.
inline const char* json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return nullptr;
}

/// Worker threads for the sweep benches: --threads N wins, then
/// AQUA_SWEEP_THREADS, then hardware concurrency. 0 (the default) lets the
/// runner pick and is accepted explicitly as "auto".
inline int sweep_threads(int argc, char** argv) {
  const auto parse_threads = [](const char* text) -> std::optional<int> {
    if (std::string(text) == "0") return 0;  // explicit auto
    return detail::parse_positive_int(text);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--threads") continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "warning: --threads requires a value\n");
      break;
    }
    if (const std::optional<int> v = parse_threads(argv[i + 1])) return *v;
    std::fprintf(stderr,
                 "warning: ignoring invalid --threads \"%s\" (want a "
                 "non-negative integer)\n",
                 argv[i + 1]);
  }
  const char* env = std::getenv("AQUA_SWEEP_THREADS");  // lint: det-ok(bench knob: selects how much work to run, never what the DSP computes)
  if (!env) return 0;
  if (const std::optional<int> v = parse_threads(env)) return *v;
  std::fprintf(stderr,
               "warning: ignoring invalid AQUA_SWEEP_THREADS=\"%s\" (want a "
               "non-negative integer); using auto\n",
               env);
  return 0;
}

/// Prints one session-QoE summary line: delivery ratio, message-latency
/// percentiles (p50/p95/p99, seconds on the shared sample timeline), and
/// transmit failures (retransmission pressure). Every value is derived
/// from absolute sample positions, so the line is deterministic and safe
/// for diffed stdout.
inline void print_qoe_line(const char* label, const BatchStats& s) {
  std::printf(
      "%-44s delivery %5.1f%%  latency p50/p95/p99 %5.2f/%5.2f/%5.2f s"
      "  tx-fail %llu\n",
      label, 100.0 * s.delivery_ratio(), s.latency_percentile_s(50.0),
      s.latency_percentile_s(95.0), s.latency_percentile_s(99.0),
      static_cast<unsigned long long>(s.qoe.counter("tx_failed")));
}

/// Prints the aggregated per-stage DSP timing held in `stats.pipeline` to
/// stderr (wall-clock: keep it out of deterministic stdout).
inline void print_pipeline_timing(const char* label, const BatchStats& s) {
  for (const auto& [name, value] : s.pipeline.counters()) {
    // Report each "<stage>.ns" counter alongside its call count.
    const std::string_view key(name);
    if (key.size() < 3 || key.substr(key.size() - 3) != ".ns") continue;
    const std::string stage(key.substr(0, key.size() - 3));
    const std::uint64_t calls = s.pipeline.counter(stage + ".calls");
    std::fprintf(stderr, "timing: %s %-16s %10.1f ms over %llu calls\n",
                 label, stage.c_str(), static_cast<double>(value) / 1e6,
                 static_cast<unsigned long long>(calls));
  }
}

/// Prints a CDF of bitrates as (bitrate, fraction<=) pairs on one line.
inline void print_cdf(const char* label, std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::printf("%s CDF:", label);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf(" (%.0f, %.2f)", values[i],
                static_cast<double>(i + 1) / static_cast<double>(values.size()));
  }
  std::printf("\n");
}

}  // namespace aqua::bench
