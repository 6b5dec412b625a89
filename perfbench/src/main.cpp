// aqua_perfbench: one process runs one workload of the repository benchmark
// (link, harbor or network) and prints its result as the last stdout line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "end_to_end": {...},
//    "per_layer": {...}}
//
// Each metric is {"value": v, "unit": u}. The launcher (run.py) adds the
// set-up time it measures across fresh processes and selects the end-to-end
// or the per-layer set. Usage:
//
//   aqua_perfbench --workload link|harbor|network --seed N --seconds S
//                  [--trace 0|1] [--setup-only] [--out-dir DIR]
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace perfbench {

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Non-finite values print as JSON's NaN/Infinity tokens, which the
    // launcher rejects.
    char value[32];
    const double v = metrics[i].value;
    if (std::isnan(v)) {
      std::snprintf(value, sizeof value, "NaN");
    } else if (std::isinf(v)) {
      std::snprintf(value, sizeof value, "%sInfinity", v < 0 ? "-" : "");
    } else {
      std::snprintf(value, sizeof value, "%.17g", v);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "aqua_perfbench: %s\nusage: aqua_perfbench --workload "
               "link|harbor|network --seed N --seconds S [--trace 0|1] "
               "[--setup-only] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point main_start = Clock::now();
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises after the first large free, and whether that happens early in a
  // run depends on the packets drawn: peak RSS then jumps by a third on some
  // seeds and not others.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }

  std::printf("build: %s, %s\n", AQUA_PERFBENCH_COMPILER, AQUA_PERFBENCH_BUILD_TYPE);
  Result r;
  try {
    if (opt.workload == "link") {
      r = run_link(opt, main_start);
    } else if (opt.workload == "harbor") {
      r = run_harbor(opt, main_start);
    } else if (opt.workload == "network") {
      r = run_network(opt, main_start);
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aqua_perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.setup_only) return 0;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"end_to_end\": ",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(r.end_to_end);
  std::printf(", \"per_layer\": ");
  print_metrics(r.per_layer);
  std::printf("}\n");
  return r.correct ? 0 : 1;
}
