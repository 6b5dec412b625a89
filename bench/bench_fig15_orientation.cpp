// Fig. 15 reproduction: effect of phone orientation at the bridge, 5 m,
// azimuth 0-180 degrees in 45-degree steps. (a) selected-bitrate CDF per
// angle, (b) PER adaptive vs fixed bandwidth.
// Points: bench::fig15_orientation(); --threads N sizes the sweep pool.
#include <cstdio>

#include "figures.h"

using namespace aqua;

int main(int argc, char** argv) {
  const int n = bench::packets_per_config(10);
  const std::vector<bench::BatchStats> stats = bench::run_figure(
      bench::fig15_orientation(), n, bench::sweep_threads(argc, argv));
  const auto& angles = bench::kFig15Angles;
  constexpr std::size_t kCols = std::size(bench::kFig15Angles);

  std::printf("=== Fig. 15a: selected bitrate vs azimuth (bridge, 5 m) ===\n");
  for (std::size_t c = 0; c < kCols; ++c) {
    char label[24];
    std::snprintf(label, sizeof label, "%3.0f deg", angles[c]);
    bench::print_cdf(label, stats[c].bitrates);
    std::printf("  median %.0f bps\n", stats[c].median_bitrate());
  }
  std::printf("(paper: median falls 1067 bps at 0 deg -> 567 bps at 180 deg)\n");

  std::printf("\n=== Fig. 15b: PER vs azimuth, adaptive vs fixed ===\n");
  std::printf("%-28s", "scheme");
  for (double a : angles) std::printf(" %8.0fdeg", a);
  std::printf("\n");
  bench::print_scheme_rows(stats, kCols, [](const auto& s) {
    std::printf(" %10.1f%%", 100.0 * s.per());
  });
  std::printf("\n(paper: fixed schemes degrade at large angles; the adaptive "
              "band keeps PER low at every orientation)\n");
  return 0;
}
