// Fig. 10 reproduction: effect of depth at the museum site (9 m water
// column), 5 m horizontal range, device depths 2/5/7 m. (a) CDF of
// selected bitrate, (b) PER adaptive vs fixed bandwidth.
// Points: bench::fig10_depth(); --threads N sizes the sweep pool.
#include <cstdio>

#include "figures.h"

using namespace aqua;

int main(int argc, char** argv) {
  const int n = bench::packets_per_config(12);
  const std::vector<bench::BatchStats> stats = bench::run_figure(
      bench::fig10_depth(), n, bench::sweep_threads(argc, argv));
  constexpr std::size_t kCols = std::size(bench::kFig10Depths);

  std::printf("=== Fig. 10a: CDF of selected bitrate vs depth (museum) ===\n");
  for (std::size_t c = 0; c < kCols; ++c) {
    char label[32];
    std::snprintf(label, sizeof label, "depth %.0f m", bench::kFig10Depths[c]);
    bench::print_cdf(label, stats[c].bitrates);
  }

  std::printf("\n=== Fig. 10b: PER vs depth, adaptive vs fixed ===\n");
  std::printf("%-28s %10s %10s %10s\n", "scheme", "2 m", "5 m", "7 m");
  bench::print_scheme_rows(stats, kCols, [](const auto& s) {
    std::printf(" %9.1f%%", 100.0 * s.per());
  });
  std::printf("\n(paper: 2 m and 7 m — near surface and near bottom — are the "
              "hardest multipath; adaptive stays lowest at every depth)\n");
  return 0;
}
