// Fig. 11 reproduction: deeper water test — bay site (15 m water), phones
// at ~12 m depth, hard polycarbonate case. Prints the selected-bitrate CDF;
// the paper reports a median of 133 bps.
// Points: bench::fig11_deep(); --threads N sizes the sweep pool.
#include <cstdio>

#include "figures.h"

using namespace aqua;

int main(int argc, char** argv) {
  const int n = bench::packets_per_config(12);
  const std::vector<bench::BatchStats> stats = bench::run_figure(
      bench::fig11_deep(), n, bench::sweep_threads(argc, argv));
  const bench::BatchStats& deep = stats[0];
  bench::print_cdf("bay, 12 m deep, hard case", deep.bitrates);
  std::printf("median bitrate: %.1f bps (paper: 133 bps)\n",
              deep.median_bitrate());
  std::printf("PER: %.1f%%, preamble detection %.2f\n", 100.0 * deep.per(),
              deep.detection_rate());

  // Ablation: the same geometry with the soft pouch shows the casing cost.
  std::printf("soft-pouch ablation median bitrate: %.1f bps "
              "(hard case should be markedly lower)\n",
              stats[1].median_bitrate());
  return 0;
}
