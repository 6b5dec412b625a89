// Fig. 14 reproduction: effect of mobility at the lake, 5 m. (a) CDF of
// selected bitrate static/slow/fast, (b) PER, (c) uncoded BER with and
// without differential coding. Points: bench::fig14_mobility() and
// bench::fig14c_differential(); --threads N sizes the sweep pool.
#include <cstdio>

#include "figures.h"

using namespace aqua;

int main(int argc, char** argv) {
  const int n = bench::packets_per_config(10);
  const int threads = bench::sweep_threads(argc, argv);
  const auto& motions = bench::kFig14Motions;

  std::printf("=== Fig. 14a,b: bitrate CDF and PER vs mobility ===\n");
  const std::vector<bench::BatchStats> per_motion =
      bench::run_figure(bench::fig14_mobility(), n, threads);
  for (std::size_t i = 0; i < per_motion.size(); ++i) {
    const bench::BatchStats& s = per_motion[i];
    bench::print_cdf(motions[i].second, s.bitrates);
    std::printf("  median %.0f bps, PER %.1f%%\n", s.median_bitrate(),
                100.0 * s.per());
  }
  std::printf("(paper: medians 640/433/336 bps; PER 1.2%% -> 7.6%%)\n");

  std::printf("\n=== session QoE vs mobility ===\n");
  for (std::size_t i = 0; i < per_motion.size(); ++i) {
    bench::print_qoe_line(motions[i].second, per_motion[i]);
  }

  std::printf("\n=== Fig. 14c: uncoded BER with vs without differential coding ===\n");
  std::printf("%-18s %16s %16s\n", "motion", "differential", "no differential");
  const std::vector<bench::BatchStats> coding =
      bench::run_figure(bench::fig14c_differential(), n, threads);
  for (std::size_t i = 0; i < std::size(motions); ++i) {
    std::printf("%-18s %15.4f %15.4f\n", motions[i].second,
                coding[2 * i].coded_ber(), coding[2 * i + 1].coded_ber());
  }
  std::printf("(paper: without differential coding BER exceeds 10%% under "
              "motion; with it BER stays near 1%%)\n");
  return 0;
}
