// Fig. 12 reproduction: range evaluation at the lake (5-30 m): (a) bitrate
// CDF vs distance, (b) coded-bit BER, (c) PER adaptive vs fixed bandwidth,
// and (d) long-range FSK BER at the beach up to 113 m for 5/10/20 bps.
// Points of (a)-(c): bench::fig12_range(); --threads N sizes the sweep pool.
#include <cstdio>
#include <random>

#include "figures.h"
#include "phy/fsk.h"

using namespace aqua;

int main(int argc, char** argv) {
  const int n = bench::packets_per_config(10);
  const std::vector<bench::BatchStats> stats = bench::run_figure(
      bench::fig12_range(), n, bench::sweep_threads(argc, argv));
  const auto& ranges = bench::kFig12Ranges;
  constexpr std::size_t kCols = std::size(bench::kFig12Ranges);

  std::printf("=== Fig. 12a: CDF of selected bitrate vs distance (lake) ===\n");
  for (std::size_t c = 0; c < kCols; ++c) {
    char label[32];
    std::snprintf(label, sizeof label, "%.0f m", ranges[c]);
    bench::print_cdf(label, stats[c].bitrates);
    std::printf("  median %.1f bps (paper: 633.3 at 5 m, 133.3 at 30 m)\n",
                stats[c].median_bitrate());
  }

  std::printf("\n=== Fig. 12b,c: BER and PER vs distance ===\n");
  std::printf("%-28s", "scheme");
  for (double r : ranges) std::printf("      %3.0fm-BER  %3.0fm-PER", r, r);
  std::printf("\n");
  bench::print_scheme_rows(stats, kCols, [](const auto& s) {
    std::printf("      %8.3f  %7.1f%%", s.coded_ber(), 100.0 * s.per());
  });
  std::printf("(paper: fixed 1.5/3 kHz reach 100%% PER by 30 m; adaptive ~7%%)\n");

  std::printf("\n=== session QoE vs distance (adaptive) ===\n");
  for (std::size_t c = 0; c < kCols; ++c) {
    char label[32];
    std::snprintf(label, sizeof label, "lake %.0f m", ranges[c]);
    bench::print_qoe_line(label, stats[c]);
  }

  std::printf("\n=== Fig. 12d: long-range FSK BER at the beach ===\n");
  std::printf("%8s %12s %12s %12s\n", "range(m)", "5 bps", "10 bps", "20 bps");
  const int fsk_bits = 40 + 4 * bench::packets_per_config(10);
  for (double r : {40.0, 70.0, 100.0, 113.0}) {
    std::printf("%8.0f", r);
    for (double dur : {0.2, 0.1, 0.05}) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(r * 10 + dur * 1000));
      channel::LinkConfig lc;
      lc.site = channel::site_preset(channel::Site::kBeach);
      lc.range_m = r;
      lc.seed = static_cast<std::uint64_t>(r) * 7 + 1;
      channel::UnderwaterChannel ch(lc);
      phy::FskParams fp;
      fp.symbol_duration_s = dur;
      phy::FskBeacon beacon(fp);
      std::vector<std::uint8_t> bits(static_cast<std::size_t>(fsk_bits));
      for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
      const std::vector<double> rx = ch.transmit(beacon.modulate(bits), 0.0, 0.05);
      // Known coarse alignment (bulk delay + filter delays), refined over a
      // small search like a real receiver locking to the sync pattern.
      const std::size_t base =
          static_cast<std::size_t>(ch.bulk_delay_s() * 48000.0) + 512;
      std::size_t best_err = bits.size();
      for (int off = -480; off <= 1440; off += 48) {
        const std::size_t start = base + static_cast<std::size_t>(off + 480) - 480;
        const std::vector<std::uint8_t> got =
            beacon.demodulate(rx, start, bits.size());
        std::size_t err = 0;
        for (std::size_t i = 0; i < bits.size(); ++i) {
          if (got[i] != bits[i]) ++err;
        }
        best_err = std::min(best_err, err);
      }
      std::printf(" %11.4f",
                  static_cast<double>(best_err) / static_cast<double>(bits.size()));
    }
    std::printf("\n");
  }
  std::printf("(paper: <1%% BER at 5 and 10 bps up to 113 m)\n");
  return 0;
}
