// Fig. 9 reproduction: effect of different environments at 5 m.
// (a) CDF of selected bitrates per site, (b,c) example received spectra
// with the selected band, (d) PER of the adaptive system vs the three
// fixed-bandwidth baselines at bridge/park/lake.
//
// The packet batches run on the sim::SweepRunner worker pool (one grid of
// site x band-scheme scenarios); aggregate stats are bit-identical for any
// thread count. --threads N / AQUA_SWEEP_THREADS size the pool.
#include <cstdio>

#include "bench_common.h"

using namespace aqua;

int main(int argc, char** argv) {
  const int n = bench::packets_per_config(12);
  const std::vector<channel::Site> sites = {
      channel::Site::kBridge, channel::Site::kPark, channel::Site::kLake};

  sim::ScenarioGrid grid;
  grid.sites = sites;
  grid.ranges_m = {5.0};
  grid.schemes = bench::grid_schemes_with_adaptive();
  const std::vector<sim::Scenario> scenarios = grid.expand();

  sim::RunnerOptions opts;
  opts.threads = bench::sweep_threads(argc, argv);
  const sim::SweepRunner runner(opts);
  const std::vector<sim::ScenarioResult> results =
      runner.run(scenarios, n, /*seed_base=*/9000);

  // results follow grid order: per site, adaptive first then the three
  // fixed schemes.
  const std::size_t schemes_per_site = grid.schemes.size();
  const auto result_at = [&](std::size_t site_idx,
                             std::size_t scheme_idx) -> const sim::ScenarioResult& {
    return results[site_idx * schemes_per_site + scheme_idx];
  };

  std::printf("=== Fig. 9a: CDF of selected bitrate at 5 m ===\n");
  for (std::size_t si = 0; si < sites.size(); ++si) {
    const sim::ScenarioResult& r = result_at(si, 0);
    bench::print_cdf(channel::site_name(sites[si]).c_str(), r.stats.bitrates);
  }

  std::printf("\n=== Fig. 9b,c: example spectrum + selected band ===\n");
  for (channel::Site site : {channel::Site::kBridge, channel::Site::kLake}) {
    core::SessionConfig cfg;
    cfg.forward.site = channel::site_preset(site);
    cfg.forward.range_m = 5.0;
    cfg.forward.seed = 4242;
    channel::UnderwaterChannel ch(cfg.forward);
    const std::vector<double> snr = core::probe_snr(ch, cfg.params);
    if (snr.empty()) continue;
    const phy::BandSelection band = phy::select_band(snr);
    std::printf("%-8s per-bin SNR (dB), selected band %.0f-%.0f Hz:\n",
                channel::site_name(site).c_str(),
                cfg.params.bin_freq_hz(band.begin_bin),
                cfg.params.bin_freq_hz(band.end_bin));
    for (std::size_t k = 0; k < snr.size(); ++k) {
      std::printf("%6.1f%s", snr[k], (k % 12 == 11) ? "\n" : " ");
    }
    std::printf("\n");
  }

  std::printf("\n=== Fig. 9d: PER at 5 m, adaptive vs fixed bandwidth ===\n");
  std::printf("%-28s %10s %10s %10s\n", "scheme", "Bridge", "Park", "Lake");
  for (std::size_t sc = 0; sc < schemes_per_site; ++sc) {
    std::printf("%-28s", sc == 0 ? "adaptive (ours)"
                                 : grid.schemes[sc].first.c_str());
    for (std::size_t si = 0; si < sites.size(); ++si) {
      std::printf(" %9.1f%%", 100.0 * result_at(si, sc).stats.per());
    }
    std::printf("\n");
  }
  std::printf("\n(paper: adaptive PER ~1%% at all three sites; fixed schemes "
              "degrade with multipath, worst at the lake)\n");

  std::printf("\n=== session QoE at 5 m (adaptive) ===\n");
  for (std::size_t si = 0; si < sites.size(); ++si) {
    bench::print_qoe_line(channel::site_name(sites[si]).c_str(),
                          result_at(si, 0).stats);
  }
  return 0;
}
