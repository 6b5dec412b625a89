// Section-3 text reproduction: preamble detection rate vs distance (paper:
// 0.99/1.0/1.0/0.96 at 5/10/20/30 m) and feedback frequency error rate
// (~1%). Includes the sliding-correlation-vs-plain-cross-correlation
// ablation that motivates the detector design.
#include <cstdio>

#include "bench_common.h"
#include "dsp/correlate.h"
#include "dsp/fir.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

using namespace aqua;

int main() {
  const phy::OfdmParams p;
  phy::Preamble preamble(p);
  phy::FeedbackCodec fb(p);
  dsp::Workspace ws;
  const int n = 3 * bench::packets_per_config(10);

  std::printf("=== Preamble detection rate vs distance (lake) ===\n");
  std::printf("%8s %12s %18s %22s\n", "range(m)", "detected", "mean metric",
              "timing err (samples)");
  for (double r : {5.0, 10.0, 20.0, 30.0}) {
    int detected = 0;
    double metric = 0.0;
    double timing = 0.0;
    for (int i = 0; i < n; ++i) {
      channel::LinkConfig lc;
      lc.site = channel::site_preset(channel::Site::kLake);
      lc.range_m = r;
      lc.seed = 19000 + static_cast<std::uint64_t>(r) * 101 + i;
      channel::UnderwaterChannel ch(lc);
      const std::vector<double> rx = ch.transmit(preamble.waveform());
      auto det = preamble.detect(rx, ws);
      if (!det) continue;
      ++detected;
      metric += det->sliding_metric;
      // Expected start: lead-in + bulk delay + device/channel FIR delays.
      const double expected =
          0.05 * 48000.0 + ch.bulk_delay_s() * 48000.0 + 511.0 + 16.0 +
          static_cast<double>(p.cp_samples());
      timing += std::abs(static_cast<double>(det->start_index) - expected);
    }
    std::printf("%8.0f %9d/%d %18.3f %22.1f\n", r, detected, n,
                detected ? metric / detected : 0.0,
                detected ? timing / detected : 0.0);
  }
  std::printf("(paper: 0.99 / 1.0 / 1.0 / 0.96)\n");

  std::printf("\n=== Feedback frequency error rate vs distance (lake) ===\n");
  for (double r : {5.0, 10.0, 20.0, 30.0}) {
    int exact = 0, decoded = 0;
    for (int i = 0; i < n; ++i) {
      channel::LinkConfig lc;
      lc.site = channel::site_preset(channel::Site::kLake);
      lc.range_m = r;
      lc.seed = 19500 + static_cast<std::uint64_t>(r) * 103 + i;
      channel::UnderwaterChannel ch(channel::reverse_link(lc));
      const phy::BandSelection band{static_cast<std::size_t>(5 + i % 20),
                                    static_cast<std::size_t>(30 + i % 25), false};
      const std::vector<double> rx = ch.transmit(fb.encode_band(band));
      // The decoder reads the capture narrowed once to fp32, as the modem's.
      auto dec = fb.decode_band(dsp::convert_samples<float>(rx), ws);
      if (!dec) continue;
      ++decoded;
      if (dec->band.begin_bin == band.begin_bin &&
          dec->band.end_bin == band.end_bin) {
        ++exact;
      }
    }
    std::printf("range %4.0f m: decoded %d/%d, frequency error rate %.3f\n", r,
                decoded, n,
                decoded ? 1.0 - static_cast<double>(exact) / decoded : 1.0);
  }
  std::printf("(paper: ~0.01 across distances; errors land on adjacent bins)\n");

  std::printf("\n=== Ablation: sliding correlation vs plain cross-correlation "
              "under impulsive (bubble) noise ===\n");
  // Spiky noise drives plain cross-correlation peaks up (false alarms)
  // while the normalized sliding metric stays quiet.
  int plain_false = 0, sliding_false = 0;
  const auto bp = dsp::design_bandpass(1000.0, 4000.0, 48000.0, 129);
  const std::vector<double> core(
      preamble.waveform().begin() + static_cast<std::ptrdiff_t>(p.cp_samples()),
      preamble.waveform().end());
  const dsp::CrossCorrelator core_corr{std::vector<double>(core)};
  for (int i = 0; i < 20; ++i) {
    channel::NoiseParams np = channel::site_preset(channel::Site::kLake).noise;
    np.bubble_rate_hz = 12.0;
    np.bubble_gain = 18.0;
    channel::NoiseGenerator gen(np, 48000.0, 777 + i);
    const std::vector<double> nz = gen.generate(48000);
    const std::vector<double> filt = dsp::filter_same(nz, bp);
    const std::vector<double> corr = core_corr.normalized(filt, ws);
    if (!corr.empty() && corr[dsp::argmax(corr)] > 0.2) ++plain_false;
    if (preamble.detect(nz, ws)) ++sliding_false;
  }
  std::printf("plain cross-correlation peaks above coarse threshold: %d/20\n",
              plain_false);
  std::printf("two-stage (coarse + sliding) false detections:        %d/20\n",
              sliding_false);
  return 0;
}
