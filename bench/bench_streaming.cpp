// Streaming front end vs. the rescan baseline.
//
// The pre-Modem realtime receiver re-filtered and re-correlated its whole
// rolling capture (a fixed retention) on every push, in double
// precision, so per-push cost grew with the buffer. The PreambleScanner
// filters and correlates each sample exactly once through stateful fp32
// overlap-save streams, making per-push cost O(chunk · log B) regardless
// of retention.
//
// This bench feeds the same microphone timeline (one phase-1 packet inside
// ambient noise) to both front ends in app-sized pushes and reports
// wall-clock per pushed sample at several retention sizes. The streaming
// row narrows each push to float and scans it, as Modem::push does. The
// library keeps only that fp32 front end, so the baseline keeps the old
// double batch detector and its sliding metric locally (BatchDetector
// below). The acceptance bar: streaming >= 2x over the rescan baseline at
// a 48000-sample buffer, the retention the old receiver defaulted to.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "channel/channel.h"
#include "core/modem.h"
#include "dsp/correlate.h"
#include "dsp/fft_filter.h"
#include "dsp/fir.h"
#include "dsp/simd.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

using namespace aqua;

namespace {

constexpr std::size_t kPush = 1600;  // one 33 ms microphone callback

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)  // lint: det-ok(benches measure wall time by definition; results go to stderr, not into any signal)
      .count();
}

// The old receiver's batch detector, kept here as the baseline: bandpass the
// whole buffer, coarse-correlate it against the core template, keep the 16
// best half-symbol peaks above the coarse threshold, and confirm each with
// the sliding metric (step 8, then a +/-8 fine pass). Its filter and
// template spectra are built once, as they were in the old receiver, and
// it runs in double throughout.
class BatchDetector {
 public:
  explicit BatchDetector(const phy::Preamble& preamble)
      : core_(preamble.core_samples()),
        bandpass_(dsp::design_bandpass(1000.0, 4000.0, 48000.0, 129)),
        corr_(preamble.core_template()) {}

  bool detect(std::span<const double> raw, dsp::Workspace& ws) const {
    const std::size_t n = phy::OfdmParams().symbol_samples();
    const std::size_t step = phy::Preamble::kSlidingStep;
    dsp::ScratchReal filtered(ws, raw.size());
    bandpass_.filter_same_into(raw, filtered.span(), ws);
    const std::span<const double> signal = filtered.span();
    const std::size_t coarse_len = corr_.output_length(signal.size());
    if (coarse_len == 0) return false;
    dsp::ScratchReal coarse_s(ws, coarse_len);
    corr_.normalized_into(signal, coarse_s.span(), ws);
    const std::span<const double> coarse = coarse_s.span();

    std::vector<std::pair<double, std::size_t>> candidates;
    for (std::size_t base = 0; base < coarse.size(); base += n / 2) {
      const std::size_t end = std::min(base + n / 2, coarse.size());
      const std::size_t best = static_cast<std::size_t>(
          std::max_element(coarse.begin() + static_cast<std::ptrdiff_t>(base),
                           coarse.begin() + static_cast<std::ptrdiff_t>(end)) -
          coarse.begin());
      if (coarse[best] > phy::Preamble::kCoarseThreshold) {
        candidates.emplace_back(coarse[best], best);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (candidates.size() > 16) candidates.resize(16);

    for (const auto& [value, index] : candidates) {
      const std::size_t lo = index > n ? index - n : 0;
      const std::size_t hi = std::min(index + n, signal.size());
      double best_metric = 0.0;
      std::size_t best_idx = lo;
      for (std::size_t i = lo; i < hi; i += step) {
        const double m = sliding_metric_at(signal, i);
        if (m > best_metric) {
          best_metric = m;
          best_idx = i;
        }
      }
      const std::size_t flo = best_idx > step ? best_idx - step : 0;
      const std::size_t fhi = std::min(best_idx + step + 1, signal.size());
      for (std::size_t i = flo; i < fhi; ++i) {
        best_metric = std::max(best_metric, sliding_metric_at(signal, i));
      }
      if (best_metric >= phy::Preamble::kSlidingThreshold) return true;
    }
    return false;
  }

 private:
  // The normalized sliding segment-correlation metric over double samples
  // (the retired double form of Preamble::sliding_metric_at).
  double sliding_metric_at(std::span<const double> signal,
                           std::size_t start) const {
    const std::size_t n = phy::OfdmParams().symbol_samples();
    if (start + core_ > signal.size()) return 0.0;
    const dsp::simd::Kernels& kern = dsp::simd::active();
    double corr_sum = 0.0;
    for (std::size_t s = 0; s + 1 < phy::OfdmParams::kPreambleSymbols; ++s) {
      const double* a = signal.data() + start + s * n;
      corr_sum += static_cast<double>(phy::OfdmParams::kPnSigns[s] *
                                      phy::OfdmParams::kPnSigns[s + 1]) *
                  kern.dot(a, a + n, n);
    }
    const double* w = signal.data() + start;
    const double energy_sum = kern.dot(w, w, core_);
    if (energy_sum <= 1e-12) return 0.0;
    return corr_sum / energy_sum;
  }

  std::size_t core_;
  dsp::FftFilter bandpass_;
  dsp::CrossCorrelator corr_;
};

// The old receiver's search loop: keep the last `retain` samples, rerun the
// batch detector over the whole buffer on every push.
double run_rescan(const phy::Preamble& preamble,
                  std::span<const double> timeline, std::size_t retain,
                  std::size_t& detections, dsp::Workspace& ws) {
  const BatchDetector detector(preamble);
  std::vector<double> buffer;
  detections = 0;
  const std::size_t need =
      preamble.core_samples() + 4 * phy::OfdmParams().symbol_total_samples();
  const auto t0 = std::chrono::steady_clock::now();  // lint: det-ok(benches measure wall time by definition)
  for (std::size_t base = 0; base < timeline.size(); base += kPush) {
    const std::size_t len = std::min(kPush, timeline.size() - base);
    buffer.insert(buffer.end(), timeline.begin() + static_cast<std::ptrdiff_t>(base),
                  timeline.begin() + static_cast<std::ptrdiff_t>(base + len));
    if (buffer.size() < need) continue;
    if (detector.detect(buffer, ws)) {
      ++detections;
      buffer.clear();  // consume the packet, as the old receiver did
      continue;
    }
    if (buffer.size() > retain) {
      buffer.erase(buffer.begin(),
                   buffer.end() - static_cast<std::ptrdiff_t>(retain));
    }
  }
  return seconds_since(t0);
}

double run_streaming(const phy::Preamble& preamble,
                     std::span<const double> timeline, std::size_t& detections,
                     dsp::Workspace& ws) {
  phy::PreambleScanner scanner(preamble);
  std::vector<phy::PreambleDetection> dets;
  std::vector<float> chunk(kPush);
  const auto t0 = std::chrono::steady_clock::now();  // lint: det-ok(benches measure wall time by definition)
  for (std::size_t base = 0; base < timeline.size(); base += kPush) {
    const std::size_t len = std::min(kPush, timeline.size() - base);
    const std::span<float> narrowed = std::span<float>(chunk).first(len);
    dsp::narrow_samples(timeline.subspan(base, len), narrowed);
    scanner.scan(narrowed, dets, ws);
  }
  detections = dets.size();
  return seconds_since(t0);
}

double run_modem(std::span<const double> timeline, std::size_t& detections,
                 dsp::Workspace& ws) {
  core::ModemConfig mc;
  mc.my_id = 32;
  core::Modem modem(mc, ws);
  detections = 0;
  const auto t0 = std::chrono::steady_clock::now();  // lint: det-ok(benches measure wall time by definition)
  for (std::size_t base = 0; base < timeline.size(); base += kPush) {
    const std::size_t len = std::min(kPush, timeline.size() - base);
    for (const core::ModemEvent& e : modem.push(timeline.subspan(base, len))) {
      if (e.type == core::ModemEvent::Type::kPreambleDetected) ++detections;
    }
  }
  return seconds_since(t0);
}

}  // namespace

int main() {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  phy::FeedbackCodec codec(params);

  // ~8 s of microphone audio: ambient noise with one phase-1 packet in it.
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel ch(lc);
  std::vector<double> timeline = ch.ambient(2 * 48000);
  {
    std::vector<double> wave = preamble.waveform();
    const std::vector<double> id = codec.encode_tone(32);
    wave.insert(wave.end(), id.begin(), id.end());
    const std::vector<double> rx = ch.transmit(wave, 0.05, 0.5);
    timeline.insert(timeline.end(), rx.begin(), rx.end());
  }
  {
    const std::vector<double> tail = ch.ambient(5 * 48000);
    timeline.insert(timeline.end(), tail.begin(), tail.end());
  }
  const double audio_s = static_cast<double>(timeline.size()) / 48000.0;
  std::printf("timeline: %.1f s of audio, pushed in %zu-sample blocks\n\n",
              audio_s, kPush);

  dsp::Workspace ws;
  std::printf("%-26s %10s %12s %10s %s\n", "front end", "wall [s]",
              "ns/sample", "xrealtime", "detections");

  std::size_t det_stream = 0;
  const double t_stream = run_streaming(preamble, timeline, det_stream, ws);
  std::size_t det_modem = 0;
  const double t_modem = run_modem(timeline, det_modem, ws);

  const auto row = [&](const char* name, double wall, std::size_t det) {
    std::printf("%-26s %10.3f %12.1f %10.1f %10zu\n", name, wall,
                1e9 * wall / static_cast<double>(timeline.size()),
                audio_s / wall, det);
  };
  row("streaming scanner", t_stream, det_stream);
  row("streaming Modem::push", t_modem, det_modem);

  double t_rescan_48k = 0.0;
  for (const std::size_t retain : {12000u, 24000u, 48000u, 96000u}) {
    std::size_t det = 0;
    const double t = run_rescan(preamble, timeline, retain, det, ws);
    char name[64];
    std::snprintf(name, sizeof name, "rescan (buffer %zu)", retain);
    row(name, t, det);
    if (retain == 48000u) t_rescan_48k = t;
  }

  const double speedup = t_rescan_48k / t_stream;
  std::printf("\nstreaming speedup over rescan @ 48000-sample buffer: %.1fx\n",
              speedup);
  if (speedup < 2.0) {
    std::printf("FAIL: below the 2x acceptance bar\n");
    return 1;
  }
  return 0;
}
