// Float-vs-double receive-front-end equivalence (the fp32 migration's
// safety net):
//   * BasicPreambleScanner<float> finds the same detections, at the same
//     absolute positions, as the double scanner on channel captures — and
//     stays bit-exact across 1 / 160 / 4800-sample chunkings;
//   * the same holds for every endpoint mic stream in the committed trace
//     corpus (real multi-phase duplex timelines, not synthetic captures);
//   * BasicCrossCorrelator<float> lands its normalized peak on the same lag
//     as the double correlator, with the peak value inside fp32 tolerance;
//   * the float decode_tone / decode_band overloads reach the double
//     overloads' decisions (bin, band edges, symbol position).
//
// Positions and counts must be EQUAL: the front end's decisions are
// threshold crossings on the absolute sample grid, and both precisions sit
// on the same grid. Only the continuous metrics get a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "channel/channel.h"
#include "dsp/correlate.h"
#include "dsp/types.h"
#include "dsp/workspace.h"
#include "obs/trace.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

namespace aqua {
namespace {

// Relative tolerance for metrics recomputed with a float signal path. The
// decision accumulators stay double in both instantiations, so the error
// is a handful of fp32 rounding steps on the inputs, not sqrt(N) growth.
constexpr double kMetricRelTol = 2e-3;

std::vector<float> narrowed(std::span<const double> x) {
  std::vector<float> out(x.size());
  dsp::narrow_samples(x, out);
  return out;
}

// Runs a scanner of sample type T over `rx` in fixed-size chunks.
template <typename T>
std::vector<phy::PreambleDetection> scan_chunked(const phy::Preamble& pre,
                                                 std::span<const T> rx,
                                                 std::size_t chunk,
                                                 dsp::Workspace& ws) {
  phy::BasicPreambleScanner<T> scanner(pre);
  std::vector<phy::PreambleDetection> dets;
  for (std::size_t base = 0; base < rx.size(); base += chunk) {
    const std::size_t len = std::min(chunk, rx.size() - base);
    scanner.scan(rx.subspan(base, len), dets, ws);
  }
  return dets;
}

void expect_equivalent(const std::vector<phy::PreambleDetection>& d,
                       const std::vector<phy::PreambleDetection>& f,
                       const std::string& what) {
  ASSERT_EQ(d.size(), f.size()) << what;
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d[i].start_index, f[i].start_index) << what << " det " << i;
    EXPECT_NEAR(d[i].sliding_metric, f[i].sliding_metric,
                kMetricRelTol * std::max(1.0, std::abs(d[i].sliding_metric)))
        << what << " det " << i;
    EXPECT_NEAR(d[i].coarse_peak, f[i].coarse_peak,
                kMetricRelTol * std::max(1.0, std::abs(d[i].coarse_peak)))
        << what << " det " << i;
  }
}

// One phase-1 capture (preamble + an ID tone) with trailing noise.
std::vector<double> phase1_capture(channel::UnderwaterChannel& ch,
                                   const phy::OfdmParams& params,
                                   std::uint8_t dest_id) {
  phy::Preamble preamble(params);
  phy::FeedbackCodec codec(params);
  std::vector<double> wave = preamble.waveform();
  const std::vector<double> id = codec.encode_tone(dest_id);
  wave.insert(wave.end(), id.begin(), id.end());
  return ch.transmit(wave, 0.05, 0.6);
}

TEST(PrecisionEquivalence, ScannerMatchesDoubleOnChannelCaptures) {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  dsp::Workspace ws;

  const struct {
    channel::Site site;
    double range_m;
    std::uint32_t seed;
  } links[] = {
      {channel::Site::kLake, 10.0, 77},
      {channel::Site::kBridge, 5.0, 55},
      {channel::Site::kLake, 30.0, 91},  // lowest-SNR preset: metric ~0.2
  };
  for (const auto& link : links) {
    channel::LinkConfig lc;
    lc.site = channel::site_preset(link.site);
    lc.range_m = link.range_m;
    lc.seed = link.seed;
    channel::UnderwaterChannel ch(lc);
    const std::vector<double> rx = phase1_capture(ch, params, 32);
    const std::vector<float> rxf = narrowed(rx);

    const auto d = scan_chunked<double>(preamble, rx, 997, ws);
    const auto f = scan_chunked<float>(preamble, rxf, 997, ws);
    ASSERT_GE(d.size(), 1u) << "seed " << link.seed;
    expect_equivalent(d, f, "seed " + std::to_string(link.seed));
  }
}

TEST(PrecisionEquivalence, FloatScannerChunkInvariantBitExact) {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel ch(lc);
  const std::vector<double> rx = phase1_capture(ch, params, 32);
  const std::vector<float> rxf = narrowed(rx);

  dsp::Workspace ws;
  const auto d1 = scan_chunked<float>(preamble, {rxf}, 1, ws);
  const auto d160 = scan_chunked<float>(preamble, {rxf}, 160, ws);
  const auto d4800 = scan_chunked<float>(preamble, {rxf}, 4800, ws);
  ASSERT_EQ(d1.size(), 1u);
  ASSERT_EQ(d160.size(), 1u);
  ASSERT_EQ(d4800.size(), 1u);
  // The float scanner inherits the absolute-grid design, so chunking must
  // not change a single bit — same FFT blocks, same energy recurrence.
  EXPECT_EQ(d1[0].start_index, d160[0].start_index);
  EXPECT_EQ(d1[0].start_index, d4800[0].start_index);
  EXPECT_EQ(d1[0].sliding_metric, d160[0].sliding_metric);
  EXPECT_EQ(d1[0].sliding_metric, d4800[0].sliding_metric);
  EXPECT_EQ(d1[0].coarse_peak, d160[0].coarse_peak);
  EXPECT_EQ(d1[0].coarse_peak, d4800[0].coarse_peak);

  // And the positions are the double scanner's positions.
  const auto ref = scan_chunked<double>(preamble, {rx}, 4800, ws);
  expect_equivalent(ref, d4800, "chunk 4800");
}

// Reassembles one endpoint's full-rate mic timeline from its push records.
std::vector<double> mic_stream(const obs::Trace& trace, int endpoint) {
  std::vector<double> out;
  for (const obs::TraceRecord& r : trace.records) {
    if (r.kind != obs::TraceRecord::Kind::kPush || r.endpoint != endpoint)
      continue;
    if (r.decimation != 1) return {};  // inspection-only capture
    const std::size_t end = static_cast<std::size_t>(r.start) + r.samples.size();
    if (out.size() < end) out.resize(end, 0.0);
    std::copy(r.samples.begin(), r.samples.end(),
              out.begin() + static_cast<std::ptrdiff_t>(r.start));
  }
  return out;
}

TEST(PrecisionEquivalence, TraceCorpusScansMatchAcrossPrecisions) {
  const std::filesystem::path dir(AQUA_TRACE_DIR);
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t streams_checked = 0;
  std::size_t detections_seen = 0;
  dsp::Workspace ws;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".aqt") continue;
    const obs::Trace trace = obs::read_trace(entry.path().string());
    for (int ep : trace.endpoints()) {
      const core::ModemConfig* cfg = trace.endpoint_config(ep);
      ASSERT_NE(cfg, nullptr);
      const std::vector<double> rx = mic_stream(trace, ep);
      if (rx.empty()) continue;
      phy::Preamble preamble(cfg->params);
      const std::vector<float> rxf = narrowed(rx);
      const auto d = scan_chunked<double>(preamble, {rx}, 4800, ws);
      const auto f = scan_chunked<float>(preamble, {rxf}, 4800, ws);
      expect_equivalent(
          d, f, entry.path().filename().string() + " ep " + std::to_string(ep));
      ++streams_checked;
      detections_seen += d.size();
    }
  }
  // The committed corpus has multi-endpoint duplex sessions; if this drops
  // to zero the corpus (or its location) changed and the test went blind.
  EXPECT_GE(streams_checked, 4u);
  EXPECT_GE(detections_seen, 2u);
}

TEST(PrecisionEquivalence, CorrelatorPeakSameLagWithinTolerance) {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  const std::vector<double> tmpl = preamble.core_template();

  // Template embedded in white noise at a known offset, modest SNR.
  std::mt19937 rng(4242);
  std::normal_distribution<double> noise(0.0, 0.05);
  const std::size_t offset = 12345;
  std::vector<double> sig(offset + tmpl.size() + 9000);
  for (double& v : sig) v = noise(rng);
  for (std::size_t i = 0; i < tmpl.size(); ++i) sig[offset + i] += tmpl[i];

  dsp::Workspace ws;
  dsp::BasicCrossCorrelator<double> cd(tmpl);
  dsp::BasicCrossCorrelator<float> cf(dsp::convert_samples<float>(tmpl));
  const std::vector<double> nd = cd.normalized(sig, ws);
  const std::vector<float> nf = cf.normalized(narrowed(sig), ws);
  ASSERT_EQ(nd.size(), nf.size());

  const auto peak_d = std::max_element(nd.begin(), nd.end()) - nd.begin();
  const auto peak_f = std::max_element(nf.begin(), nf.end()) - nf.begin();
  EXPECT_EQ(peak_d, static_cast<std::ptrdiff_t>(offset));
  EXPECT_EQ(peak_f, peak_d);
  EXPECT_NEAR(nd[static_cast<std::size_t>(peak_d)],
              static_cast<double>(nf[static_cast<std::size_t>(peak_f)]),
              kMetricRelTol);
}

TEST(PrecisionEquivalence, ToneAndBandDecodersAgree) {
  const phy::OfdmParams params;
  phy::FeedbackCodec codec(params);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kLake);
  lc.range_m = 10.0;
  lc.seed = 31;
  channel::UnderwaterChannel ch(lc);
  dsp::Workspace ws;

  const std::size_t tone_bin = 17;
  const std::vector<double> tone_rx =
      ch.transmit(codec.encode_tone(tone_bin), 0.05, 0.1);
  const auto tone_d = codec.decode_tone(tone_rx, ws);
  const auto tone_f = codec.decode_tone(
      std::span<const float>(narrowed(tone_rx)), ws);
  ASSERT_TRUE(tone_d.has_value());
  ASSERT_TRUE(tone_f.has_value());
  EXPECT_EQ(tone_f->bin, tone_d->bin);
  EXPECT_EQ(tone_f->symbol_start, tone_d->symbol_start);
  EXPECT_NEAR(tone_f->peak_fraction, tone_d->peak_fraction, kMetricRelTol);

  phy::BandSelection band;
  band.begin_bin = 4;
  band.end_bin = 41;
  const std::vector<double> band_rx =
      ch.transmit(codec.encode_band(band), 0.05, 0.1);
  const auto band_d = codec.decode_band(band_rx, ws);
  const auto band_f = codec.decode_band(
      std::span<const float>(narrowed(band_rx)), ws);
  ASSERT_TRUE(band_d.has_value());
  ASSERT_TRUE(band_f.has_value());
  EXPECT_EQ(band_f->band.begin_bin, band_d->band.begin_bin);
  EXPECT_EQ(band_f->band.end_bin, band_d->band.end_bin);
  EXPECT_EQ(band_f->symbol_start, band_d->symbol_start);
  EXPECT_NEAR(band_f->peak_fraction, band_d->peak_fraction, kMetricRelTol);
}

}  // namespace
}  // namespace aqua
