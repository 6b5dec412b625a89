// The fp32 receive front end against the retired double-precision one.
//
// The library keeps one receive precision: the preamble scanner and the
// tone decoders run only in fp32. The double front end they replaced is
// kept here as recorded data — its detections and decodes on fixed
// captures, recorded before it was deleted — and the fp32 code must still
// reach its decisions:
//   * PreambleScanner finds the recorded detections, at the same absolute
//     positions, on channel captures — and stays bit-exact across 1 / 160
//     / 4800-sample chunkings;
//   * the same holds for every endpoint mic stream in the committed trace
//     corpus (real multi-phase duplex timelines, not synthetic captures);
//   * BasicCrossCorrelator<float> lands its normalized peak on the same lag
//     as the double correlator, with the peak value inside fp32 tolerance;
//   * decode_tone / decode_band reach the recorded decisions (bin, band
//     edges, symbol position), which are the transmitted ones.
//
// Positions, bins and counts must be EQUAL: the front end's decisions are
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

// Relative tolerance between a metric of the fp32 front end and the
// double one's. The decision accumulators are double in both, so the error
// is a handful of fp32 rounding steps on the inputs, not sqrt(N) growth.
constexpr double kMetricRelTol = 2e-3;

// One detection of the retired double-precision scanner, recorded on the
// capture named where it is used (metrics as hex floats, bit for bit).
struct RecordedDetection {
  std::size_t start_index;
  double sliding_metric;
  double coarse_peak;
};

std::vector<float> narrowed(std::span<const double> x) {
  std::vector<float> out(x.size());
  dsp::narrow_samples(x, out);
  return out;
}

// Runs the scanner over `rx` in fixed-size chunks.
std::vector<phy::PreambleDetection> scan_chunked(const phy::Preamble& pre,
                                                 std::span<const float> rx,
                                                 std::size_t chunk,
                                                 dsp::Workspace& ws) {
  phy::PreambleScanner scanner(pre);
  std::vector<phy::PreambleDetection> dets;
  for (std::size_t base = 0; base < rx.size(); base += chunk) {
    const std::size_t len = std::min(chunk, rx.size() - base);
    scanner.scan(rx.subspan(base, len), dets, ws);
  }
  return dets;
}

void expect_matches_recorded(std::span<const RecordedDetection> d,
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

  // `want`: the double scanner's detections, fed in 997-sample chunks.
  const struct {
    channel::Site site;
    double range_m;
    std::uint32_t seed;
    RecordedDetection want;
  } links[] = {
      {channel::Site::kLake, 10.0, 77,
       {3370, 0x1.8d1ce921770eap-1, 0x1.34fb722a810cbp-1}},
      {channel::Site::kBridge, 5.0, 55,
       {3152, 0x1.bb67021a3f879p-1, 0x1.8f2dc72b4d4fp-1}},
      // Lowest-SNR preset: the metric is ~0.43.
      {channel::Site::kLake, 30.0, 91,
       {4019, 0x1.ba6673521d5fbp-2, 0x1.27ca14e37c87cp-2}},
  };
  for (const auto& link : links) {
    channel::LinkConfig lc;
    lc.site = channel::site_preset(link.site);
    lc.range_m = link.range_m;
    lc.seed = link.seed;
    channel::UnderwaterChannel ch(lc);
    const std::vector<float> rxf = narrowed(phase1_capture(ch, params, 32));

    const auto f = scan_chunked(preamble, rxf, 997, ws);
    expect_matches_recorded({&link.want, 1}, f,
                            "seed " + std::to_string(link.seed));
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
  const std::vector<float> rxf = narrowed(phase1_capture(ch, params, 32));

  dsp::Workspace ws;
  const auto d1 = scan_chunked(preamble, rxf, 1, ws);
  const auto d160 = scan_chunked(preamble, rxf, 160, ws);
  const auto d4800 = scan_chunked(preamble, rxf, 4800, ws);
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

  // And the positions are the double scanner's, which was chunk-invariant
  // too (recorded at chunk 4800).
  const RecordedDetection want{3152, 0x1.bb67021a3f879p-1,
                               0x1.8f2dc72b4d4fp-1};
  expect_matches_recorded({&want, 1}, d4800, "chunk 4800");
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

// The double scanner's detections on each endpoint mic stream of the
// committed corpus, fed in 4800-sample chunks. Regenerating the corpus
// changes the streams, so it needs these re-derived.
struct RecordedStream {
  const char* file;
  int endpoint;
  std::vector<RecordedDetection> detections;
};

const std::vector<RecordedStream>& recorded_corpus() {
  static const std::vector<RecordedStream> streams = {
      {"dropped_feedback_retransmit.aqt", 0,
       {{3153, 0x1.bbc58d2f23428p-1, 0x1.8eb888edd25afp-1},
        {183304, 0x1.bb024e03be42ep-1, 0x1.8ef20484f1b17p-1}}},
      {"duplex_bridge_exchange.aqt", 0, {}},
      {"duplex_bridge_exchange.aqt", 1,
       {{8403, 0x1.baac917d4d4c8p-1, 0x1.8de19f76547c9p-1}}},
      {"partial_preamble_false_detect.aqt", 0,
       {{3153, 0x1.b10ddc1c3136p-1, 0x1.7155e0bebc525p-1}}},
  };
  return streams;
}

TEST(PrecisionEquivalence, TraceCorpusScansMatchAcrossPrecisions) {
  const std::filesystem::path dir(AQUA_TRACE_DIR);
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t streams_checked = 0;
  dsp::Workspace ws;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".aqt") continue;
    const std::string file = entry.path().filename().string();
    const obs::Trace trace = obs::read_trace(entry.path().string());
    for (int ep : trace.endpoints()) {
      const core::ModemConfig* cfg = trace.endpoint_config(ep);
      ASSERT_NE(cfg, nullptr);
      const std::vector<double> rx = mic_stream(trace, ep);
      if (rx.empty()) continue;
      const std::string what = file + " ep " + std::to_string(ep);
      const auto rec = std::find_if(
          recorded_corpus().begin(), recorded_corpus().end(),
          [&](const RecordedStream& r) {
            return file == r.file && ep == r.endpoint;
          });
      ASSERT_NE(rec, recorded_corpus().end())
          << what << " has no recorded double-scanner reference";
      phy::Preamble preamble(cfg->params);
      const auto f = scan_chunked(preamble, narrowed(rx), 4800, ws);
      expect_matches_recorded(rec->detections, f, what);
      ++streams_checked;
    }
  }
  // Every recorded stream was found: if this drops, the corpus (or its
  // location) changed and the test went blind.
  EXPECT_EQ(streams_checked, recorded_corpus().size());
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

  // The double decoders' answers on these two captures, recorded.
  const std::size_t tone_bin = 17;
  const auto tone = codec.decode_tone(
      narrowed(ch.transmit(codec.encode_tone(tone_bin), 0.05, 0.1)), ws);
  ASSERT_TRUE(tone.has_value());
  EXPECT_EQ(tone->bin, tone_bin);  // the transmitted tone
  EXPECT_EQ(tone->symbol_start, 3272u);
  EXPECT_NEAR(tone->peak_fraction, 0x1.5901e0ad49936p-1, kMetricRelTol);

  phy::BandSelection band;
  band.begin_bin = 4;
  band.end_bin = 41;
  const auto fb = codec.decode_band(
      narrowed(ch.transmit(codec.encode_band(band), 0.05, 0.1)), ws);
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->band.begin_bin, band.begin_bin);  // the transmitted band
  EXPECT_EQ(fb->band.end_bin, band.end_bin);
  EXPECT_EQ(fb->symbol_start, 3304u);
  EXPECT_NEAR(fb->peak_fraction, 0x1.8894d8214a493p-1, kMetricRelTol);
}

}  // namespace
}  // namespace aqua
