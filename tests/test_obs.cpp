// Observability layer: .aqt trace round-trips, malformed-input rejection,
// capture -> replay bit-identity across push chunkings, the checked-in
// regression corpus, metrics merge determinism, and the sweep QoE columns.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "channel/medium.h"
#include "core/link_session.h"
#include "core/modem.h"
#include "obs/registry.h"
#include "obs/replay.h"
#include "obs/trace.h"
#include "phy/feedback.h"
#include "phy/preamble.h"
#include "sim/runner.h"
#include "sim/sweep.h"

namespace aqua {
namespace {

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

void quantize(std::vector<double>& x) {
  for (double& v : x) v = static_cast<double>(static_cast<float>(v));
}

/// Bit-exact fingerprint of an event sequence (doubles as IEEE-754 bits).
std::string fingerprint(const std::vector<core::ModemEvent>& events) {
  std::string out;
  char buf[32];
  const auto hex_bits = [&](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(b));
    out += buf;
  };
  for (const core::ModemEvent& e : events) {
    std::snprintf(buf, sizeof buf, "|%d@%llu:", static_cast<int>(e.type),
                  static_cast<unsigned long long>(e.stream_pos));
    out += buf;
    hex_bits(e.preamble_metric);
    hex_bits(e.training_metric);
    std::snprintf(buf, sizeof buf, "b%zu-%zu%c", e.band.begin_bin,
                  e.band.end_bin, e.band.fallback ? 'f' : '.');
    out += buf;
    for (double v : e.snr_db) hex_bits(v);
    for (std::uint8_t b : e.payload_bits) out += static_cast<char>('0' + b);
    for (std::uint8_t b : e.coded_hard) out += static_cast<char>('0' + b);
    out += e.ack_received ? 'A' : '.';
  }
  return out;
}

/// A deterministic single-receiver microphone timeline: header (preamble +
/// ID 32) through the bridge channel, f32-quantized like a PCM capture.
std::vector<double> receiver_timeline(std::uint64_t seed) {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  phy::FeedbackCodec codec(params);
  std::vector<double> phase1 = preamble.waveform();
  {
    const std::vector<double> id = codec.encode_tone(32);
    phase1.insert(phase1.end(), id.begin(), id.end());
  }
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = seed;
  channel::UnderwaterChannel fwd(lc);
  std::vector<double> rx = fwd.transmit(phase1, 0.05, 0.6);
  quantize(rx);
  return rx;
}

/// Builds a small but fully populated trace exercising every record kind.
obs::Trace sample_trace() {
  obs::TraceCapture cap;
  cap.meta("name", "unit");
  cap.meta("seed", "7");
  core::ModemConfig cfg;
  cfg.my_id = 17;
  cfg.fixed_band = phy::BandSelection{3, 41, false};
  cap.on_endpoint(0, cfg);
  const std::vector<double> mic{0.5, -0.25, 0.125};     // f32-exact
  const std::vector<double> wide{0.1, 0.2, 0.3};        // needs f64
  cap.on_push(0, 0, mic);
  cap.on_push(0, 3, wide);
  cap.on_pull(0, wide);
  const std::vector<std::uint8_t> bits{1, 0, 1, 1};
  cap.on_send(0, 6, bits, 32);
  cap.on_payload_bits(0, 24);
  core::ModemEvent e;
  e.type = core::ModemEvent::Type::kPacketDecoded;
  e.stream_pos = 12345;
  e.preamble_metric = 0.75;
  e.training_metric = 0.6;
  e.band = {5, 37, false};
  e.snr_db = {1.5, -2.25, 0.0};
  e.payload_bits = bits;
  e.coded_hard = {1, 1, 0};
  cap.on_event(0, e);
  return cap.take();
}

// ---------------------------------------------------------------------------
// Format round-trip and robustness.
// ---------------------------------------------------------------------------

TEST(TraceFormat, RoundTripByteIdentical) {
  const obs::Trace trace = sample_trace();
  const std::vector<std::uint8_t> bytes = obs::serialize_trace(trace);
  const obs::Trace back = obs::parse_trace(bytes);
  ASSERT_EQ(back.records.size(), trace.records.size());
  // Canonical format: re-serializing a parsed trace reproduces the file
  // byte for byte.
  EXPECT_EQ(obs::serialize_trace(back), bytes);
  // And the parsed content survives: f32-stored pushes read back exactly.
  EXPECT_EQ(back.meta("name"), "unit");
  ASSERT_NE(back.endpoint_config(0), nullptr);
  EXPECT_EQ(back.endpoint_config(0)->my_id, 17);
  ASSERT_TRUE(back.endpoint_config(0)->fixed_band.has_value());
  EXPECT_EQ(back.endpoint_config(0)->fixed_band->end_bin, 41u);
  EXPECT_EQ(back.records[3].sample_width, 4u);
  EXPECT_EQ(back.records[3].samples, (std::vector<double>{0.5, -0.25, 0.125}));
  EXPECT_EQ(back.records[4].sample_width, 8u);
  EXPECT_EQ(back.records[4].samples, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(TraceFormat, CorpusFilesRoundTripByteIdentical) {
  const std::filesystem::path dir(AQUA_TRACE_DIR);
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".aqt") continue;
    const obs::Trace trace = obs::read_trace(entry.path().string());
    const std::vector<std::uint8_t> bytes = obs::serialize_trace(trace);
    std::ifstream f(entry.path(), std::ios::binary);
    const std::vector<std::uint8_t> original(
        (std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, original) << entry.path();
    checked++;
  }
  EXPECT_GE(checked, 3u) << "corpus missing from " << dir;
}

TEST(TraceFormat, TruncatedAndGarbageInputsFailCleanly) {
  const std::vector<std::uint8_t> bytes =
      obs::serialize_trace(sample_trace());

  // Truncation at every prefix length must throw, never crash or return
  // garbage silently.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, std::size_t{13},
        bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(
        obs::parse_trace(std::span<const std::uint8_t>(bytes.data(), len)),
        std::runtime_error)
        << "prefix length " << len;
  }

  // Bad magic.
  std::vector<std::uint8_t> garbage = bytes;
  garbage[0] = 'X';
  EXPECT_THROW(obs::parse_trace(garbage), std::runtime_error);

  // Unsupported version.
  std::vector<std::uint8_t> vers = bytes;
  vers[8] = 0xfe;
  EXPECT_THROW(obs::parse_trace(vers), std::runtime_error);

  // Unknown record kind.
  std::vector<std::uint8_t> kind = bytes;
  kind[12] = 0x77;
  EXPECT_THROW(obs::parse_trace(kind), std::runtime_error);

  // A record payload length that claims more bytes than the file has.
  std::vector<std::uint8_t> liar = bytes;
  liar[13] = 0xff;  // low byte of the first record's u64 payload size
  EXPECT_THROW(obs::parse_trace(liar), std::runtime_error);

  // Random bytes after a valid header.
  std::vector<std::uint8_t> noise(bytes.begin(), bytes.begin() + 12);
  std::mt19937_64 rng(99);
  for (int i = 0; i < 512; ++i) {
    noise.push_back(static_cast<std::uint8_t>(rng()));
  }
  EXPECT_THROW(obs::parse_trace(noise), std::runtime_error);
}

TEST(TraceFormat, ErrorsNameTheOffendingOffset) {
  const std::vector<std::uint8_t> bytes =
      obs::serialize_trace(sample_trace());
  try {
    obs::parse_trace(std::span<const std::uint8_t>(bytes.data(),
                                                   bytes.size() - 1));
    FAIL() << "truncated parse succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Capture -> replay bit-identity.
// ---------------------------------------------------------------------------

TEST(Replay, MatchesLiveAcrossPushChunkings) {
  dsp::Workspace ws;
  const std::vector<double> rx = receiver_timeline(61);
  std::string reference;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{160},
                                  std::size_t{4800}}) {
    core::ModemConfig rc;
    rc.my_id = 32;
    core::Modem bob(rc);
    obs::TraceCapture cap;
    bob.set_trace_sink(&cap, 0);

    std::vector<core::ModemEvent> live;
    std::span<const double> s(rx);
    for (std::size_t base = 0; base < s.size(); base += chunk) {
      const std::size_t len = std::min(chunk, s.size() - base);
      for (auto& e : bob.push(s.subspan(base, len))) {
        live.push_back(std::move(e));
      }
    }
    ASSERT_FALSE(live.empty()) << "chunk " << chunk;

    // The event stream is invariant to the push chunking...
    const std::string fp = fingerprint(live);
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference) << "chunk " << chunk;
    }

    // ...and replaying the capture reproduces it bit for bit, through a
    // serialize/parse round trip like the real file-based flow.
    const obs::Trace trace =
        obs::parse_trace(obs::serialize_trace(cap.trace()));
    const obs::ReplayResult result = obs::replay_trace(trace, ws);
    EXPECT_TRUE(result.ok) << "chunk " << chunk << ": " << result.summary();
    ASSERT_EQ(result.endpoints.size(), 1u);
    EXPECT_EQ(result.endpoints[0].recorded_events, live.size());
  }
}

TEST(Replay, CorpusReplaysBitIdentically) {
  dsp::Workspace ws;
  const std::filesystem::path dir(AQUA_TRACE_DIR);
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".aqt") continue;
    const obs::Trace trace = obs::read_trace(entry.path().string());
    const obs::ReplayResult result = obs::replay_trace(trace, ws);
    EXPECT_TRUE(result.ok) << entry.path() << ": " << result.summary();
    checked++;
  }
  EXPECT_GE(checked, 3u) << "corpus missing from " << dir;
}

TEST(Replay, DetectsTamperedEvents) {
  dsp::Workspace ws;
  const std::vector<double> rx = receiver_timeline(61);
  core::ModemConfig rc;
  rc.my_id = 32;
  core::Modem bob(rc);
  obs::TraceCapture cap;
  bob.set_trace_sink(&cap, 0);
  bob.push(rx);

  obs::Trace trace = cap.take();
  bool tampered = false;
  for (obs::TraceRecord& r : trace.records) {
    if (r.kind == obs::TraceRecord::Kind::kEvent) {
      r.event->stream_pos += 1;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered) << "capture produced no events";
  const obs::ReplayResult result = obs::replay_trace(trace, ws);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.summary().find("stream_pos"), std::string::npos)
      << result.summary();
}

TEST(Replay, RefusesDecimatedCaptures) {
  dsp::Workspace ws;
  obs::CaptureOptions opts;
  opts.mic_decimation = 8;
  obs::TraceCapture cap(opts);
  core::ModemConfig rc;
  core::Modem bob(rc);
  bob.set_trace_sink(&cap, 0);
  bob.push(std::vector<double>(4800, 0.0));
  EXPECT_THROW(obs::replay_trace(cap.trace(), ws), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(Registry, MergeInOrderMatchesSingleRegistry) {
  obs::Registry whole, a, b;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 200; ++i) {
    const double v = static_cast<double>(rng() % 1000);
    whole.record("lat", v);
    (i < 120 ? a : b).record("lat", v);
    whole.add("n");
    (i < 120 ? a : b).add("n");
  }
  obs::Registry merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.counter("n"), whole.counter("n"));
  ASSERT_NE(merged.histogram("lat"), nullptr);
  // Identical sample sequences => identical (bit-exact) percentiles.
  EXPECT_EQ(merged.histogram("lat")->samples(),
            whole.histogram("lat")->samples());
  for (const double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(merged.histogram("lat")->percentile(p),
              whole.histogram("lat")->percentile(p));
  }
}

TEST(Registry, NearestRankPercentiles) {
  obs::Histogram h;
  for (int v = 10; v >= 1; --v) h.record(v);  // 1..10, recorded descending
  EXPECT_EQ(h.percentile(0.0), 1.0);
  EXPECT_EQ(h.percentile(10.0), 1.0);
  EXPECT_EQ(h.percentile(50.0), 5.0);
  EXPECT_EQ(h.percentile(95.0), 10.0);
  EXPECT_EQ(h.percentile(100.0), 10.0);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 10.0);
  obs::Histogram empty;
  EXPECT_EQ(empty.percentile(50.0), 0.0);
}

TEST(Registry, StageTimersPopulateWhenAttached) {
  obs::Registry metrics;
  core::ModemConfig rc;
  core::Modem bob(rc);
  bob.set_metrics(&metrics);
  bob.push(std::vector<double>(9600, 0.0));
  EXPECT_GT(metrics.counter("dsp.scan.calls"), 0u);
  // Detached modems pay one branch and record nothing.
  obs::Registry other;
  core::Modem quiet(rc);
  quiet.push(std::vector<double>(9600, 0.0));
  EXPECT_TRUE(other.empty());
}

// ---------------------------------------------------------------------------
// Session QoE + sweep integration.
// ---------------------------------------------------------------------------

TEST(SessionQoE, LatencyIsOnTheSharedTimeline) {
  dsp::Workspace ws;
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(channel::Site::kBridge);
  cfg.forward.range_m = 5.0;
  cfg.forward.seed = 55;
  core::LinkSession session(cfg, ws);
  std::mt19937_64 rng(3);
  std::vector<std::uint8_t> bits(16);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  const core::PacketTrace t = session.send_packet(bits);
  ASSERT_TRUE(t.packet_ok);
  ASSERT_TRUE(t.latency_valid);
  // A full exchange takes between one and five seconds of timeline: phase1
  // plus the feedback window plus data airtime.
  const double latency_s =
      static_cast<double>(t.latency_samples) / cfg.forward.sample_rate_hz;
  EXPECT_GT(latency_s, 1.0);
  EXPECT_LT(latency_s, 5.0);
  EXPECT_EQ(t.tx_failures, 0u);
}

TEST(SweepQoE, AggregationBitIdenticalForAnyThreadCount) {
  std::vector<sim::Scenario> scenarios(1);
  scenarios[0].snr_offset_db = 6.0;

  sim::SweepRunner one(sim::RunnerOptions{.threads = 1, .chunk_packets = 1});
  sim::SweepRunner four(sim::RunnerOptions{.threads = 4, .chunk_packets = 1});
  const auto r1 = one.run(scenarios, 4, 4242);
  const auto r4 = four.run(scenarios, 4, 4242);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t s = 0; s < r1.size(); ++s) {
    const sim::BatchStats& a = r1[s].stats;
    const sim::BatchStats& b = r4[s].stats;
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.delivery_ratio(), b.delivery_ratio());
    EXPECT_EQ(a.qoe.counter("tx_failed"), b.qoe.counter("tx_failed"));
    const obs::Histogram* ha = a.qoe.histogram("latency_s");
    const obs::Histogram* hb = b.qoe.histogram("latency_s");
    ASSERT_EQ(ha != nullptr, hb != nullptr);
    if (ha) {
      // Chunk-ordered merge => the exact same sample sequence, so every
      // derived percentile is bit-identical.
      EXPECT_EQ(ha->samples(), hb->samples());
      EXPECT_EQ(ha->percentile(95.0), hb->percentile(95.0));
    }
    if (a.delivered > 0) {
      ASSERT_NE(ha, nullptr);
      EXPECT_EQ(ha->count(), static_cast<std::size_t>(a.delivered));
      EXPECT_GT(a.latency_percentile_s(50.0), 1.0);
    }
  }
}

TEST(SweepQoE, RunnerCaptureProducesReplayableTrace) {
  dsp::Workspace ws;
  const std::string path = testing::TempDir() + "sweep_capture.aqt";
  std::vector<sim::Scenario> scenarios(1);
  scenarios[0].snr_offset_db = 6.0;

  sim::RunnerOptions opts;
  opts.threads = 2;
  opts.chunk_packets = 2;
  opts.capture = sim::SweepCapture{path, 0, 1};
  sim::SweepRunner runner(opts);
  const auto with_capture = runner.run(scenarios, 3, 4242);

  const obs::Trace trace = obs::read_trace(path);
  EXPECT_EQ(trace.meta("scenario"), scenario_label(scenarios[0]));
  EXPECT_EQ(trace.meta("packet"), "1");
  EXPECT_EQ(trace.endpoints().size(), 2u);  // Alice and Bob
  const obs::ReplayResult result = obs::replay_trace(trace, ws);
  EXPECT_TRUE(result.ok) << result.summary();

  // Capturing must not perturb the sweep's deterministic statistics.
  sim::SweepRunner plain(
      sim::RunnerOptions{.threads = 2, .chunk_packets = 2});
  const auto without = plain.run(scenarios, 3, 4242);
  EXPECT_EQ(with_capture[0].stats.delivered, without[0].stats.delivered);
  const obs::Histogram* ha = with_capture[0].stats.qoe.histogram("latency_s");
  const obs::Histogram* hb = without[0].stats.qoe.histogram("latency_s");
  ASSERT_EQ(ha != nullptr, hb != nullptr);
  if (ha) {
    EXPECT_EQ(ha->samples(), hb->samples());
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace aqua
