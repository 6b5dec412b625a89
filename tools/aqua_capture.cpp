// aqua_capture — deterministically regenerates the tests/traces/ replay
// corpus. Each scenario drives real Modem endpoints through real channels
// with fixed seeds, captures the op log + event stream into a .aqt trace,
// and sanity-checks that the capture actually exhibits the behavior it is
// named for before writing it.
//
//   aqua_capture --out DIR [--scenario NAME]
//
// The microphone streams are quantized to f32 before being pushed (a real
// capture is 16/24-bit PCM anyway), which lets the trace store sample bits
// at half width while replay stays bit-exact. Re-running this tool at the
// same commit reproduces each file byte for byte; CI uploads fresh captures
// as artifacts when the replay gate fails so divergences can be diffed.
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "channel/medium.h"
#include "core/modem.h"
#include "obs/replay.h"
#include "obs/trace.h"
#include "phy/datamodem.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

namespace {

using aqua::core::Modem;
using aqua::core::ModemConfig;
using aqua::core::ModemEvent;
namespace dsp = aqua::dsp;

/// Rounds every sample to its nearest f32 (what a PCM capture pipeline
/// would hand the modem), so the trace can store 4-byte sample bits.
void quantize(std::vector<double>& x) {
  for (double& v : x) v = static_cast<double>(static_cast<float>(v));
}

bool has_event(const std::vector<ModemEvent>& events, ModemEvent::Type type) {
  for (const ModemEvent& e : events) {
    if (e.type == type) return true;
  }
  return false;
}

/// Pushes a spliced capture in fixed blocks, collecting events.
std::vector<ModemEvent> push_blocks(Modem& rx, std::vector<double> samples,
                                    std::size_t block = 2048) {
  quantize(samples);
  std::vector<ModemEvent> all;
  std::span<const double> s(samples);
  for (std::size_t base = 0; base < s.size(); base += block) {
    const std::size_t len = std::min(block, s.size() - base);
    for (auto& e : rx.push(s.subspan(base, len))) all.push_back(std::move(e));
  }
  return all;
}

/// Scenario 1: the canonical full exchange — two duplex endpoints on a
/// shared bridge medium, one packet delivered and ACKed.
bool capture_duplex_exchange(const std::string& path) {
  aqua::obs::TraceCapture cap;
  cap.meta("name", "duplex_bridge_exchange");
  cap.meta("description",
           "full Fig.5 exchange, bridge 5m, block 480, payload 16 bits");
  cap.meta("seed", "55");

  aqua::channel::AcousticMedium medium(48000.0);
  aqua::channel::LinkConfig fwd;
  fwd.site = aqua::channel::site_preset(aqua::channel::Site::kBridge);
  fwd.range_m = 5.0;
  fwd.seed = 55;
  aqua::channel::add_duplex_link(medium, fwd);

  ModemConfig ac, bc;
  ac.my_id = 28;
  bc.my_id = 32;
  Modem alice(ac), bob(bc);
  alice.set_trace_sink(&cap, 0);
  bob.set_trace_sink(&cap, 1);

  std::mt19937_64 rng(9);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);
  alice.send(payload, 32);

  const std::size_t block = 480;
  std::vector<double> ta(block), tb(block);
  std::vector<std::span<const double>> tx{std::span<const double>(ta),
                                          std::span<const double>(tb)};
  std::vector<std::vector<double>> rx;
  dsp::Workspace ws;
  std::vector<ModemEvent> ea, eb;
  bool alice_done = false;
  for (std::uint64_t i = 0; i < (4 * 48000) / block; ++i) {
    alice.pull_tx(std::span<double>(ta));
    bob.pull_tx(std::span<double>(tb));
    medium.step(tx, rx, ws);
    quantize(rx[0]);
    quantize(rx[1]);
    for (auto& e : alice.push(rx[0])) {
      if (e.type == ModemEvent::Type::kTxComplete ||
          e.type == ModemEvent::Type::kTxFailed) {
        alice_done = true;
      }
      ea.push_back(std::move(e));
    }
    for (auto& e : bob.push(rx[1])) eb.push_back(std::move(e));
    if (alice_done && bob.rx_state() == Modem::RxState::kSearching) break;
  }

  if (!has_event(eb, ModemEvent::Type::kPacketDecoded) ||
      !has_event(ea, ModemEvent::Type::kTxComplete)) {
    std::fprintf(stderr,
                 "duplex_bridge_exchange: exchange did not complete\n");
    return false;
  }
  cap.save(path);
  return true;
}

/// Scenario 2: dropped feedback — Bob answers a header but the feedback is
/// lost, his data deadline lapses against ambient noise, and the
/// retransmission then completes. Receive-only drive so the trace controls
/// exactly which phases reach him.
bool capture_dropped_feedback(const std::string& path) {
  aqua::obs::TraceCapture cap;
  cap.meta("name", "dropped_feedback_retransmit");
  cap.meta("description",
           "feedback lost -> deadline lapse -> retransmission decodes; "
           "receive-only endpoint, bridge 5m");
  cap.meta("seed", "61");

  const aqua::phy::OfdmParams params;
  aqua::phy::Preamble preamble(params);
  aqua::phy::FeedbackCodec codec(params);
  aqua::phy::DataModem modem(params);

  ModemConfig rc;
  rc.my_id = 32;
  Modem bob(rc);
  bob.set_trace_sink(&cap, 0);

  aqua::channel::LinkConfig lc;
  lc.site = aqua::channel::site_preset(aqua::channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 61;
  aqua::channel::UnderwaterChannel fwd(lc);

  std::vector<double> phase1 = preamble.waveform();
  {
    const std::vector<double> id = codec.encode_tone(32);
    phase1.insert(phase1.end(), id.begin(), id.end());
  }

  std::vector<ModemEvent> events =
      push_blocks(bob, fwd.transmit(phase1, 0.05, 0.45));
  if (!has_event(events, ModemEvent::Type::kAddressedToUs)) {
    std::fprintf(stderr, "dropped_feedback: header was not accepted\n");
    return false;
  }
  bob.pull_tx(bob.tx_pending());  // feedback plays out; lost on the way back

  // Only ambient noise until the absolute data deadline lapses.
  events = push_blocks(bob, fwd.ambient(3 * 48000));
  if (!has_event(events, ModemEvent::Type::kPacketFailed) &&
      !has_event(events, ModemEvent::Type::kPacketDecoded)) {
    std::fprintf(stderr, "dropped_feedback: deadline never lapsed\n");
    return false;
  }

  // Retransmission: header again, then the data mid-window.
  events = push_blocks(bob, fwd.transmit(phase1, 0.05, 0.45));
  const ModemEvent* addressed = nullptr;
  for (const ModemEvent& e : events) {
    if (e.type == ModemEvent::Type::kAddressedToUs) addressed = &e;
  }
  if (!addressed) {
    std::fprintf(stderr, "dropped_feedback: retransmit header lost\n");
    return false;
  }
  bob.pull_tx(bob.tx_pending());

  std::mt19937_64 rng(21);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);
  events = push_blocks(
      bob, fwd.transmit(modem.encode(payload, addressed->band), 0.6, 1.0));
  if (!has_event(events, ModemEvent::Type::kPacketDecoded)) {
    std::fprintf(stderr, "dropped_feedback: retransmission not decoded\n");
    return false;
  }
  cap.save(path);
  return true;
}

/// Scenario 3: a truncated preamble still trips the correlator, but no ID
/// symbol follows — the detection must die quietly in the ID gate instead
/// of arming the data machine.
bool capture_partial_preamble(const std::string& path) {
  aqua::obs::TraceCapture cap;
  cap.meta("name", "partial_preamble_false_detect");
  cap.meta("description",
           "preamble cut at 85%, no ID symbol: detection fires, ID gate "
           "rejects, receiver re-arms");
  cap.meta("seed", "71");

  const aqua::phy::OfdmParams params;
  aqua::phy::Preamble preamble(params);

  ModemConfig rc;
  rc.my_id = 32;
  Modem bob(rc);
  bob.set_trace_sink(&cap, 0);

  aqua::channel::LinkConfig lc;
  lc.site = aqua::channel::site_preset(aqua::channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 71;
  aqua::channel::UnderwaterChannel fwd(lc);

  std::vector<double> partial = preamble.waveform();
  partial.resize(partial.size() * 85 / 100);

  std::vector<ModemEvent> events =
      push_blocks(bob, fwd.transmit(partial, 0.05, 0.1));
  // Trailing ambient carries the scanner past its confirmation span and
  // the ID gate past its decision position.
  for (auto& e : push_blocks(bob, fwd.ambient(48000))) {
    events.push_back(std::move(e));
  }

  if (!has_event(events, ModemEvent::Type::kPreambleDetected)) {
    std::fprintf(stderr,
                 "partial_preamble: truncated preamble was not detected "
                 "(scenario no longer tricky)\n");
    return false;
  }
  if (has_event(events, ModemEvent::Type::kAddressedToUs)) {
    std::fprintf(stderr, "partial_preamble: ID gate accepted noise\n");
    return false;
  }
  if (bob.rx_state() != Modem::RxState::kSearching) {
    std::fprintf(stderr, "partial_preamble: receiver failed to re-arm\n");
    return false;
  }
  cap.save(path);
  return true;
}

struct ScenarioEntry {
  const char* name;
  bool (*generate)(const std::string& path);
};

constexpr ScenarioEntry kScenarios[] = {
    {"duplex_bridge_exchange", capture_duplex_exchange},
    {"dropped_feedback_retransmit", capture_dropped_feedback},
    {"partial_preamble_false_detect", capture_partial_preamble},
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: aqua_capture --out DIR [--scenario NAME]\n"
                   "scenarios:\n");
      for (const ScenarioEntry& s : kScenarios) {
        std::fprintf(stderr, "  %s\n", s.name);
      }
      return 2;
    }
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "aqua_capture: --out DIR is required\n");
    return 2;
  }

  int failures = 0;
  bool matched = false;
  aqua::dsp::Workspace ws;
  for (const ScenarioEntry& s : kScenarios) {
    if (!only.empty() && only != s.name) continue;
    matched = true;
    std::string path = out_dir;
    path += '/';
    path += s.name;
    path += ".aqt";
    if (s.generate(path)) {
      // Verify the fresh capture replays before anyone checks it in.
      const aqua::obs::ReplayResult r =
          aqua::obs::replay_trace(aqua::obs::read_trace(path), ws);
      if (r.ok) {
        std::printf("wrote %s (%s)\n", path.c_str(), r.summary().c_str());
      } else {
        std::printf("FAIL %s: capture does not replay: %s\n", path.c_str(),
                    r.summary().c_str());
        failures++;
      }
    } else {
      failures++;
    }
  }
  if (!only.empty() && !matched) {
    std::fprintf(stderr, "aqua_capture: unknown scenario '%s'\n",
                 only.c_str());
    return 2;
  }
  return failures == 0 ? 0 : 1;
}
