#include "obs/replay.h"

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "core/modem.h"

namespace aqua::obs {

namespace {

const char* event_type_name(core::ModemEvent::Type t) {
  switch (t) {
    case core::ModemEvent::Type::kPreambleDetected: return "PreambleDetected";
    case core::ModemEvent::Type::kAddressedToUs: return "AddressedToUs";
    case core::ModemEvent::Type::kPacketDecoded: return "PacketDecoded";
    case core::ModemEvent::Type::kPacketFailed: return "PacketFailed";
    case core::ModemEvent::Type::kTxFeedbackReceived: return "TxFeedbackReceived";
    case core::ModemEvent::Type::kTxDataSent: return "TxDataSent";
    case core::ModemEvent::Type::kTxComplete: return "TxComplete";
    case core::ModemEvent::Type::kTxFailed: return "TxFailed";
  }
  return "?";
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool vec_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                    std::size_t* where) {
  if (a.size() != b.size()) {
    *where = std::min(a.size(), b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i], b[i])) {
      *where = i;
      return false;
    }
  }
  return true;
}

/// Compares recorded vs replayed event; fills `why` on mismatch.
bool event_matches(const core::ModemEvent& rec, const core::ModemEvent& got,
                   std::string& why) {
  std::ostringstream os;
  if (rec.type != got.type) {
    os << "type " << event_type_name(rec.type) << " vs "
       << event_type_name(got.type);
  } else if (rec.stream_pos != got.stream_pos) {
    os << "stream_pos " << rec.stream_pos << " vs " << got.stream_pos;
  } else if (!bits_equal(rec.preamble_metric, got.preamble_metric)) {
    os << "preamble_metric bits differ";
  } else if (!bits_equal(rec.training_metric, got.training_metric)) {
    os << "training_metric bits differ";
  } else if (rec.band.begin_bin != got.band.begin_bin ||
             rec.band.end_bin != got.band.end_bin ||
             rec.band.fallback != got.band.fallback) {
    os << "band [" << rec.band.begin_bin << "," << rec.band.end_bin << ")"
       << (rec.band.fallback ? " fallback" : "") << " vs ["
       << got.band.begin_bin << "," << got.band.end_bin << ")"
       << (got.band.fallback ? " fallback" : "");
  } else if (rec.ack_received != got.ack_received) {
    os << "ack_received " << rec.ack_received << " vs " << got.ack_received;
  } else if (std::size_t i = 0; !vec_bits_equal(rec.snr_db, got.snr_db, &i)) {
    os << "snr_db differs at bin " << i << " (sizes " << rec.snr_db.size()
       << " vs " << got.snr_db.size() << ")";
  } else if (rec.payload_bits != got.payload_bits) {
    os << "payload_bits differ (sizes " << rec.payload_bits.size() << " vs "
       << got.payload_bits.size() << ")";
  } else if (rec.coded_hard != got.coded_hard) {
    os << "coded_hard differs (sizes " << rec.coded_hard.size() << " vs "
       << got.coded_hard.size() << ")";
  } else {
    return true;
  }
  why = os.str();
  return false;
}

}  // namespace

std::string ReplayResult::summary() const {
  std::ostringstream os;
  if (ok) {
    os << endpoints.size() << " endpoint(s) replayed, ";
    std::size_t events = 0;
    for (const EndpointReplay& e : endpoints) events += e.recorded_events;
    os << events << " events bit-identical";
    return os.str();
  }
  for (const EndpointReplay& e : endpoints) {
    if (!e.match) {
      os << "endpoint " << e.endpoint << ": " << e.mismatch;
      return os.str();
    }
  }
  return "replay failed";
}

ReplayResult replay_trace(const Trace& trace, dsp::Workspace& ws) {
  const std::vector<int> endpoints = trace.endpoints();
  if (endpoints.empty()) {
    throw std::runtime_error(
        "replay: trace has no endpoint records — nothing to rebuild");
  }

  ReplayResult result;
  result.ok = true;
  for (int endpoint : endpoints) {
    EndpointReplay er;
    er.endpoint = endpoint;

    const core::ModemConfig* config = trace.endpoint_config(endpoint);
    // endpoints() only reports ids that have a kEndpoint record, and
    // parse_trace always materializes its config, so this cannot be null.
    core::Modem modem(*config, ws);

    // Re-drive the op log in file order, accumulating emitted events; then
    // compare the full sequence against the recorded one.
    std::vector<core::ModemEvent> replayed;
    std::vector<const core::ModemEvent*> recorded;
    std::uint64_t expect_start = 0;
    bool op_error = false;
    for (const TraceRecord& r : trace.records) {
      if (r.endpoint != endpoint) continue;
      switch (r.kind) {
        case TraceRecord::Kind::kPush: {
          if (r.decimation != 1) {
            throw std::runtime_error(
                "replay: endpoint " + std::to_string(endpoint) +
                " was captured with mic decimation " +
                std::to_string(r.decimation) +
                " — decimated traces are inspection-only");
          }
          if (r.start != expect_start) {
            er.mismatch = "op log gap: push starts at sample " +
                          std::to_string(r.start) + ", expected " +
                          std::to_string(expect_start) +
                          " (capture attached after the stream origin?)";
            op_error = true;
            break;
          }
          expect_start += r.samples.size();
          std::vector<core::ModemEvent> ev = modem.push(r.samples);
          for (core::ModemEvent& e : ev) replayed.push_back(std::move(e));
          break;
        }
        case TraceRecord::Kind::kPull:
          modem.pull_tx(static_cast<std::size_t>(r.count));
          break;
        case TraceRecord::Kind::kSend:
          modem.send(r.bits, r.dest_id);
          break;
        case TraceRecord::Kind::kPayloadBits:
          modem.set_payload_bits(static_cast<std::size_t>(r.payload_bits));
          break;
        case TraceRecord::Kind::kEvent:
          recorded.push_back(&*r.event);
          break;
        default:
          break;  // kEndpoint / kMediumRx / kMeta are not ops
      }
      if (op_error) break;
    }

    er.recorded_events = recorded.size();
    er.replayed_events = replayed.size();
    if (!op_error) {
      er.match = true;
      const std::size_t n = std::min(recorded.size(), replayed.size());
      for (std::size_t i = 0; i < n && er.match; ++i) {
        std::string why;
        if (!event_matches(*recorded[i], replayed[i], why)) {
          er.match = false;
          er.mismatch = "event " + std::to_string(i) + ": " + why;
        }
      }
      if (er.match && recorded.size() != replayed.size()) {
        er.match = false;
        er.mismatch = "event count: recorded " +
                      std::to_string(recorded.size()) + ", replayed " +
                      std::to_string(replayed.size());
      }
    }
    result.ok = result.ok && er.match;
    result.endpoints.push_back(std::move(er));
  }
  return result;
}

}  // namespace aqua::obs
