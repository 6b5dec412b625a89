// The .aqt trace format: a compact, versioned, append-only binary log of
// everything a capture hook saw — endpoint configs, the per-endpoint
// operation log (push / pull / send / payload-size changes) on the absolute
// sample timeline, the ModemEvent sequences those operations produced,
// medium waveform snapshots, and free-form scenario metadata.
//
// Layout (all integers little-endian, doubles/floats as IEEE-754 bits):
//
//   [8]  magic "AQTRACE\0"
//   [4]  u32 format version (kAqtVersion)
//   then records until EOF, each:
//   [1]  u8 record kind          (TraceRecord::Kind)
//   [8]  u64 payload bytes       (lets readers skip unknown kinds)
//   [..] kind-specific payload
//
// The format is canonical: serializing a Trace that was read from a file
// reproduces the file byte for byte (asserted by tests), so traces can be
// re-written, filtered or re-stamped without invalidating their identity.
// Full-rate (decimation == 1) push records are the replayable part; a
// decimated capture stays useful for waveform inspection but
// obs::replay_trace will refuse it with a clear error.
//
// This header sits ABOVE core in the layer map (it includes the real
// ModemConfig/ModemEvent types); the hook interface the observed layers see
// is the dependency-free obs/sink.h.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/modem.h"
#include "obs/sink.h"

namespace aqua::obs {

/// Bump on any layout change; readers reject versions they don't know.
/// Version 2 dropped the protocol windows (derived from the numerology
/// since), the search buffer and the per-packet decode search window from
/// the endpoint record.
inline constexpr std::uint32_t kAqtVersion = 2;

/// One record of the append-only log. Which fields are meaningful depends
/// on `kind`; unused fields stay at their defaults (and serialize to
/// nothing).
struct TraceRecord {
  enum class Kind : std::uint8_t {
    kMeta = 1,         ///< key/value scenario metadata
    kEndpoint = 2,     ///< endpoint id + full ModemConfig
    kPush = 3,         ///< mic block: absolute start, decimation, samples
    kPull = 4,         ///< speaker block: requested n, optional samples
    kSend = 5,         ///< send() call: rx position, dest id, info bits
    kEvent = 6,        ///< one ModemEvent
    kMediumRx = 7,     ///< medium-mixed mic block (inspection only)
    kPayloadBits = 8,  ///< set_payload_bits() change
  };

  Kind kind = Kind::kMeta;
  /// Every per-endpoint record carries the endpoint id; -1 for kMeta.
  std::int32_t endpoint = -1;

  // kMeta
  std::string key;
  std::string value;

  // kEndpoint
  std::optional<core::ModemConfig> config;

  // kPush / kMediumRx / kSend: absolute position (mic start, medium clock,
  // or the rx position of the send() call).
  std::uint64_t start = 0;
  // kPush / kPull / kMediumRx: stored-sample decimation (1 = full rate).
  std::uint32_t decimation = 1;
  // kPull: samples the caller requested (the tx-clock advance).
  std::uint64_t count = 0;
  // kPush: full-precision samples (replay feeds these back bit-exactly).
  std::vector<double> samples;
  /// kPush storage width: 8 = f64 bits, 4 = f32 bits. TraceCapture picks 4
  /// automatically when every sample in the block round-trips through
  /// float exactly (e.g. the driver quantized its mic stream, as a real
  /// 16/24-bit capture would be) — half the bytes, still a lossless and
  /// bit-exact replay either way.
  std::uint8_t sample_width = 8;
  // kPull / kMediumRx: inspection-grade samples (single precision).
  std::vector<float> samples_f32;
  bool has_samples = false;  ///< kPull: whether samples_f32 was stored

  // kSend / kPayloadBits
  std::uint8_t dest_id = 0;
  std::vector<std::uint8_t> bits;
  std::uint64_t payload_bits = 0;

  // kEvent
  std::optional<core::ModemEvent> event;
};

/// An in-memory trace: the record log in file order.
struct Trace {
  std::vector<TraceRecord> records;

  /// First metadata value for `key`, or empty string.
  std::string meta(std::string_view key) const;
  /// Endpoint ids in first-appearance order.
  std::vector<int> endpoints() const;
  /// Recorded config for `endpoint`, or nullptr.
  const core::ModemConfig* endpoint_config(int endpoint) const;
  /// Counts of (pushes, events) for `endpoint`.
  std::size_t push_count(int endpoint) const;
  std::size_t event_count(int endpoint) const;
};

/// Serializes `trace` to the canonical .aqt byte string.
std::vector<std::uint8_t> serialize_trace(const Trace& trace);
/// Parses a .aqt byte string. Throws std::runtime_error with a message
/// naming the offending offset on bad magic, unknown version, a truncated
/// record, or a malformed payload — never undefined behavior.
Trace parse_trace(std::span<const std::uint8_t> bytes);

/// File convenience wrappers (throw std::runtime_error on I/O failure).
void write_trace(const Trace& trace, const std::string& path);
Trace read_trace(const std::string& path);

/// What a TraceCapture stores beyond the mandatory replay op log.
struct CaptureOptions {
  /// Mic storage decimation. Anything above 1 halves+ the trace but makes
  /// it inspection-only: replay_trace requires full-rate pushes.
  std::uint32_t mic_decimation = 1;
  /// Store speaker samples from pull_tx (decimated, single precision).
  bool record_speaker = false;
  std::uint32_t speaker_decimation = 8;
  /// Store the medium's mixed per-endpoint rx blocks (decimated, single
  /// precision) — what was actually in the water.
  bool record_medium = false;
  std::uint32_t medium_decimation = 8;
};

/// The standard capture sink: buffers the log in memory, save() writes the
/// .aqt file. Attach to freshly constructed endpoints (before their first
/// push) or the resulting trace will not replay from the stream origin.
class TraceCapture : public TraceSink {
 public:
  explicit TraceCapture(const CaptureOptions& options = {});

  /// Appends scenario metadata (also available to harness code directly).
  void meta(std::string_view key, std::string_view value);

  const Trace& trace() const { return trace_; }
  Trace take() { return std::move(trace_); }
  void save(const std::string& path) const { write_trace(trace_, path); }

  // TraceSink hooks.
  void on_endpoint(int endpoint, const core::ModemConfig& config) override;
  void on_push(int endpoint, std::uint64_t start,
               std::span<const double> mic) override;
  void on_pull(int endpoint, std::span<const double> speaker) override;
  void on_send(int endpoint, std::uint64_t rx_pos,
               std::span<const std::uint8_t> info_bits,
               std::uint8_t dest_id) override;
  void on_payload_bits(int endpoint, std::uint64_t bits) override;
  void on_event(int endpoint, const core::ModemEvent& event) override;
  void on_medium_rx(int endpoint, std::uint64_t start,
                    std::span<const double> rx) override;
  void on_meta(std::span<const char> key, std::span<const char> value) override;

 private:
  CaptureOptions options_;
  Trace trace_;
};

}  // namespace aqua::obs
