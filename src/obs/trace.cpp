#include "obs/trace.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace aqua::obs {

namespace {

constexpr char kMagic[8] = {'A', 'Q', 'T', 'R', 'A', 'C', 'E', '\0'};

// --- canonical little-endian encoding ---------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

// resize + memcpy rather than vector::insert: GCC 12's -Wstringop-overflow
// misfires on the insert's internal memmove when it inlines through
// serialize_trace.
void put_bytes(std::vector<std::uint8_t>& out, const void* data,
               std::size_t n) {
  if (n == 0) return;
  const std::size_t old = out.size();
  out.resize(old + n);
  std::memcpy(out.data() + old, data, n);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  put_bytes(out, s.data(), s.size());
}

// --- bounded reader ---------------------------------------------------------

class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> bytes, std::size_t base_offset)
      : bytes_(bytes), base_(base_offset) {}

  std::size_t remaining() const {
    return bytes_.size() - pos_;  // lint: pos-sub-ok(need() bounds every read, so pos_ <= bytes_.size())
  }
  std::size_t consumed() const { return pos_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("aqt: " + what + " at byte " +
                             std::to_string(base_ + pos_));
  }

  void need(std::size_t n, const char* what) const {
    if (remaining() < n) {
      fail(std::string("truncated ") + what + " (need " + std::to_string(n) +
           " bytes, have " + std::to_string(remaining()) + ")");
    }
  }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return bytes_[pos_++];
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }

  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }
  float f32(const char* what) { return std::bit_cast<float>(u32(what)); }

  /// Length-checked count for an upcoming array of `elem_size`-byte items.
  std::size_t array_len(std::uint64_t n, std::size_t elem_size,
                        const char* what) {
    if (n > remaining() / (elem_size == 0 ? 1 : elem_size)) {
      fail(std::string(what) + " length " + std::to_string(n) +
           " exceeds the bytes left in the record");
    }
    return static_cast<std::size_t>(n);
  }

  std::string string(const char* what) {
    const std::size_t n = array_len(u32(what), 1, what);
    need(n, what);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> u8_array(std::uint64_t n, const char* what) {
    const std::size_t len = array_len(n, 1, what);
    need(len, what);
    std::vector<std::uint8_t> v(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return v;
  }

  std::vector<double> f64_array(std::uint64_t n, const char* what) {
    const std::size_t len = array_len(n, 8, what);
    std::vector<double> v(len);
    for (std::size_t i = 0; i < len; ++i) v[i] = f64(what);
    return v;
  }

  std::vector<float> f32_array(std::uint64_t n, const char* what) {
    const std::size_t len = array_len(n, 4, what);
    std::vector<float> v(len);
    for (std::size_t i = 0; i < len; ++i) v[i] = f32(what);
    return v;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t base_;
  std::size_t pos_ = 0;
};

// --- payload codecs ---------------------------------------------------------

void put_config(std::vector<std::uint8_t>& out, const core::ModemConfig& c) {
  put_f64(out, c.params.sample_rate_hz);
  put_f64(out, c.params.subcarrier_spacing_hz);
  put_f64(out, c.params.band_low_hz);
  put_f64(out, c.params.band_high_hz);
  put_f64(out, c.params.cp_fraction);
  put_f64(out, c.params.equalizer_fraction);
  put_f64(out, c.params.snr_threshold_db);
  put_f64(out, c.params.lambda);
  put_u8(out, c.my_id);
  put_u64(out, c.payload_bits);
  put_u8(out, c.send_ack ? 1 : 0);
  put_u8(out, c.fixed_band ? 1 : 0);
  if (c.fixed_band) {
    put_u64(out, c.fixed_band->begin_bin);
    put_u64(out, c.fixed_band->end_bin);
    put_u8(out, c.fixed_band->fallback ? 1 : 0);
  }
  put_u8(out, c.decode.use_equalizer ? 1 : 0);
  put_u8(out, c.decode.use_differential ? 1 : 0);
}

core::ModemConfig get_config(Cursor& in) {
  core::ModemConfig c;
  c.params.sample_rate_hz = in.f64("config.sample_rate");
  c.params.subcarrier_spacing_hz = in.f64("config.spacing");
  c.params.band_low_hz = in.f64("config.band_low");
  c.params.band_high_hz = in.f64("config.band_high");
  c.params.cp_fraction = in.f64("config.cp_fraction");
  c.params.equalizer_fraction = in.f64("config.eq_fraction");
  c.params.snr_threshold_db = in.f64("config.snr_threshold");
  c.params.lambda = in.f64("config.lambda");
  c.my_id = in.u8("config.my_id");
  c.payload_bits = in.u64("config.payload_bits");
  c.send_ack = in.u8("config.send_ack") != 0;
  if (in.u8("config.has_fixed_band") != 0) {
    phy::BandSelection band;
    band.begin_bin = in.u64("config.band_begin");
    band.end_bin = in.u64("config.band_end");
    band.fallback = in.u8("config.band_fallback") != 0;
    c.fixed_band = band;
  }
  c.decode.use_equalizer = in.u8("config.use_equalizer") != 0;
  c.decode.use_differential = in.u8("config.use_differential") != 0;
  return c;
}

void put_event(std::vector<std::uint8_t>& out, const core::ModemEvent& e) {
  put_u8(out, static_cast<std::uint8_t>(e.type));
  put_u64(out, e.stream_pos);
  put_f64(out, e.preamble_metric);
  put_f64(out, e.training_metric);
  put_u64(out, e.band.begin_bin);
  put_u64(out, e.band.end_bin);
  put_u8(out, e.band.fallback ? 1 : 0);
  put_u8(out, e.ack_received ? 1 : 0);
  put_u64(out, e.snr_db.size());
  for (double v : e.snr_db) put_f64(out, v);
  put_u64(out, e.payload_bits.size());
  put_bytes(out, e.payload_bits.data(), e.payload_bits.size());
  put_u64(out, e.coded_hard.size());
  put_bytes(out, e.coded_hard.data(), e.coded_hard.size());
}

core::ModemEvent get_event(Cursor& in) {
  core::ModemEvent e;
  const std::uint8_t type = in.u8("event.type");
  if (type > static_cast<std::uint8_t>(core::ModemEvent::Type::kTxFailed)) {
    in.fail("unknown ModemEvent type " + std::to_string(type));
  }
  e.type = static_cast<core::ModemEvent::Type>(type);
  e.stream_pos = in.u64("event.stream_pos");
  e.preamble_metric = in.f64("event.preamble_metric");
  e.training_metric = in.f64("event.training_metric");
  e.band.begin_bin = in.u64("event.band_begin");
  e.band.end_bin = in.u64("event.band_end");
  e.band.fallback = in.u8("event.band_fallback") != 0;
  e.ack_received = in.u8("event.ack") != 0;
  e.snr_db = in.f64_array(in.u64("event.snr_len"), "event.snr");
  e.payload_bits = in.u8_array(in.u64("event.payload_len"), "event.payload");
  e.coded_hard = in.u8_array(in.u64("event.coded_len"), "event.coded");
  return e;
}

std::vector<std::uint8_t> record_payload(const TraceRecord& r) {
  std::vector<std::uint8_t> out;
  switch (r.kind) {
    case TraceRecord::Kind::kMeta:
      put_string(out, r.key);
      put_string(out, r.value);
      break;
    case TraceRecord::Kind::kEndpoint:
      put_i32(out, r.endpoint);
      put_config(out, r.config ? *r.config : core::ModemConfig{});
      break;
    case TraceRecord::Kind::kPush:
      put_i32(out, r.endpoint);
      put_u64(out, r.start);
      put_u32(out, r.decimation);
      put_u8(out, r.sample_width);
      put_u64(out, r.samples.size());
      if (r.sample_width == 4) {
        for (double v : r.samples) put_f32(out, static_cast<float>(v));
      } else {
        for (double v : r.samples) put_f64(out, v);
      }
      break;
    case TraceRecord::Kind::kPull:
      put_i32(out, r.endpoint);
      put_u64(out, r.count);
      put_u8(out, r.has_samples ? 1 : 0);
      if (r.has_samples) {
        put_u32(out, r.decimation);
        put_u64(out, r.samples_f32.size());
        for (float v : r.samples_f32) put_f32(out, v);
      }
      break;
    case TraceRecord::Kind::kSend:
      put_i32(out, r.endpoint);
      put_u64(out, r.start);
      put_u8(out, r.dest_id);
      put_u64(out, r.bits.size());
      put_bytes(out, r.bits.data(), r.bits.size());
      break;
    case TraceRecord::Kind::kEvent:
      put_i32(out, r.endpoint);
      put_event(out, r.event ? *r.event : core::ModemEvent{});
      break;
    case TraceRecord::Kind::kMediumRx:
      put_i32(out, r.endpoint);
      put_u64(out, r.start);
      put_u32(out, r.decimation);
      put_u64(out, r.samples_f32.size());
      for (float v : r.samples_f32) put_f32(out, v);
      break;
    case TraceRecord::Kind::kPayloadBits:
      put_i32(out, r.endpoint);
      put_u64(out, r.payload_bits);
      break;
  }
  return out;
}

TraceRecord parse_record(TraceRecord::Kind kind, Cursor& in) {
  TraceRecord r;
  r.kind = kind;
  switch (kind) {
    case TraceRecord::Kind::kMeta:
      r.key = in.string("meta.key");
      r.value = in.string("meta.value");
      break;
    case TraceRecord::Kind::kEndpoint:
      r.endpoint = in.i32("endpoint.id");
      r.config = get_config(in);
      break;
    case TraceRecord::Kind::kPush: {
      r.endpoint = in.i32("push.endpoint");
      r.start = in.u64("push.start");
      r.decimation = in.u32("push.decimation");
      r.sample_width = in.u8("push.sample_width");
      if (r.sample_width != 4 && r.sample_width != 8) {
        in.fail("push sample width must be 4 or 8, got " +
                std::to_string(r.sample_width));
      }
      const std::uint64_t n = in.u64("push.len");
      if (r.sample_width == 4) {
        const std::vector<float> f = in.f32_array(n, "push.samples");
        r.samples.assign(f.begin(), f.end());
      } else {
        r.samples = in.f64_array(n, "push.samples");
      }
      break;
    }
    case TraceRecord::Kind::kPull:
      r.endpoint = in.i32("pull.endpoint");
      r.count = in.u64("pull.count");
      r.has_samples = in.u8("pull.has_samples") != 0;
      if (r.has_samples) {
        r.decimation = in.u32("pull.decimation");
        r.samples_f32 = in.f32_array(in.u64("pull.len"), "pull.samples");
      }
      break;
    case TraceRecord::Kind::kSend:
      r.endpoint = in.i32("send.endpoint");
      r.start = in.u64("send.rx_pos");
      r.dest_id = in.u8("send.dest");
      r.bits = in.u8_array(in.u64("send.len"), "send.bits");
      break;
    case TraceRecord::Kind::kEvent:
      r.endpoint = in.i32("event.endpoint");
      r.event = get_event(in);
      break;
    case TraceRecord::Kind::kMediumRx:
      r.endpoint = in.i32("medium.endpoint");
      r.start = in.u64("medium.start");
      r.decimation = in.u32("medium.decimation");
      r.samples_f32 = in.f32_array(in.u64("medium.len"), "medium.samples");
      break;
    case TraceRecord::Kind::kPayloadBits:
      r.endpoint = in.i32("payload_bits.endpoint");
      r.payload_bits = in.u64("payload_bits.bits");
      break;
  }
  return r;
}

template <typename T>
void record_samples_decimated(const std::span<const double> block,
                              std::uint32_t decimation, std::vector<T>& out) {
  const std::uint32_t step = decimation == 0 ? 1 : decimation;
  out.reserve(out.size() + block.size() / step + 1);
  for (std::size_t i = 0; i < block.size(); i += step) {
    out.push_back(static_cast<T>(block[i]));
  }
}

}  // namespace

// --- Trace helpers ----------------------------------------------------------

std::string Trace::meta(std::string_view key) const {
  for (const TraceRecord& r : records) {
    if (r.kind == TraceRecord::Kind::kMeta && r.key == key) return r.value;
  }
  return {};
}

std::vector<int> Trace::endpoints() const {
  std::vector<int> out;
  for (const TraceRecord& r : records) {
    if (r.kind != TraceRecord::Kind::kEndpoint) continue;
    bool seen = false;
    for (int e : out) seen = seen || e == r.endpoint;
    if (!seen) out.push_back(r.endpoint);
  }
  return out;
}

const core::ModemConfig* Trace::endpoint_config(int endpoint) const {
  for (const TraceRecord& r : records) {
    if (r.kind == TraceRecord::Kind::kEndpoint && r.endpoint == endpoint &&
        r.config) {
      return &*r.config;
    }
  }
  return nullptr;
}

std::size_t Trace::push_count(int endpoint) const {
  std::size_t n = 0;
  for (const TraceRecord& r : records) {
    n += r.kind == TraceRecord::Kind::kPush && r.endpoint == endpoint;
  }
  return n;
}

std::size_t Trace::event_count(int endpoint) const {
  std::size_t n = 0;
  for (const TraceRecord& r : records) {
    n += r.kind == TraceRecord::Kind::kEvent && r.endpoint == endpoint;
  }
  return n;
}

// --- serialize / parse ------------------------------------------------------

std::vector<std::uint8_t> serialize_trace(const Trace& trace) {
  std::vector<std::uint8_t> out;
  put_bytes(out, kMagic, sizeof kMagic);
  put_u32(out, kAqtVersion);
  for (const TraceRecord& r : trace.records) {
    const std::vector<std::uint8_t> payload = record_payload(r);
    put_u8(out, static_cast<std::uint8_t>(r.kind));
    put_u64(out, payload.size());
    put_bytes(out, payload.data(), payload.size());
  }
  return out;
}

Trace parse_trace(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof kMagic + 4) {
    throw std::runtime_error(
        "aqt: file too short to hold the magic and version header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("aqt: bad magic — not an .aqt trace file");
  }
  Cursor header(bytes.subspan(sizeof kMagic, 4), sizeof kMagic);
  const std::uint32_t version = header.u32("version");
  if (version != kAqtVersion) {
    throw std::runtime_error("aqt: unsupported format version " +
                             std::to_string(version) + " (reader supports " +
                             std::to_string(kAqtVersion) + ")");
  }

  Trace trace;
  std::size_t pos = sizeof kMagic + 4;
  while (pos < bytes.size()) {
    Cursor head(bytes.subspan(pos), pos);
    const std::uint8_t kind_raw = head.u8("record kind");
    const std::uint64_t payload_size = head.u64("record payload size");
    pos += head.consumed();
    if (payload_size > bytes.size() - pos) {
      throw std::runtime_error(
          "aqt: truncated record at byte " + std::to_string(pos) +
          " (payload claims " + std::to_string(payload_size) +
          // lint: pos-sub-ok(truncation branch: the enclosing if established pos <= bytes.size())
          " bytes, file has " + std::to_string(bytes.size() - pos) + ")");
    }
    if (kind_raw < static_cast<std::uint8_t>(TraceRecord::Kind::kMeta) ||
        kind_raw > static_cast<std::uint8_t>(TraceRecord::Kind::kPayloadBits)) {
      throw std::runtime_error("aqt: unknown record kind " +
                               std::to_string(kind_raw) + " at byte " +
                               std::to_string(pos));
    }
    Cursor body(bytes.subspan(pos, static_cast<std::size_t>(payload_size)),
                pos);
    TraceRecord r =
        parse_record(static_cast<TraceRecord::Kind>(kind_raw), body);
    if (body.remaining() != 0) {
      body.fail("record payload has " + std::to_string(body.remaining()) +
                " trailing bytes");
    }
    trace.records.push_back(std::move(r));
    pos += static_cast<std::size_t>(payload_size);
  }
  return trace;
}

void write_trace(const Trace& trace, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize_trace(trace);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("aqt: cannot open " + path + " for writing");
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("aqt: short write to " + path);
}

Trace read_trace(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("aqt: cannot open " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!f) throw std::runtime_error("aqt: short read from " + path);
  return parse_trace(bytes);
}

// --- TraceCapture -----------------------------------------------------------

TraceCapture::TraceCapture(const CaptureOptions& options) : options_(options) {
  if (options_.mic_decimation == 0) options_.mic_decimation = 1;
  if (options_.speaker_decimation == 0) options_.speaker_decimation = 1;
  if (options_.medium_decimation == 0) options_.medium_decimation = 1;
}

void TraceCapture::meta(std::string_view key, std::string_view value) {
  TraceRecord r;
  r.kind = TraceRecord::Kind::kMeta;
  r.key = std::string(key);
  r.value = std::string(value);
  trace_.records.push_back(std::move(r));
}

void TraceCapture::on_endpoint(int endpoint,
                               const core::ModemConfig& config) {
  TraceRecord r;
  r.kind = TraceRecord::Kind::kEndpoint;
  r.endpoint = endpoint;
  r.config = config;
  trace_.records.push_back(std::move(r));
}

void TraceCapture::on_push(int endpoint, std::uint64_t start,
                           std::span<const double> mic) {
  TraceRecord r;
  r.kind = TraceRecord::Kind::kPush;
  r.endpoint = endpoint;
  r.start = start;
  r.decimation = options_.mic_decimation;
  if (options_.mic_decimation == 1) {
    r.samples.assign(mic.begin(), mic.end());
  } else {
    std::vector<double> dec;
    record_samples_decimated(mic, options_.mic_decimation, dec);
    r.samples = std::move(dec);
  }
  // Store f32 bits when that loses nothing (quantized mic streams).
  bool f32_exact = true;
  for (double v : r.samples) {
    if (static_cast<double>(static_cast<float>(v)) != v) {
      f32_exact = false;
      break;
    }
  }
  r.sample_width = f32_exact ? 4 : 8;
  trace_.records.push_back(std::move(r));
}

void TraceCapture::on_pull(int endpoint, std::span<const double> speaker) {
  TraceRecord r;
  r.kind = TraceRecord::Kind::kPull;
  r.endpoint = endpoint;
  r.count = speaker.size();
  if (options_.record_speaker) {
    r.has_samples = true;
    r.decimation = options_.speaker_decimation;
    record_samples_decimated(speaker, options_.speaker_decimation,
                             r.samples_f32);
  }
  trace_.records.push_back(std::move(r));
}

void TraceCapture::on_send(int endpoint, std::uint64_t rx_pos,
                           std::span<const std::uint8_t> info_bits,
                           std::uint8_t dest_id) {
  TraceRecord r;
  r.kind = TraceRecord::Kind::kSend;
  r.endpoint = endpoint;
  r.start = rx_pos;
  r.dest_id = dest_id;
  r.bits.assign(info_bits.begin(), info_bits.end());
  trace_.records.push_back(std::move(r));
}

void TraceCapture::on_payload_bits(int endpoint, std::uint64_t bits) {
  TraceRecord r;
  r.kind = TraceRecord::Kind::kPayloadBits;
  r.endpoint = endpoint;
  r.payload_bits = bits;
  trace_.records.push_back(std::move(r));
}

void TraceCapture::on_event(int endpoint, const core::ModemEvent& event) {
  TraceRecord r;
  r.kind = TraceRecord::Kind::kEvent;
  r.endpoint = endpoint;
  r.event = event;
  trace_.records.push_back(std::move(r));
}

void TraceCapture::on_medium_rx(int endpoint, std::uint64_t start,
                                std::span<const double> rx) {
  if (!options_.record_medium) return;
  TraceRecord r;
  r.kind = TraceRecord::Kind::kMediumRx;
  r.endpoint = endpoint;
  r.start = start;
  r.decimation = options_.medium_decimation;
  record_samples_decimated(rx, options_.medium_decimation, r.samples_f32);
  trace_.records.push_back(std::move(r));
}

void TraceCapture::on_meta(std::span<const char> key,
                           std::span<const char> value) {
  meta(std::string_view(key.data(), key.size()),
       std::string_view(value.data(), value.size()));
}

}  // namespace aqua::obs
