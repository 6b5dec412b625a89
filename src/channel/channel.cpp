#include "channel/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/absorption.h"

namespace aqua::channel {

namespace {

constexpr std::size_t kBlockSamples = kMultipathBlockSamples;  // 10 ms grid
constexpr std::size_t kDeviceFirTaps = 512;  // ~94 Hz response resolution
constexpr double kReferenceMargin_s = 0.002; // room for motion toward rx

double clamp_depth(double z, double water_depth) {
  return std::clamp(z, 0.05, std::max(water_depth - 0.05, 0.1));
}

}  // namespace

std::uint64_t mic_noise_seed(std::uint64_t link_seed) {
  return link_seed * 6151 + 3;
}

std::uint64_t mic_noise_seed(std::uint64_t base_seed, int node_id) {
  // splitmix64 finalizer over (base, id): a pure function of node identity,
  // so rebuilding a topology with a different attach order cannot reshuffle
  // which ocean each microphone hears.
  std::uint64_t z = mic_noise_seed(base_seed) +
                    0x9E3779B97F4A7C15ULL *
                        (static_cast<std::uint64_t>(node_id) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

MobilityModel link_mobility(const LinkConfig& config) {
  return MobilityModel(config.motion, config.seed * 7919 + 13,
                       config.in_air ? 0.0 : config.site.drift_mps);
}

LinkConfig reverse_link(const LinkConfig& fwd) {
  LinkConfig rev = fwd;
  std::swap(rev.tx_device, rev.rx_device);
  std::swap(rev.tx_depth_m, rev.rx_depth_m);
  rev.seed = fwd.seed ^ 0x5A5A5A5A;
  return rev;
}

UnderwaterChannel::UnderwaterChannel(const LinkConfig& config)
    : UnderwaterChannel(config, link_device_filter(config, /*speaker=*/true),
                        link_device_filter(config, /*speaker=*/false)) {}

UnderwaterChannel::UnderwaterChannel(
    const LinkConfig& config, std::shared_ptr<const dsp::FftFilter> tx_filter,
    std::shared_ptr<const dsp::FftFilter> rx_filter)
    : config_(config),
      mobility_(link_mobility(config)),
      tx_filter_(std::move(tx_filter)),
      rx_filter_(std::move(rx_filter)),
      roughness_rng_(config.seed * 104729 + 7) {
  if (config_.range_m <= 0.0) {
    throw std::invalid_argument("UnderwaterChannel: range must be > 0");
  }
  if (config_.noise_enabled) {
    NoiseParams np = config_.site.noise;
    if (config_.in_air) {
      // Quiet room: keep only a faint flat floor.
      np.level_db -= 20.0;
      np.bubble_rate_hz = 0.0;
      np.boat_tones_hz.clear();
    }
    noise_.emplace(np, config_.sample_rate_hz, mic_noise_seed(config_.seed));
  }

  // Block 0 draws no roughness, so the sequence is untouched here.
  base_paths_ = paths_at(0.0, /*block_index=*/0, roughness_rng_);
  if (base_paths_.empty()) {
    throw std::runtime_error("UnderwaterChannel: no propagation paths");
  }
  reference_delay_s_ =
      std::max(base_paths_.front().delay_s - kReferenceMargin_s, 0.0);

  // Links whose geometry cannot evolve collapse to one fixed impulse
  // response; bake its spectrum once so every stream reuses it.
  const bool static_link = config_.motion == MotionKind::kStatic &&
                           config_.site.surface_roughness <= 0.0 &&
                           config_.site.drift_mps <= 0.0 && !config_.in_air;
  if (static_link || config_.in_air) {
    fixed_ir_filter_.emplace(paths_to_impulse_response_ref(
        base_paths_, config_.sample_rate_hz, reference_delay_s_));
  }
}

Geometry UnderwaterChannel::geometry_at(double t_s) const {
  Geometry g;
  g.range_m = std::max(0.5, config_.range_m + mobility_.range_offset_m(t_s));
  const double depth = config_.in_air ? 1e9 : config_.site.water_depth_m;
  // The acoustic endpoints are the speaker and the microphone, which sit at
  // different spots on the chassis: this asymmetry breaks forward/backward
  // reciprocity underwater (Fig. 3d).
  g.source_depth_m =
      clamp_depth(config_.tx_depth_m + config_.tx_device.speaker_offset_m() +
                      mobility_.depth_offset_m(t_s),
                  depth);
  g.receiver_depth_m =
      clamp_depth(config_.rx_depth_m + config_.rx_device.mic_offset_m(), depth);
  g.water_depth_m = depth;
  return g;
}

std::vector<Path> UnderwaterChannel::paths_at(double t_s,
                                              std::uint64_t block_index,
                                              std::mt19937_64& rng) const {
  const Geometry g = geometry_at(t_s);
  if (config_.in_air) {
    const double len = std::hypot(g.range_m, g.source_depth_m - g.receiver_depth_m);
    const double amp = 1.0 / std::max(len, 1.0);
    return {{len / kSoundSpeedAir, amp, 0, 0}};
  }
  return compute_paths(g, waveguide_at(block_index, rng));
}

WaveguideParams UnderwaterChannel::waveguide_at(std::uint64_t block_index,
                                                std::mt19937_64& rng) const {
  WaveguideParams wp = config_.site.waveguide;
  if (config_.site.surface_roughness > 0.0 && block_index > 0) {
    // Waves decorrelate the surface bounce from block to block.
    std::normal_distribution<double> gauss(0.0, config_.site.surface_roughness);
    wp.surface_reflection = std::clamp(
        wp.surface_reflection * (1.0 + gauss(rng)), 0.3, 1.0);
  }
  return wp;
}

std::vector<double> link_device_fir(const LinkConfig& config, bool speaker) {
  const DeviceProfile& dev = speaker ? config.tx_device : config.rx_device;
  const bool immersed = !config.in_air;
  std::vector<double> mag(kDeviceFirTaps / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double f = static_cast<double>(k) * config.sample_rate_hz /
                     static_cast<double>(kDeviceFirTaps);
    mag[k] = speaker ? dev.speaker_gain(f, immersed) : dev.mic_gain(f, immersed);
    if (speaker && config.tx_azimuth_deg != 0.0) {
      mag[k] *= dev.orientation_gain(config.tx_azimuth_deg, f);
    }
  }
  return dsp::design_from_magnitude(mag, kDeviceFirTaps);
}

// Exactly the fields link_device_fir reads; the two change together.
bool same_device_response(const LinkConfig& a, const LinkConfig& b,
                          bool speaker) {
  if (a.in_air != b.in_air || a.sample_rate_hz != b.sample_rate_hz) {
    return false;
  }
  return speaker ? a.tx_device == b.tx_device &&
                       a.tx_azimuth_deg == b.tx_azimuth_deg
                 : a.rx_device == b.rx_device;
}

std::shared_ptr<const dsp::FftFilter> link_device_filter(
    const LinkConfig& config, bool speaker) {
  return std::make_shared<const dsp::FftFilter>(
      link_device_fir(config, speaker));
}

std::vector<double> UnderwaterChannel::transmit(std::span<const double> tx,
                                                double lead_in_s,
                                                double tail_s) {
  const double fs = config_.sample_rate_hz;
  const std::size_t lead = static_cast<std::size_t>(lead_in_s * fs);
  const std::size_t tail = static_cast<std::size_t>(tail_s * fs);
  const std::size_t ref_offset =
      static_cast<std::size_t>(std::llround(reference_delay_s_ * fs));
  const std::size_t shaped = tx_filter_->output_length(tx.size());
  const std::size_t base_ir =
      fixed_ir_filter_ ? 0
                       : paths_to_impulse_response_ref(base_paths_, fs,
                                                       reference_delay_s_)
                             .size();

  // Play the waveform, then silence, through this link's own signal path.
  // The path continues the channel's mobility clock and roughness sequence;
  // blocks past the speaker output carry no signal, so they draw no
  // roughness and a later transmit() picks up where this one's signal ended.
  Stream path(*this, time_s_, 0, &roughness_rng_);
  path.silent_from_ = shaped;
  path.track_ir_length_ = true;
  // Stream latency, bulk delay, the full speaker/propagation/mic response
  // and the tail. A time-varying link's overlap-add keeps one sample of
  // headroom past the longest impulse response its blocks solved (silent
  // blocks included), which is final once the output reaches it.
  const auto wanted = [&] {
    const std::size_t propagated =
        fixed_ir_filter_ ? fixed_ir_filter_->output_length(shaped)
                         : shaped + std::max(base_ir, path.max_ir_samples_);
    return lead + path.extra_latency() + ref_offset +
           rx_filter_->output_length(propagated) + tail;
  };
  dsp::Workspace ws;
  std::vector<double> out(lead, 0.0);
  path.push(tx, out, ws);
  dsp::ScratchReal silence(ws, kBlockSamples);
  std::fill(silence->begin(), silence->end(), 0.0);
  while (out.size() < wanted()) path.push(silence.span(), out, ws);
  out.resize(wanted());
  roughness_rng_ = path.roughness_rng_;
  // The stream's fixed processing latency is not part of the link.
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(lead),
            out.begin() + static_cast<std::ptrdiff_t>(lead + path.extra_latency()));

  if (noise_) {
    dsp::ScratchReal nz(ws, out.size());
    noise_->generate(nz.span(), ws);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += nz.span()[i];
  }
  time_s_ += static_cast<double>(out.size()) / fs;
  return out;
}

std::vector<double> UnderwaterChannel::ambient(std::size_t n) {
  time_s_ += static_cast<double>(n) / config_.sample_rate_hz;
  if (!noise_) return std::vector<double>(n, 0.0);
  std::vector<double> out(n);
  dsp::Workspace ws;
  noise_->generate(out, ws);
  return out;
}

UnderwaterChannel::Stream::Stream(const UnderwaterChannel& ch,
                                  double start_time_s,
                                  std::uint64_t start_block,
                                  const std::mt19937_64* roughness)
    : ch_(&ch),
      time_offset_s_(start_time_s),
      block_offset_(start_block),
      tx_stream_(*ch.tx_filter_, dsp::kMaxStreamStep),
      rx_stream_(*ch.rx_filter_, dsp::kMaxStreamStep),
      // Seeded exactly like the channel's own RNG unless an earlier stream
      // of the link hands on where its sequence stopped. A first stream
      // opened at an offset starts the sequence rather than fast-forwarding
      // it: roughness draws are i.i.d. per block, so the path sees the same
      // wave statistics.
      roughness_rng_(roughness
                         ? *roughness
                         : std::mt19937_64(ch.config_.seed * 104729 + 7)) {
  if (ch.fixed_ir_filter_) {
    ir_stream_.emplace(*ch.fixed_ir_filter_, dsp::kMaxStreamStep);
  }
  // Worst-case samples the chain can hold back at any instant: one
  // incomplete overlap-save block per filter stage plus one incomplete
  // 10 ms multipath block. Priming the FIFO with this many zeros (on top
  // of the physical bulk delay) guarantees every push can emit exactly as
  // many samples as it consumed.
  pad_ = tx_stream_.step() + rx_stream_.step() +
         (ir_stream_ ? ir_stream_->step() : kBlockSamples);
  ref_offset_ = static_cast<std::size_t>(
      std::llround(ch.reference_delay_s_ * ch.config_.sample_rate_hz));
  fifo_.assign(ref_offset_ + pad_, 0.0);
}

std::size_t UnderwaterChannel::Stream::drain_samples() const {
  const std::size_t ir = ch_->fixed_ir_filter_
                             ? ch_->fixed_ir_filter_->kernel_size()
                             : max_ir_samples_;
  return ref_offset_ + 2 * pad_ + (ch_->tx_filter_->kernel_size() - 1) + ir +
         (ch_->rx_filter_->kernel_size() - 1);
}

// Renders the next complete 10 ms block of speaker-filtered samples: the
// block gets its own impulse response (tap drift = physical Doppler),
// overlap-added into mp_ring_; its own span is then final (later blocks
// only add beyond it) and moves on into mp_final_. A block of exact
// silence would add exact zeros, so it skips the response and the
// convolution. It draws its roughness all the same, and solves its paths
// only when transmit() reads max_ir_samples_ (which must stay what
// rendering would have made it).
void UnderwaterChannel::Stream::render_block(dsp::Workspace& ws) {
  const double fs = ch_->config_.sample_rate_hz;
  const std::uint64_t block_start = mp_blocks_ * kBlockSamples;
  const std::span<const double> block =
      std::span<const double>(shaped_pending_).subspan(shaped_head_,
                                                       kBlockSamples);
  shaped_head_ += kBlockSamples;
  const std::uint64_t index = block_offset_ + mp_blocks_ + 1;
  const double t_mid =
      time_offset_s_ +
      (static_cast<double>(block_start) + 0.5 * kBlockSamples) / fs;
  if (block_start >= silent_from_) {
    // Known silence: no roughness draw, nothing to add to the ring.
    ++silent_blocks_;
  } else if (std::all_of(block.begin(), block.end(),
                         [](double v) { return v == 0.0; })) {
    if (track_ir_length_) {
      max_ir_samples_ = std::max(
          max_ir_samples_,
          impulse_response_length(ch_->paths_at(t_mid, index, roughness_rng_),
                                  fs, ch_->reference_delay_s_));
    } else {
      ch_->waveguide_at(index, roughness_rng_);  // the solve's one draw
    }
    ++silent_blocks_;
  } else {
    const std::vector<Path> paths = ch_->paths_at(t_mid, index, roughness_rng_);
    if (!tap_table_matches(taps_, paths)) {
      build_tap_table(paths, fs, ch_->reference_delay_s_, taps_);
    }
    dsp::ScratchReal ir(ws, taps_.length);
    render_taps(paths, taps_, ir.span());
    max_ir_samples_ = std::max(max_ir_samples_, taps_.length);
    dsp::ScratchReal y(ws, kBlockSamples + taps_.length - 1);
    dsp::fft_convolve_into(block, ir.span(), y.span(), ws);
    const std::size_t off = static_cast<std::size_t>(block_start - mp_emitted_);
    if (mp_ring_.size() < off + y->size()) mp_ring_.resize(off + y->size(), 0.0);
    for (std::size_t i = 0; i < y->size(); ++i) mp_ring_[off + i] += (*y)[i];
  }
  ++mp_blocks_;
  const std::size_t have = std::min(kBlockSamples, mp_ring_.size());
  mp_final_.assign(mp_ring_.begin(),
                   mp_ring_.begin() + static_cast<std::ptrdiff_t>(have));
  mp_final_.resize(kBlockSamples, 0.0);  // ring shorter than the block: zeros
  mp_ring_.erase(mp_ring_.begin(),
                 mp_ring_.begin() + static_cast<std::ptrdiff_t>(have));
  mp_emitted_ += kBlockSamples;
}

void UnderwaterChannel::Stream::push(std::span<const double> speaker,
                                     std::vector<double>& out,
                                     dsp::Workspace& ws) {
  const std::size_t n = speaker.size();
  if (ir_stream_) {
    tmp_a_.clear();
    tx_stream_.push(speaker, tmp_a_, ws);
    tmp_b_.clear();
    ir_stream_->push(tmp_a_, tmp_b_, ws);
    rx_stream_.push(tmp_b_, fifo_, ws);
  } else {
    tx_stream_.push(speaker, shaped_pending_, ws);
    // The speaker filter hands over whole overlap-save blocks (thousands of
    // samples) at once. Render them at the pace samples arrive, one 10 ms
    // block per 10 ms pushed, and ahead of that only while the FIFO could
    // not cover this push: every block renders the same whenever it runs
    // (blocks stay in order and the filter stages are chunking-invariant),
    // so pacing spreads the work without changing a bit of the output.
    std::size_t paced = track_ir_length_
                            ? SIZE_MAX
                            : (n + kBlockSamples - 1) / kBlockSamples;
    while (shaped_pending_.size() - shaped_head_ >= kBlockSamples &&
           (paced > 0 || fifo_.size() - fifo_head_ < n)) {
      render_block(ws);
      rx_stream_.push(mp_final_, fifo_, ws);
      if (paced > 0) --paced;
    }
    if (shaped_head_ >= shaped_pending_.size() - shaped_head_) {
      shaped_pending_.erase(
          shaped_pending_.begin(),
          shaped_pending_.begin() + static_cast<std::ptrdiff_t>(shaped_head_));
      shaped_head_ = 0;
    }
  }

  // Emit exactly what we consumed. The FIFO cannot underrun: it was primed
  // with the worst-case hold-back of the chain.
  const std::size_t have = fifo_.size() - fifo_head_;
  const std::size_t take = std::min(n, have);
  out.insert(out.end(), fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_),
             fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_ + take));
  if (take < n) out.insert(out.end(), n - take, 0.0);
  fifo_head_ += take;
  // Drop the consumed prefix once it outgrows what is still queued, so the
  // FIFO stays within twice its live size.
  if (fifo_head_ >= fifo_.size() - fifo_head_) {
    fifo_.erase(fifo_.begin(),
                fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
}

double UnderwaterChannel::frequency_response_mag(double freq_hz) const {
  const double tx = std::abs(dsp::fir_response(tx_filter_->kernel(), freq_hz,
                                               config_.sample_rate_hz));
  const double rx = std::abs(dsp::fir_response(rx_filter_->kernel(), freq_hz,
                                               config_.sample_rate_hz));
  const double medium = std::abs(paths_frequency_response(base_paths_, freq_hz));
  return tx * medium * rx;
}

double UnderwaterChannel::analytic_snr_db(double freq_hz, double low_hz,
                                          double high_hz) const {
  if (!noise_) return 300.0;
  const double h = frequency_response_mag(freq_hz);
  const double signal_psd = h * h / std::max(high_hz - low_hz, 1.0);
  const double noise_psd = noise_->psd_one_sided(freq_hz);
  if (noise_psd <= 0.0) return 300.0;
  return dsp::power_to_db(signal_psd / noise_psd);
}

}  // namespace aqua::channel
