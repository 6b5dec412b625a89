// The full end-to-end acoustic link simulator.
//
// Transmit chain: waveform -> speaker response (incl. case + static
// orientation) -> time-varying waveguide multipath (image method, surface
// roughness, mobility-induced tap drift = physical Doppler) -> microphone
// response -> ambient noise at the receiver. This object substitutes for
// "two phones in a lake" in every experiment of the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "channel/device.h"
#include "channel/environment.h"
#include "channel/mobility.h"
#include "channel/multipath.h"
#include "channel/noise.h"
#include "dsp/fft_filter.h"
#include "dsp/fir.h"
#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::channel {

/// Granularity of the time-varying multipath rendering: each 10 ms block
/// gets its own impulse response. Exposed so the medium can convert its
/// sample clock into the block index a re-opened stream should start at.
inline constexpr std::size_t kMultipathBlockSamples = 480;

/// Configuration of one directed acoustic link (transmitter -> receiver).
struct LinkConfig {
  SitePreset site = site_preset(Site::kBridge);
  double range_m = 5.0;
  double tx_depth_m = 1.0;
  double rx_depth_m = 1.0;
  DeviceProfile tx_device{DeviceModel::kGalaxyS9, 1};
  DeviceProfile rx_device{DeviceModel::kGalaxyS9, 2};
  double tx_azimuth_deg = 0.0;     ///< static orientation offset (Fig. 15)
  MotionKind motion = MotionKind::kStatic;
  bool in_air = false;             ///< air link (Fig. 3c reciprocity baseline)
  bool noise_enabled = true;
  double sample_rate_hz = 48000.0;
  std::uint64_t seed = 1;
};

class AcousticMedium;

/// Simulates one direction of an acoustic link.
class UnderwaterChannel {
 public:
  /// Builds the link with its own speaker and microphone response filters.
  explicit UnderwaterChannel(const LinkConfig& config);

  /// Passes `tx` through the link. The output contains `lead_in_s` seconds
  /// of ambient noise, then the (delayed, distorted) signal, then
  /// `tail_s` seconds of trailing noise. The bulk propagation delay of the
  /// earliest arrival is included in the output timeline. Renders through
  /// a Stream that continues this channel's clock and surface-roughness
  /// sequence, so back-to-back calls see the link evolve.
  std::vector<double> transmit(std::span<const double> tx,
                               double lead_in_s = 0.05, double tail_s = 0.05);

  /// Ambient noise only (carrier sensing, noise characterization).
  std::vector<double> ambient(std::size_t n);

  /// Bulk delay of the earliest arrival for the *initial* geometry.
  double bulk_delay_s() const { return reference_delay_s_; }

  /// End-to-end magnitude response (speaker x medium x mic) at `freq_hz`
  /// for the initial geometry — used by the characterization benches.
  double frequency_response_mag(double freq_hz) const;

  /// Per-bin linear SNR the receiver would see for a unit-RMS transmit
  /// signal that concentrates its power uniformly over the bins
  /// [low_hz, high_hz] (diagnostic; the modem estimates its own SNR).
  double analytic_snr_db(double freq_hz, double low_hz, double high_hz) const;

  const LinkConfig& config() const { return config_; }

  /// Current link time (seconds since construction).
  double time_s() const { return time_s_; }

  /// Streaming signal path through this link: push speaker blocks of any
  /// size and receive exactly as many microphone samples per push, on one
  /// continuous clock. The bulk propagation delay plus a fixed processing
  /// latency (bounded by the chain's overlap-save block sizes) appear as
  /// leading zeros of the stream. Ambient noise is NOT added — a shared
  /// medium owns one noise process per microphone, not per path.
  ///
  /// A Stream keeps its own clock, mobility time and surface-roughness RNG
  /// (seeded exactly like the owning channel's, or continuing the sequence
  /// handed to stream_at()); streams opened by the caller neither perturb
  /// nor observe the channel's state. transmit() renders through a private
  /// Stream that starts at the channel's clock and continues the channel's
  /// roughness RNG. The parent channel must outlive the stream.
  ///
  /// A time-varying link solves its paths per 10 ms block. A block whose
  /// speaker-filtered samples are exact silence adds nothing to the
  /// output, so it skips the impulse response and the convolution and,
  /// unless transmit() needs the longest response length for its output
  /// size, the path solve too. It still draws the block's surface-
  /// roughness sample (UnderwaterChannel's one helper for it), so the
  /// blocks after the silence render through the same surface either way.
  ///
  /// An audible block renders its response through the stream's TapTable,
  /// kept while the block's path delays equal the previous block's bit
  /// for bit (a static geometry under a rough surface changes only the
  /// amplitudes), so the windowed sinc is evaluated once per delay set;
  /// the taps come out the same as paths_to_impulse_response_ref's. It
  /// then convolves through one real FFT of next_pow2(480 + L - 1) points
  /// for an L-tap response (2048 for the ~1,200 taps of a few-metre
  /// link), all scratch leased from the caller's Workspace.
  class Stream {
   public:
    /// Consumes `speaker` and appends exactly speaker.size() microphone
    /// samples to `out`.
    void push(std::span<const double> speaker, std::vector<double>& out,
              dsp::Workspace& ws);

    /// Fixed processing latency added on top of the physical bulk delay.
    std::size_t extra_latency() const { return pad_; }

    /// 10 ms multipath blocks skipped so far because their speaker-filtered
    /// samples were exact silence (time-varying links only; a fixed-
    /// geometry link skips silent overlap-save windows instead).
    std::uint64_t silent_blocks() const { return silent_blocks_; }

    /// Drain bound: once the speaker has been silent (exact zeros) for
    /// this many samples past its last non-zero sample, every later output
    /// sample is exactly 0.0, so a medium may drop the stream and lose
    /// nothing but zeros. It is the bulk delay plus the FIFO latency plus
    /// each stage's reach: speaker taps - 1, the longest block response
    /// rendered so far, microphone taps - 1, and one more pad_ for block
    /// alignment (an overlap-save block or 10 ms multipath block whose
    /// input holds a non-zero sample leaves roundoff in every output of
    /// that block, not only in those the convolution reaches). Valid once
    /// every block holding a non-zero speaker-filtered sample has rendered,
    /// which the bound itself guarantees when the clock has passed it.
    std::size_t drain_samples() const;

    /// The surface-roughness sequence as this stream has left it; a later
    /// stream of the same link continues it through stream_at().
    const std::mt19937_64& roughness_rng() const { return roughness_rng_; }

   private:
    friend class UnderwaterChannel;
    Stream(const UnderwaterChannel& ch, double start_time_s,
           std::uint64_t start_block, const std::mt19937_64* roughness);

    void render_block(dsp::Workspace& ws);

    const UnderwaterChannel* ch_;
    double time_offset_s_ = 0.0;      ///< medium time at stream start
    std::uint64_t block_offset_ = 0;  ///< 10 ms block index at stream start
    dsp::FftFilter::Stream tx_stream_;
    std::optional<dsp::FftFilter::Stream> ir_stream_;  ///< fixed geometry
    dsp::FftFilter::Stream rx_stream_;
    std::size_t pad_ = 0;
    std::size_t ref_offset_ = 0;      ///< bulk delay in samples
    // Time-varying multipath state (absolute 10 ms block grid).
    std::vector<double> shaped_pending_;
    std::size_t shaped_head_ = 0;     ///< first unrendered pending sample
    std::vector<double> mp_ring_;     ///< overlap-add tail, base mp_emitted_
    std::uint64_t mp_blocks_ = 0;     ///< blocks rendered so far
    std::uint64_t mp_emitted_ = 0;    ///< final samples handed to rx_stream_
    std::vector<double> mp_final_;
    std::mt19937_64 roughness_rng_;
    /// Windowed-sinc taps of the last rendered block's paths, reused while
    /// the path delays hold bit for bit.
    TapTable taps_;
    /// Speaker-filtered samples from here on are known silent (set by
    /// transmit() for its flush): their blocks are skipped, not rendered.
    std::uint64_t silent_from_ = UINT64_MAX;
    std::size_t max_ir_samples_ = 0;  ///< longest block response solved
    std::uint64_t silent_blocks_ = 0;
    /// Set by transmit(), whose output length reads max_ir_samples_ after
    /// every push: every complete block then renders at once. Otherwise
    /// blocks render at the pace samples arrive.
    bool track_ir_length_ = false;
    // Output FIFO, primed with the bulk-delay + latency zeros.
    std::vector<double> fifo_;
    std::size_t fifo_head_ = 0;
    std::vector<double> tmp_a_;
    std::vector<double> tmp_b_;
  };

  /// Opens a streaming signal path over this link.
  Stream stream() const { return Stream(*this, 0.0, 0, nullptr); }

  /// Opens a streaming signal path whose mobility/roughness timeline starts
  /// at `start_time_s` (seconds) / `start_block` (10 ms blocks) instead of
  /// zero. The sharded medium uses this to re-open a path that was culled
  /// or dormant: the re-created stream evaluates geometry at the medium's
  /// absolute clock, so a node that drifted while the path was closed
  /// reappears where it actually is, not where it was. `roughness`, when
  /// given, is the sequence an earlier stream of this link left off at
  /// (Stream::roughness_rng()): the new stream continues it, so every
  /// opening of a path draws new surface roughness instead of replaying
  /// the draws the first one began with. Without it the sequence starts
  /// at the link's seed.
  Stream stream_at(double start_time_s, std::uint64_t start_block,
                   const std::mt19937_64* roughness = nullptr) const {
    return Stream(*this, start_time_s, start_block, roughness);
  }

 private:
  /// A medium designs each distinct device response once and hands the
  /// same immutable filter to every path that uses it.
  friend class AcousticMedium;

  /// Builds the link over shared response filters. `tx_filter` and
  /// `rx_filter` must be link_device_filter(c, true / false) of a config
  /// `c` with same_device_response(c, config, true / false).
  UnderwaterChannel(const LinkConfig& config,
                    std::shared_ptr<const dsp::FftFilter> tx_filter,
                    std::shared_ptr<const dsp::FftFilter> rx_filter);

  Geometry geometry_at(double t_s) const;
  std::vector<Path> paths_at(double t_s, std::uint64_t block_index,
                             std::mt19937_64& rng) const;
  /// The waveguide of block `block_index`: the site's, with the block's
  /// surface-roughness draw applied. The only RNG use of a path solve, so
  /// a silent block that skips the solve draws through here as well.
  WaveguideParams waveguide_at(std::uint64_t block_index,
                               std::mt19937_64& rng) const;

  LinkConfig config_;
  MobilityModel mobility_;
  std::optional<NoiseGenerator> noise_;
  /// speaker + case + static orientation (possibly shared with other links)
  std::shared_ptr<const dsp::FftFilter> tx_filter_;
  /// microphone + case (possibly shared with other links)
  std::shared_ptr<const dsp::FftFilter> rx_filter_;
  std::vector<Path> base_paths_;    ///< paths for the initial geometry
  /// Impulse-response filter for links whose geometry never changes
  /// (static underwater or in-air), built once at construction.
  std::optional<dsp::FftFilter> fixed_ir_filter_;
  double reference_delay_s_ = 0.0;  ///< shared tap-delay origin
  double time_s_ = 0.0;             ///< link clock (advances per transmit)
  std::mt19937_64 roughness_rng_;   ///< transmit()'s roughness sequence
};

/// Builds the reverse-direction config (swaps devices/depths and accounts
/// for the speaker/mic physical offsets, which is what breaks reciprocity
/// underwater).
LinkConfig reverse_link(const LinkConfig& fwd);

/// Ambient-noise seed at the microphone of a link seeded `link_seed` —
/// UnderwaterChannel's own derivation, exposed so an AcousticMedium's
/// per-mic processes hear the same kind of ocean as the packet channels.
std::uint64_t mic_noise_seed(std::uint64_t link_seed);

/// Ambient-noise seed for the microphone of node `node_id` in a deployment
/// seeded `base_seed`. A pure function of (base_seed, node_id) — NOT of
/// attach order — so a topology rebuilt with endpoints added in any order
/// hears the same ocean at every node (splitmix64-style mixing keeps
/// adjacent ids statistically independent).
std::uint64_t mic_noise_seed(std::uint64_t base_seed, int node_id);

/// The mobility model `UnderwaterChannel` derives from a link config,
/// exposed so the medium's audibility culler can evaluate the same
/// trajectory for paths whose channel is currently dormant (culled).
MobilityModel link_mobility(const LinkConfig& config);

/// The speaker- or microphone-response FIR `UnderwaterChannel` builds for
/// `config` (device + case + static orientation). The culler uses its L1
/// norm as a rigorous peak-gain bound for the filter stage.
std::vector<double> link_device_fir(const LinkConfig& config, bool speaker);

/// Whether link_device_fir(a, speaker) and link_device_fir(b, speaker)
/// are the same response: same device, immersion (in air or not) and
/// sample rate, and for the speaker the same azimuth. Links for which it
/// holds can share one response filter.
bool same_device_response(const LinkConfig& a, const LinkConfig& b,
                          bool speaker);

/// link_device_fir as the immutable overlap-save filter a link renders
/// through.
std::shared_ptr<const dsp::FftFilter> link_device_filter(
    const LinkConfig& config, bool speaker);

}  // namespace aqua::channel
