// Full-duplex shared acoustic medium, sharded across a fixed worker pool.
//
// N endpoints (speaker + microphone pairs) hang off one medium; every
// connected ordered pair gets a directed UnderwaterChannel streamed through
// UnderwaterChannel::Stream, and every microphone gets ONE ambient-noise
// process (noise belongs to the receiver, not to a path — with three
// transmitters you do not hear three oceans). step() advances all endpoint
// clocks together, block by block, which is what lets duplex modem
// endpoints run the real protocol against each other on a continuous
// sample timeline instead of oracle-spliced captures.
//
// Scaling model (same discipline as sim::SweepRunner):
//  - Workers of a fixed ShardPool claim per-mic noise blocks and audible
//    directed paths from shared counters, so a stalled worker's share
//    moves to the others; each path renders into its own scratch block.
//    After the pool's barrier the calling thread accumulates every
//    microphone in one canonical order — ascending (from-endpoint stable
//    id, connect sequence) after the mic's own noise. Floating-point
//    accumulation order is therefore fixed, so the mix is bit-identical
//    for any worker count AND for any endpoint attach order. One worker
//    is the same code path with the calling thread doing every claim.
//  - Audibility culling (opt-in): a pair whose conservative peak-gain
//    bound keeps it `margin_db` below the receiving mic's noise floor is
//    skipped entirely — no stream state, no convolution. Decisions are
//    re-evaluated every `horizon_s` of medium time (the geometry bound
//    covers the whole window) and immediately when an endpoint transmits
//    louder than previously observed. Culling also skips silence: an
//    audible pair holds a stream only while its speaker sounds. It opens
//    on the speaker's first block with a non-zero sample and closes once
//    the stream's drain bound (UnderwaterChannel::Stream::drain_samples)
//    has passed since the last one, when its output is exact zeros from
//    there on. Dense deployments therefore cost O(sounding audible pairs)
//    per step, not O(N^2).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "channel/audibility.h"
#include "channel/channel.h"
#include "channel/noise.h"
#include "channel/shard_pool.h"
#include "dsp/workspace.h"
#include "obs/registry.h"

namespace aqua::obs {
class TraceSink;
}  // namespace aqua::obs

namespace aqua::channel {

/// Scaling knobs of a shared medium. The defaults are one worker and no
/// culling.
struct MediumConfig {
  /// Fixed worker-pool size; values below 1 mean 1. Output is
  /// bit-identical for every value.
  int workers = 1;
  /// Skip paths provably below the receivers' noise floors. Off by
  /// default: small deployments keep today's exact waveforms; dense ones
  /// opt in and are validated by decoded-event equivalence instead.
  bool cull_enabled = false;
  /// Conservative-cull tuning (margin, horizon, assumed speaker peak).
  AudibilityParams cull;
};

/// N-endpoint full-duplex shared acoustic medium: a directed
/// UnderwaterChannel::Stream per connected ordered pair, one ambient-noise
/// process per microphone, sample-level mixing on one shared clock.
class AcousticMedium {
 public:
  explicit AcousticMedium(double sample_rate_hz = 48000.0,
                          const MediumConfig& config = {});

  /// Adds an endpoint; returns its index. `noise` is the ambient process
  /// at this endpoint's microphone (nullopt = silent medium, e.g. tests).
  /// The endpoint's stable id (which orders its transmissions in every
  /// mix, independent of attach order) defaults to its index.
  int add_endpoint(const std::optional<NoiseParams>& noise,
                   std::uint64_t noise_seed);
  int add_endpoint(const std::optional<NoiseParams>& noise,
                   std::uint64_t noise_seed, int stable_id);

  /// Opens the directed signal path `from` -> `to`. `cfg.noise_enabled`
  /// and `cfg.seed`-derived noise are ignored here (see the per-mic noise
  /// above); everything else — geometry, devices, mobility, site physics —
  /// applies to this direction only.
  void connect(int from, int to, const LinkConfig& cfg);

  int endpoints() const { return static_cast<int>(mics_.size()); }

  /// Join/leave churn: an inactive endpoint's paths are force-culled (its
  /// speaker is silent and its microphone hears only ambient noise until
  /// it rejoins). Takes effect at the next step.
  void set_endpoint_active(int endpoint, bool active);
  bool endpoint_active(int endpoint) const {
    return active_[static_cast<std::size_t>(endpoint)];
  }

  /// Advances the medium by one block: tx[i] is endpoint i's speaker block
  /// (all blocks the same size), and rx[i] is filled with endpoint i's
  /// microphone block. An endpoint's own speaker is excluded from its mic
  /// (the app transmits and listens on one phone; its echo path is not
  /// part of the protocol).
  void step(const std::vector<std::span<const double>>& tx,
            std::vector<std::vector<double>>& rx, dsp::Workspace& ws);

  /// Samples elapsed on the shared clock.
  std::uint64_t clock() const { return clock_; }

  double sample_rate_hz() const { return fs_; }

  /// Attaches a capture sink; each step() then reports every endpoint's
  /// mixed microphone block (on_medium_rx) at its medium-clock position —
  /// what was actually "in the water". nullptr detaches.
  void set_trace_sink(obs::TraceSink* sink) { sink_ = sink; }

  int workers() const { return pool_->workers(); }

  /// The medium's worker pool — callers clocking N modems against this
  /// medium shard their per-modem DSP over the same workers (and the same
  /// per-worker arenas) so one pool serves the whole deployment.
  ShardPool& pool() { return *pool_; }

  /// Directed paths ever connected / currently audible (not culled).
  std::size_t connected_paths() const { return slots_.size(); }
  std::size_t audible_paths() const;

  /// Distinct speaker and microphone response filters designed so far.
  /// Paths with the same response (same_device_response) share one
  /// filter, so this counts responses, not paths.
  std::size_t device_filters() const { return device_filters_.size(); }

  /// Per-shard metrics: counters "medium.rendered_blocks" (path blocks
  /// pushed through a live stream; dormant paths are not counted) and
  /// "medium.silent_blocks" (10 ms multipath blocks those streams skipped
  /// as exact silence), both shard-resident (their split across shards
  /// follows which worker claimed what; the merged counts are fixed),
  /// plus, on shard 0, counters "medium.dormant_blocks" (audible path
  /// blocks not rendered because the path was dormant: its speaker silent
  /// and its stream drained), "medium.culled_convolutions" /
  /// "medium.cull_evals" and histogram "medium.audible_pairs" (per
  /// evaluation).
  const obs::Registry& shard_metrics(int shard) const {
    return shard_metrics_[static_cast<std::size_t>(shard)];
  }
  /// All shards merged in shard order.
  obs::Registry metrics() const;

 private:
  struct PathSlot;

  /// A path's live DSP state, present only while the path is audible
  /// (and, under culling, sounding).
  struct LiveStream {
    UnderwaterChannel channel;         ///< path model over shared filters
    UnderwaterChannel::Stream stream;  ///< streaming state over `channel`
    LiveStream(const PathSlot& slot, double start_time_s,
               std::uint64_t start_block);
  };

  /// One designed device response and the config it was designed from.
  struct DeviceFilter {
    bool speaker = true;
    LinkConfig cfg;
    std::shared_ptr<const dsp::FftFilter> filter;
  };

  /// One directed pair, live or culled.
  struct PathSlot {
    int from = 0;
    int to = 0;
    int order_key = 0;    ///< from-endpoint stable id (canonical mix order)
    LinkConfig cfg;
    MobilityModel mobility;   ///< same trajectory the channel would follow
    std::shared_ptr<const dsp::FftFilter> tx_filter;  ///< shared speaker
    std::shared_ptr<const dsp::FftFilter> rx_filter;  ///< shared microphone
    double device_l1 = 1.0;   ///< ||h_tx||_1 * ||h_rx||_1 (cull bound)
    double bound_range_m = -1.0;  ///< closest range gain_bound was solved at
    double gain_bound = 0.0;      ///< peak_gain_bound at bound_range_m
    bool audible = true;
    std::unique_ptr<LiveStream> live;  ///< null while culled or dormant
    /// Where the last closed stream's roughness sequence stopped; the next
    /// opening continues it (null until the path first closes).
    std::unique_ptr<std::mt19937_64> roughness;
    std::vector<double> scratch;  ///< this step's rendered block
    PathSlot(int f, int t, int key, const LinkConfig& c,
             std::shared_ptr<const dsp::FftFilter> tx,
             std::shared_ptr<const dsp::FftFilter> rx);
  };

  /// The speaker (or microphone) response of `cfg`: designed on first use,
  /// then shared by every path with the same response.
  std::shared_ptr<const dsp::FftFilter> device_filter(const LinkConfig& cfg,
                                                      bool speaker);

  void evaluate_culling(double now_s);
  /// Opens the audible paths that render this block and closes drained
  /// ones (dormancy under culling).
  void update_live_paths(const std::vector<std::span<const double>>& tx);
  void close_path(PathSlot& slot);
  void sort_mix_order();
  void rebuild_render_order();
  /// Renders one block of a live path into `out` (replacing its
  /// contents); returns the multipath blocks its stream skipped as silent.
  std::uint64_t render_slot(PathSlot& slot, std::span<const double> tx_block,
                            std::vector<double>& out, dsp::Workspace& ws);
  void fill_mic(std::size_t m, std::vector<double>& dst, std::size_t n,
                dsp::Workspace& ws);

  double fs_;
  MediumConfig config_;
  std::unique_ptr<ShardPool> pool_;
  std::vector<std::optional<NoiseGenerator>> mics_;
  std::vector<double> mic_floor_;     ///< 0 for silent microphones
  std::vector<int> stable_ids_;
  std::vector<bool> active_;
  std::vector<double> observed_peak_;      ///< per endpoint, monotone
  std::vector<double> peak_at_last_eval_;
  /// Per endpoint, under culling: one past the medium-clock index of its
  /// speaker's last non-zero sample (0 = never sounded). Past the current
  /// clock while this step's block sounds.
  std::vector<std::uint64_t> sound_end_;
  std::vector<int> to_open_;  ///< update_live_paths's scratch
  std::vector<std::unique_ptr<PathSlot>> slots_;
  std::vector<DeviceFilter> device_filters_;  ///< one per distinct response
  std::vector<std::vector<int>> mix_order_;  ///< per mic, canonical order
  /// Live slots in mix order: the order workers claim them in. Rebuilt
  /// when a path opens or closes; mix_order_ is re-sorted only on connect.
  std::vector<int> render_order_;
  bool mix_order_dirty_ = false;
  bool render_order_dirty_ = false;
  std::uint64_t clock_ = 0;
  std::uint64_t next_eval_clock_ = 0;
  bool eval_pending_ = false;  ///< connect/churn/peak-growth triggered
  std::atomic<std::size_t> next_mic_{0};   ///< next mic noise block to claim
  std::atomic<std::size_t> next_path_{0};  ///< next render_order_ entry
  std::vector<obs::Registry> shard_metrics_;  ///< one per worker
  obs::TraceSink* sink_ = nullptr;  ///< borrowed capture hook; may be null
};

/// Wires the standard two-endpoint duplex link onto `medium`: endpoint A
/// transmits `fwd`, endpoint B answers over reverse_link(fwd), and each
/// microphone gets the site's ambient process (honoring
/// `fwd.noise_enabled`). Returns {A, B}.
std::pair<int, int> add_duplex_link(AcousticMedium& medium,
                                    const LinkConfig& fwd);

}  // namespace aqua::channel
