#include "channel/medium.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/sink.h"

namespace aqua::channel {

namespace {

LinkConfig path_config(const LinkConfig& cfg) {
  // The path renders signal only; ambient noise is a per-microphone
  // process owned by the medium.
  LinkConfig c = cfg;
  c.noise_enabled = false;
  return c;
}

double l1_norm(const std::vector<double>& fir) {
  double s = 0.0;
  for (const double v : fir) s += std::abs(v);
  return s;
}

}  // namespace

AcousticMedium::LiveStream::LiveStream(const PathSlot& slot,
                                       double start_time_s,
                                       std::uint64_t start_block)
    : channel(slot.cfg, slot.tx_filter, slot.rx_filter),
      stream(channel.stream_at(start_time_s, start_block,
                               slot.roughness.get())) {}

AcousticMedium::PathSlot::PathSlot(int f, int t, int key, const LinkConfig& c,
                                   std::shared_ptr<const dsp::FftFilter> tx,
                                   std::shared_ptr<const dsp::FftFilter> rx)
    : from(f),
      to(t),
      order_key(key),
      cfg(c),
      mobility(link_mobility(c)),
      tx_filter(std::move(tx)),
      rx_filter(std::move(rx)),
      device_l1(l1_norm(tx_filter->kernel()) * l1_norm(rx_filter->kernel())) {}

AcousticMedium::AcousticMedium(double sample_rate_hz,
                               const MediumConfig& config)
    : fs_(sample_rate_hz),
      config_(config),
      pool_(std::make_unique<ShardPool>(config.workers)) {
  shard_metrics_.resize(static_cast<std::size_t>(pool_->workers()));
}

int AcousticMedium::add_endpoint(const std::optional<NoiseParams>& noise,
                                 std::uint64_t noise_seed) {
  return add_endpoint(noise, noise_seed, static_cast<int>(mics_.size()));
}

int AcousticMedium::add_endpoint(const std::optional<NoiseParams>& noise,
                                 std::uint64_t noise_seed, int stable_id) {
  if (noise) {
    mics_.emplace_back(std::in_place, *noise, fs_, noise_seed);
    mic_floor_.push_back(noise_floor_rms(*noise));
  } else {
    mics_.emplace_back(std::nullopt);
    mic_floor_.push_back(0.0);
  }
  stable_ids_.push_back(stable_id);
  active_.push_back(true);
  observed_peak_.push_back(0.0);
  peak_at_last_eval_.push_back(0.0);
  sound_end_.push_back(0);
  mix_order_.emplace_back();
  return static_cast<int>(mics_.size()) - 1;
}

// lint: hot-alloc-ok(setup-rate: runs from connect(), once per path; designs a FIR only for a response no earlier path had)
std::shared_ptr<const dsp::FftFilter> AcousticMedium::device_filter(
    const LinkConfig& cfg, bool speaker) {
  for (const DeviceFilter& d : device_filters_) {
    if (d.speaker == speaker && same_device_response(d.cfg, cfg, speaker)) {
      return d.filter;
    }
  }
  device_filters_.push_back({speaker, cfg, link_device_filter(cfg, speaker)});
  return device_filters_.back().filter;
}

void AcousticMedium::connect(int from, int to, const LinkConfig& cfg) {
  if (from == to || from < 0 || to < 0 || from >= endpoints() ||
      to >= endpoints()) {
    throw std::invalid_argument("AcousticMedium: bad endpoint pair");
  }
  const LinkConfig pc = path_config(cfg);
  auto slot = std::make_unique<PathSlot>(
      from, to, stable_ids_[static_cast<std::size_t>(from)], pc,
      device_filter(pc, /*speaker=*/true), device_filter(pc, /*speaker=*/false));
  const int idx = static_cast<int>(slots_.size());
  if (config_.cull_enabled) {
    // Deferred: the first evaluation decides audibility, and the path
    // opens when its speaker first sounds.
    slot->audible = false;
    eval_pending_ = true;
  } else {
    slot->live = std::make_unique<LiveStream>(
        *slot, static_cast<double>(clock_) / fs_,
        clock_ / kMultipathBlockSamples);
  }
  slots_.push_back(std::move(slot));
  mix_order_[static_cast<std::size_t>(to)].push_back(idx);
  mix_order_dirty_ = true;
}

void AcousticMedium::set_endpoint_active(int endpoint, bool active) {
  if (endpoint < 0 || endpoint >= endpoints()) {
    throw std::invalid_argument("AcousticMedium: bad endpoint");
  }
  if (active_[static_cast<std::size_t>(endpoint)] == active) return;
  active_[static_cast<std::size_t>(endpoint)] = active;
  eval_pending_ = true;
}

std::size_t AcousticMedium::audible_paths() const {
  std::size_t n = 0;
  for (const auto& s : slots_) {
    if (s->audible) ++n;
  }
  return n;
}

obs::Registry AcousticMedium::metrics() const {
  obs::Registry merged;
  for (const obs::Registry& r : shard_metrics_) merged.merge(r);
  return merged;
}

void AcousticMedium::sort_mix_order() {
  for (std::vector<int>& order : mix_order_) {
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return slots_[static_cast<std::size_t>(a)]->order_key <
             slots_[static_cast<std::size_t>(b)]->order_key;
    });
  }
  mix_order_dirty_ = false;
  render_order_dirty_ = true;
}

void AcousticMedium::rebuild_render_order() {
  render_order_.clear();
  for (const std::vector<int>& order : mix_order_) {
    for (const int idx : order) {
      if (slots_[static_cast<std::size_t>(idx)]->live) {
        render_order_.push_back(idx);
      }
    }
  }
  render_order_dirty_ = false;
}

// Re-decides which pairs are worth rendering; update_live_paths() opens them.
// Every input — geometry, mobility bounds, observed peaks, activity — is
// deterministic medium state, so the decision sequence is identical for
// every worker count.
void AcousticMedium::evaluate_culling(double now_s) {
  for (auto& owned : slots_) {
    PathSlot& slot = *owned;
    bool want = active_[static_cast<std::size_t>(slot.from)] &&
                active_[static_cast<std::size_t>(slot.to)];
    if (want && config_.cull_enabled) {
      const double tx_peak =
          std::max(config_.cull.tx_peak,
                   observed_peak_[static_cast<std::size_t>(slot.from)]);
      // The bound moves only with the closest range, so a pair whose
      // geometry cannot change keeps its first solve.
      const double range = closest_range_m(slot.cfg, slot.mobility, now_s,
                                           config_.cull.horizon_s);
      if (range != slot.bound_range_m) {
        slot.gain_bound = peak_gain_bound_at(slot.cfg, slot.device_l1, range);
        slot.bound_range_m = range;
      }
      want = !pair_inaudible(slot.gain_bound, tx_peak,
                             mic_floor_[static_cast<std::size_t>(slot.to)],
                             config_.cull.margin_db);
    }
    if (!want && slot.live) close_path(slot);
    slot.audible = want;
  }
  std::size_t audible = 0;
  for (const auto& s : slots_) {
    if (s->audible) ++audible;
  }
  peak_at_last_eval_ = observed_peak_;
  eval_pending_ = false;
  next_eval_clock_ =
      clock_ + static_cast<std::uint64_t>(
                   std::max(config_.cull.horizon_s, 0.01) * fs_);
  shard_metrics_[0].add("medium.cull_evals");
  shard_metrics_[0].record("medium.audible_pairs",
                           static_cast<double>(audible));
}

// Drops a path's stream, keeping where its roughness sequence stopped so
// the next opening continues it.
void AcousticMedium::close_path(PathSlot& slot) {
  if (!slot.roughness) slot.roughness = std::make_unique<std::mt19937_64>();
  *slot.roughness = slot.live->stream.roughness_rng();
  slot.live.reset();
  render_order_dirty_ = true;
}

// Opens every audible path that should render this block and closes
// every live one that has drained. Without culling an audible path is
// always live. With it, a path lives only while its speaker sounds: it
// opens on the first block holding a non-zero sample and closes once the
// clock passes the speaker's last non-zero sample by the stream's drain
// bound, so the dropped stream held exact zeros only. Decisions read the
// speaker blocks and stream state alone, never the worker count.
// lint: hot-alloc-ok(setup-rate: opens run once per burst onset per audible pair, not per block of a sounding path; building a stream solves its paths and allocates its overlap-save state)
void AcousticMedium::update_live_paths(
    const std::vector<std::span<const double>>& tx) {
  to_open_.clear();
  if (!config_.cull_enabled) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const PathSlot& slot = *slots_[i];
      if (slot.audible && !slot.live) to_open_.push_back(static_cast<int>(i));
    }
  } else {
    // One pass over each speaker block: its peak (for re-culling) and one
    // past its last non-zero sample.
    for (std::size_t e = 0; e < tx.size(); ++e) {
      double peak = 0.0;
      std::size_t end = 0;
      for (std::size_t i = 0; i < tx[e].size(); ++i) {
        const double a = std::abs(tx[e][i]);
        if (a != 0.0) end = i + 1;
        peak = std::max(peak, a);
      }
      observed_peak_[e] = std::max(observed_peak_[e], peak);
      if (end > 0) sound_end_[e] = clock_ + end;
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      PathSlot& slot = *slots_[i];
      if (!slot.audible) continue;
      const std::uint64_t end = sound_end_[static_cast<std::size_t>(slot.from)];
      if (!slot.live) {
        if (end > clock_) to_open_.push_back(static_cast<int>(i));
      } else if (clock_ + 1 >= end + slot.live->stream.drain_samples()) {
        // The drain bound is positive, so this also means the speaker is
        // silent this block.
        close_path(slot);
      }
    }
  }
  if (to_open_.empty()) return;
  // Stream construction (initial path solve, overlap-save state)
  // dominates an onset; open the paths across the pool. Each worker
  // touches a disjoint slot subset, so no synchronization is needed
  // beyond the pool barrier.
  const int workers = pool_->workers();
  const double t0 = static_cast<double>(clock_) / fs_;
  const std::uint64_t b0 = clock_ / kMultipathBlockSamples;
  pool_->run([&](int w) {
    for (std::size_t k = static_cast<std::size_t>(w); k < to_open_.size();
         k += static_cast<std::size_t>(workers)) {
      PathSlot& slot = *slots_[static_cast<std::size_t>(to_open_[k])];
      slot.live = std::make_unique<LiveStream>(slot, t0, b0);
    }
  });
  render_order_dirty_ = true;
}

void AcousticMedium::fill_mic(std::size_t m, std::vector<double>& dst,
                              std::size_t n, dsp::Workspace& ws) {
  if (mics_[m]) {
    dst.resize(n);
    mics_[m]->generate(dst, ws);
  } else {
    dst.assign(n, 0.0);
  }
}

std::uint64_t AcousticMedium::render_slot(PathSlot& slot,
                                          std::span<const double> tx_block,
                                          std::vector<double>& out,
                                          dsp::Workspace& ws) {
  UnderwaterChannel::Stream& stream = slot.live->stream;
  const std::uint64_t silent_before = stream.silent_blocks();
  out.clear();
  stream.push(tx_block, out, ws);
  return stream.silent_blocks() - silent_before;
}

void AcousticMedium::step(const std::vector<std::span<const double>>& tx,
                          std::vector<std::vector<double>>& rx,
                          dsp::Workspace& ws) {
  const std::size_t eps = mics_.size();
  if (tx.size() != eps) {
    throw std::invalid_argument("AcousticMedium: one tx block per endpoint");
  }
  const std::size_t n = eps > 0 ? tx[0].size() : 0;
  for (const auto& b : tx) {
    if (b.size() != n) {
      throw std::invalid_argument("AcousticMedium: tx blocks must match");
    }
  }
  if (eval_pending_ ||
      (config_.cull_enabled && clock_ >= next_eval_clock_)) {
    evaluate_culling(static_cast<double>(clock_) / fs_);
  }
  update_live_paths(tx);
  if (mix_order_dirty_) sort_mix_order();
  if (render_order_dirty_) rebuild_render_order();
  rx.resize(eps);

  std::size_t audible = 0;
  for (const auto& s : slots_) {
    if (s->audible) ++audible;
  }
  const std::size_t live = render_order_.size();

  next_mic_.store(0, std::memory_order_relaxed);
  next_path_.store(0, std::memory_order_relaxed);
  // Workers claim mics, then paths, one at a time: which worker renders
  // what never changes a sample (each path's stream and scratch are its
  // own, and the mix below reads them in canonical order).
  pool_->run([&](int w) {
    dsp::Workspace& worker_ws = w == 0 ? ws : pool_->workspace(w);
    for (std::size_t m = next_mic_.fetch_add(1, std::memory_order_relaxed);
         m < eps; m = next_mic_.fetch_add(1, std::memory_order_relaxed)) {
      fill_mic(m, rx[m], n, worker_ws);
    }
    std::uint64_t rendered = 0;
    std::uint64_t silent = 0;
    for (std::size_t k = next_path_.fetch_add(1, std::memory_order_relaxed);
         k < live; k = next_path_.fetch_add(1, std::memory_order_relaxed)) {
      PathSlot& s = *slots_[static_cast<std::size_t>(render_order_[k])];
      silent += render_slot(s, tx[static_cast<std::size_t>(s.from)], s.scratch,
                            worker_ws);
      ++rendered;
    }
    obs::Registry& shard = shard_metrics_[static_cast<std::size_t>(w)];
    shard.add("medium.rendered_blocks", rendered);
    shard.add("medium.silent_blocks", silent);
  });
  // Canonical accumulation: every microphone starts from its own noise
  // block and adds its live paths in ascending (from stable id, connect
  // order). This order never depends on the worker count or on which
  // worker rendered a path, which is the whole bit-identical-mixing
  // contract.
  for (std::size_t m = 0; m < eps; ++m) {
    std::vector<double>& dst = rx[m];
    for (const int idx : mix_order_[m]) {
      const PathSlot& slot = *slots_[static_cast<std::size_t>(idx)];
      if (!slot.live) continue;
      for (std::size_t i = 0; i < n; ++i) dst[i] += slot.scratch[i];
    }
  }
  shard_metrics_[0].add("medium.culled_convolutions",
                        slots_.size() - audible);
  shard_metrics_[0].add("medium.dormant_blocks", audible - live);

  if (sink_) {
    for (std::size_t i = 0; i < eps; ++i) {
      sink_->on_medium_rx(static_cast<int>(i), clock_, rx[i]);
    }
  }
  clock_ += n;
  if (config_.cull_enabled && !eval_pending_) {
    // A louder-than-ever transmission can invalidate a cull decision made
    // with a smaller assumed peak; re-evaluate at the next step (5%
    // hysteresis so a slowly creeping peak does not re-solve every block).
    for (std::size_t i = 0; i < eps; ++i) {
      if (observed_peak_[i] > peak_at_last_eval_[i] * 1.05 + 1e-9) {
        eval_pending_ = true;
        break;
      }
    }
  }
}

std::pair<int, int> add_duplex_link(AcousticMedium& medium,
                                    const LinkConfig& fwd) {
  const LinkConfig back = reverse_link(fwd);
  const auto mic_noise =
      [](const LinkConfig& cfg) -> std::optional<NoiseParams> {
    if (!cfg.noise_enabled) return std::nullopt;
    return cfg.site.noise;
  };
  const int a = medium.add_endpoint(mic_noise(back), mic_noise_seed(back.seed));
  const int b = medium.add_endpoint(mic_noise(fwd), mic_noise_seed(fwd.seed));
  medium.connect(a, b, fwd);
  medium.connect(b, a, back);
  return {a, b};
}

}  // namespace aqua::channel
