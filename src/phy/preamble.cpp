#include "phy/preamble.h"

#include <algorithm>
#include <cmath>

#include "dsp/cazac.h"
#include "dsp/fir.h"
#include "dsp/simd.h"

namespace aqua::phy {

namespace {

// CP + 8 signed copies of the CAZAC symbol.
std::vector<double> build_waveform(const OfdmParams& params,
                                   std::span<const double> one_symbol) {
  const std::size_t n = params.symbol_samples();
  const std::size_t cp = params.cp_samples();
  std::vector<double> waveform;
  waveform.reserve(cp + OfdmParams::kPreambleSymbols * n);
  // One cyclic prefix in front (tail of the first signed symbol) to absorb
  // multipath before the sync point.
  const double sign0 = static_cast<double>(OfdmParams::kPnSigns[0]);
  for (std::size_t i = n - cp; i < n; ++i) {
    waveform.push_back(sign0 * one_symbol[i]);
  }
  for (std::size_t s = 0; s < OfdmParams::kPreambleSymbols; ++s) {
    const double sign = static_cast<double>(OfdmParams::kPnSigns[s]);
    for (std::size_t i = 0; i < n; ++i) {
      waveform.push_back(sign * one_symbol[i]);
    }
  }
  return waveform;
}

}  // namespace

Preamble::Preamble(const OfdmParams& params)
    : params_(params),
      ofdm_(params),
      cazac_bins_(dsp::zadoff_chu(params.num_bins())),
      one_symbol_(ofdm_.modulate(cazac_bins_)),
      waveform_(build_waveform(params, one_symbol_)),
      bandpass_(dsp::convert_samples<float>(
          dsp::design_bandpass(params.band_low_hz, params.band_high_hz,
                               params.sample_rate_hz, kBandpassTaps))),
      core_samples_(OfdmParams::kPreambleSymbols * params.symbol_samples()) {}

std::vector<double> Preamble::core_template() const {
  return std::vector<double>(
      waveform_.begin() + static_cast<std::ptrdiff_t>(params_.cp_samples()),
      waveform_.end());
}

double Preamble::sliding_metric_at(std::span<const float> signal,
                                   std::size_t start) const {
  const std::size_t n = params_.symbol_samples();
  if (start + core_samples_ > signal.size()) return 0.0;
  // Segment correlations and the window energy are contiguous dot products
  // — the dispatched fp32 SIMD kernel runs them. The metric itself
  // accumulates in double.
  const dsp::simd::Kernels& kern = dsp::simd::active();
  double corr_sum = 0.0;
  for (std::size_t s = 0; s + 1 < OfdmParams::kPreambleSymbols; ++s) {
    const float* a = signal.data() + start + s * n;
    const double sign = static_cast<double>(OfdmParams::kPnSigns[s] *
                                            OfdmParams::kPnSigns[s + 1]);
    corr_sum += sign * static_cast<double>(kern.dot_f(a, a + n, n));
  }
  const double energy_sum = static_cast<double>(kern.dot_f(
      signal.data() + start, signal.data() + start, core_samples_));
  if (energy_sum <= 1e-12) return 0.0;
  return corr_sum / energy_sum;
}

std::optional<PreambleDetection> Preamble::detect(
    std::span<const double> signal, dsp::Workspace& ws) const {
  if (signal.size() < core_samples_) return std::nullopt;
  const std::size_t last_start = signal.size() - core_samples_;

  // The capture narrowed once, then one scanner pass over it and silence
  // until every detection that could start inside it has been decided —
  // the same front end the streaming modem runs, applied to a finished
  // recording.
  dsp::Scratch<float> narrowed(ws, signal.size());
  dsp::narrow_samples(signal, narrowed.span());
  PreambleScanner scanner(*this);
  // lint: alloc-ok(detection list of one capture: a handful of entries at most)
  std::vector<PreambleDetection> found;
  scanner.scan(narrowed.span(), found, ws);
  dsp::Scratch<float> silence(ws, params_.symbol_samples());
  std::fill(silence->begin(), silence->end(), 0.0f);
  while (scanner.decided_through() <= last_start) {
    scanner.scan(silence.span(), found, ws);
  }

  std::optional<PreambleDetection> best;
  for (const PreambleDetection& d : found) {
    if (d.start_index > last_start) continue;
    if (!best || d.sliding_metric > best->sliding_metric) best = d;
  }
  return best;
}

namespace {

// Re-accumulate the scanner's running window-energy sum at this absolute
// lag spacing (same cancellation-drift argument as sliding_energy_into —
// and pinning the re-sum points to the absolute grid is also what keeps
// the normalization chunking-invariant).
constexpr std::uint64_t kScannerEnergyReaccumulate = 4096;

// Compact a ring's front lazily so trims amortize to O(1) per sample.
constexpr std::size_t kRingTrimSlack = 8192;

// The correlation engine's kernel: the core template reversed, rounded
// once to float.
std::vector<float> reversed_core(const Preamble& preamble) {
  std::vector<double> t = preamble.core_template();
  std::reverse(t.begin(), t.end());
  return dsp::convert_samples<float>(t);
}

}  // namespace

PreambleScanner::PreambleScanner(const Preamble& preamble)
    : pre_(&preamble),
      n_(preamble.params_.symbol_samples()),
      core_(preamble.core_samples()),
      delay_((preamble.bandpass_.size() - 1) / 2),
      window_(std::max<std::size_t>(n_ / 2, 1)),
      ref_energy_(dsp::energy(preamble.core_template())),
      band_engine_(preamble.bandpass_),
      corr_engine_(reversed_core(preamble), dsp::kMaxStreamStep),
      band_stream_(band_engine_, dsp::kMaxStreamStep),
      corr_stream_(corr_engine_),
      conv_drop_(delay_),
      corr_drop_(core_ - 1) {}

void PreambleScanner::reset() {
  band_stream_.reset();
  corr_stream_.reset();
  filt_.clear();
  corr_vals_.clear();
  coarse_.clear();
  filt_base_ = corr_base_ = coarse_base_ = 0;
  conv_drop_ = delay_;
  corr_drop_ = core_ - 1;
  energy_acc_ = 0.0;
  next_lag_ = next_window_ = 0;
  pending_.reset();
  consumed_ = 0;
}

std::uint64_t PreambleScanner::decided_through() const {
  const std::uint64_t frontier = next_window_ * window_;
  const std::uint64_t horizon = static_cast<std::uint64_t>(core_ + n_);
  const std::uint64_t settled = frontier > horizon ? frontier - horizon : 0;
  return pending_ ? std::min<std::uint64_t>(pending_->start_index, settled)
                  : settled;
}

std::size_t PreambleScanner::max_decision_lag(const OfdmParams& params) {
  const std::size_t n = params.symbol_samples();
  const std::size_t core = OfdmParams::kPreambleSymbols * n;
  const std::size_t bandpass = dsp::overlap_save_step(Preamble::kBandpassTaps) +
                               (Preamble::kBandpassTaps - 1) / 2;
  const std::size_t correlation = dsp::overlap_save_step(core);
  const std::size_t window = std::max<std::size_t>(n / 2, 1);
  const std::size_t confirmation = 2 * core + n + Preamble::kSlidingStep;
  return bandpass + correlation + window + confirmation;
}

double PreambleScanner::metric_at(std::uint64_t abs_index) const {
  // Below the ring means below anything a legitimate probe can reach
  // (trim_rings retains the full confirmation span including the fine
  // pass); the guard only turns a corner-case wild read into a 0.
  if (abs_index < filt_base_) return 0.0;
  return pre_->sliding_metric_at(
      filt_, static_cast<std::size_t>(abs_index - filt_base_));
}

void PreambleScanner::scan(std::span<const float> chunk,
                           std::vector<PreambleDetection>& out,
                           dsp::Workspace& ws) {
  consumed_ += chunk.size();

  // Bandpass each arriving sample exactly once. Dropping the first
  // group-delay outputs aligns the filtered ring with the raw timeline
  // (the filter_same convention), so detection
  // indices are raw-stream indices.
  conv_tmp_.clear();
  band_stream_.push(chunk, conv_tmp_, ws);
  std::span<const float> newf = conv_tmp_;
  if (conv_drop_ > 0) {
    const std::size_t d = std::min(conv_drop_, newf.size());
    newf = newf.subspan(d);
    conv_drop_ -= d;
  }
  // lint: alloc-ok(ring append; trim_rings() bounds the size, so capacity is reused after warm-up)
  filt_.insert(filt_.end(), newf.begin(), newf.end());

  // Correlate each filtered sample against the core template exactly once.
  // The causal convolution with the reversed template yields correlation
  // lag i at convolution index i + core - 1.
  corr_tmp_.clear();
  corr_stream_.push(newf, corr_tmp_, ws);
  std::span<const float> newc = corr_tmp_;
  if (corr_drop_ > 0) {
    const std::size_t d = std::min(corr_drop_, newc.size());
    newc = newc.subspan(d);
    corr_drop_ -= d;
  }
  // lint: alloc-ok(ring append; trim_rings() bounds the size, so capacity is reused after warm-up)
  corr_vals_.insert(corr_vals_.end(), newc.begin(), newc.end());

  advance(out);
}

void PreambleScanner::advance(std::vector<PreambleDetection>& out) {
  const std::uint64_t filt_end = filt_base_ + filt_.size();
  const std::uint64_t corr_end = corr_base_ + corr_vals_.size();

  // Extend the normalized-correlation ring. The running window energy is
  // updated lag by lag in absolute order (with absolute-grid re-sums) and
  // always accumulates in double — the recurrence's loud-then-quiet
  // cancellation would eat a float accumulator — so the value sequence
  // does not depend on chunk boundaries.
  while (next_lag_ < corr_end && next_lag_ + core_ <= filt_end) {
    const std::uint64_t i = next_lag_;
    if (i == 0 || i % kScannerEnergyReaccumulate == 0) {
      double acc = 0.0;
      const float* f = filt_.data() + (i - filt_base_);
      for (std::size_t j = 0; j < core_; ++j) {
        const double v = static_cast<double>(f[j]);
        acc += v * v;
      }
      energy_acc_ = acc;
    } else {
      // Ring offset of lag i-1; trim_rings() never trims past the oldest
      // lag the incremental update still touches.
      const std::size_t off =
          static_cast<std::size_t>(i - 1 - filt_base_);  // lint: pos-sub-ok(trim_rings keeps filt_base_ <= next_lag_ - 1; i >= 1 in this branch)
      const double head = static_cast<double>(filt_[off]);
      const double tail = static_cast<double>(filt_[off + core_]);
      energy_acc_ += tail * tail - head * head;
    }
    const double e = std::max(energy_acc_, 0.0);
    const double denom = std::sqrt(ref_energy_ * e);
    const double c = static_cast<double>(corr_vals_[static_cast<std::size_t>(
        i - corr_base_)]);  // lint: pos-sub-ok(trim_rings keeps corr_base_ <= next_lag_, and i == next_lag_)
    // lint: alloc-ok(ring append; trim_rings erase() retains capacity, so growth stops after warm-up)
    coarse_.push_back(static_cast<float>(denom > 1e-12 ? c / denom : 0.0));
    ++next_lag_;
  }

  // Decide candidate windows once their coarse values are complete and the
  // filtered ring covers every sliding-metric evaluation the confirmation
  // pass could perform — both bounds are absolute, never "what this push
  // happened to deliver".
  while (true) {
    const std::uint64_t lo = next_window_ * window_;
    const std::uint64_t hi = lo + window_;
    if (next_lag_ < hi) break;
    if (filt_end < hi - 1 + n_ + Preamble::kSlidingStep + core_ + 1) break;
    process_window(lo, hi, out);
    ++next_window_;
    // A confirmed detection is final once no later window's confirmation
    // range — candidate minus one symbol, minus the fine pass's extra
    // step — can still reach back into its merge span.
    if (pending_ && next_window_ * window_ > pending_->start_index + core_ +
                                                 n_ + Preamble::kSlidingStep) {
      // lint: alloc-ok(detections are rare events — at most one per received packet, not per sample)
      out.push_back(*pending_);
      pending_.reset();
    }
  }
  trim_rings();
}

void PreambleScanner::process_window(std::uint64_t lo, std::uint64_t hi,
                                     std::vector<PreambleDetection>& out) {
  // Best coarse value in the window (first maximum wins).
  std::uint64_t c = lo;
  // Ring offset of the window base; windows are decided in order, so
  // trim_rings() still retains every lag in [lo, hi).
  const std::size_t off =
      static_cast<std::size_t>(lo - coarse_base_);  // lint: pos-sub-ok(trim_rings keeps coarse_base_ <= next_window_ * window_ == lo)
  for (std::uint64_t i = lo + 1; i < hi; ++i) {
    if (coarse_[off + static_cast<std::size_t>(i - lo)] >
        coarse_[off + static_cast<std::size_t>(c - lo)]) {
      c = i;
    }
  }
  const double coarse_peak =
      static_cast<double>(coarse_[off + static_cast<std::size_t>(c - lo)]);
  if (coarse_peak <= Preamble::kCoarseThreshold) return;

  // Confirmation: sliding segment correlation around the candidate, step 8,
  // then a +/-step fine pass.
  const std::uint64_t s_lo = c > n_ ? c - n_ : 0;
  const std::uint64_t s_hi = c + n_;
  double best_metric = 0.0;
  std::uint64_t best_idx = s_lo;
  for (std::uint64_t i = s_lo; i < s_hi; i += Preamble::kSlidingStep) {
    const double m = metric_at(i);
    if (m > best_metric) {
      best_metric = m;
      best_idx = i;
    }
  }
  const std::uint64_t f_lo =
      best_idx > Preamble::kSlidingStep ? best_idx - Preamble::kSlidingStep : 0;
  const std::uint64_t f_hi = best_idx + Preamble::kSlidingStep + 1;
  for (std::uint64_t i = f_lo; i < f_hi; ++i) {
    const double m = metric_at(i);
    if (m > best_metric) {
      best_metric = m;
      best_idx = i;
    }
  }
  if (best_metric < Preamble::kSlidingThreshold) return;

  PreambleDetection det{static_cast<std::size_t>(best_idx), best_metric,
                        coarse_peak};
  if (pending_ && det.start_index <= pending_->start_index + core_) {
    // Same physical preamble (repeated-symbol structure correlates at
    // shifted alignments): keep the strongest confirmation.
    if (det.sliding_metric > pending_->sliding_metric) *pending_ = det;
    return;
  }
  // lint: alloc-ok(detections are rare events — at most one per received packet, not per sample)
  if (pending_) out.push_back(*pending_);
  pending_ = det;
}

void PreambleScanner::trim_rings() {
  // The filtered ring is still read at f[next_lag_ - 1] (energy recurrence)
  // and from (window lo - n - fine-pass step) on (confirmation passes).
  const std::uint64_t lag_back = next_lag_ > 0 ? next_lag_ - 1 : 0;
  const std::uint64_t win_lo = next_window_ * window_;
  const std::uint64_t reach = n_ + Preamble::kSlidingStep;
  const std::uint64_t scan_back = win_lo > reach ? win_lo - reach : 0;
  const std::uint64_t keep_f = std::min(lag_back, scan_back);
  if (keep_f > filt_base_ + kRingTrimSlack) {
    filt_.erase(filt_.begin(),
                filt_.begin() + static_cast<std::ptrdiff_t>(keep_f - filt_base_));
    filt_base_ = keep_f;
  }
  if (next_lag_ > corr_base_ + kRingTrimSlack) {
    corr_vals_.erase(
        corr_vals_.begin(),
        corr_vals_.begin() + static_cast<std::ptrdiff_t>(next_lag_ - corr_base_));
    corr_base_ = next_lag_;
  }
  if (win_lo > coarse_base_ + kRingTrimSlack) {
    coarse_.erase(
        coarse_.begin(),
        coarse_.begin() + static_cast<std::ptrdiff_t>(win_lo - coarse_base_));
    coarse_base_ = win_lo;
  }
}

}  // namespace aqua::phy
