#include "dsp/correlate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fir.h"
#include "dsp/simd.h"

namespace aqua::dsp {

namespace {

// Re-accumulate the running window sum this often (in output samples). A
// loud leading segment otherwise leaves O(eps * peak_energy * steps)
// residue in the running sum, which dwarfs the true energy of later quiet
// windows (catastrophic cancellation); periodic direct re-summation resets
// that drift at < 1 extra flop per output for any window length.
constexpr std::size_t kEnergyReaccumulate = 4096;

}  // namespace

namespace {

// Valid-region correlation by the direct loop — below the one-shot
// threshold the FftFilter construction (kernel copy + FFT + plan lookup)
// inside CrossCorrelator would dominate a single call. Each lag is one
// contiguous window dot through the dispatched SIMD kernel.
std::vector<double> direct_cross_correlate(std::span<const double> x,
                                           std::span<const double> ref) {
  std::vector<double> out(x.size() - ref.size() + 1);
  const auto dot = simd::active().dot;
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = dot(x.data() + s, ref.data(), ref.size());
  }
  return out;
}

}  // namespace

std::vector<double> cross_correlate(std::span<const double> x,
                                    std::span<const double> ref) {
  if (ref.empty() || x.size() < ref.size()) return {};
  if (x.size() * ref.size() <= kOneShotDirectConvOpsThreshold) {
    return direct_cross_correlate(x, ref);
  }
  CrossCorrelator corr(std::vector<double>(ref.begin(), ref.end()));
  std::vector<double> out(corr.output_length(x.size()));
  Workspace ws;
  corr.correlate_into(x, out, ws);
  return out;
}

std::vector<double> normalized_cross_correlate(std::span<const double> x,
                                               std::span<const double> ref) {
  if (ref.empty() || x.size() < ref.size()) return {};
  if (x.size() * ref.size() <= kOneShotDirectConvOpsThreshold) {
    std::vector<double> out = direct_cross_correlate(x, ref);
    std::vector<double> win_energy(out.size());
    sliding_energy_into<double>(x, ref.size(), win_energy);
    const double ref_energy = energy(ref);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double denom = std::sqrt(ref_energy * win_energy[i]);
      out[i] = denom > 1e-12 ? out[i] / denom : 0.0;
    }
    return out;
  }
  CrossCorrelator corr(std::vector<double>(ref.begin(), ref.end()));
  Workspace ws;
  return corr.normalized(x, ws);
}

std::size_t argmax(std::span<const double> x) {
  if (x.empty()) return 0;
  return static_cast<std::size_t>(
      std::distance(x.begin(), std::max_element(x.begin(), x.end())));
}

template <typename T>
void sliding_energy_into(std::span<const T> x, std::size_t win,
                         std::span<T> out) {
  if (win == 0 || x.size() < win) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("sliding_energy: window exceeds signal");
  }
  if (out.size() != x.size() - win + 1) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("sliding_energy: output size mismatch");
  }
  // The accumulator stays double for every sample type: a float recurrence
  // over a loud-then-quiet capture cancels to pure rounding noise.
  const auto direct = [&](std::size_t i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < win; ++j) {
      const double v = static_cast<double>(x[i + j]);
      acc += v * v;
    }
    return acc;
  };
  double acc = direct(0);
  out[0] = static_cast<T>(acc);
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (i % kEnergyReaccumulate == 0) {
      acc = direct(i);
    } else {
      const double incoming = static_cast<double>(x[i + win - 1]);
      const double outgoing = static_cast<double>(x[i - 1]);
      acc += incoming * incoming - outgoing * outgoing;
    }
    out[i] = static_cast<T>(std::max(acc, 0.0));
  }
}

template void sliding_energy_into<double>(std::span<const double>, std::size_t,
                                          std::span<double>);
template void sliding_energy_into<float>(std::span<const float>, std::size_t,
                                         std::span<float>);

std::vector<double> sliding_energy(std::span<const double> x, std::size_t win) {
  if (win == 0 || x.size() < win) return {};
  std::vector<double> out(x.size() - win + 1);
  sliding_energy_into<double>(x, win, out);
  return out;
}

namespace {

template <typename T>
std::vector<T> reversed_template(std::vector<T> ref) {
  if (ref.empty()) {
    throw std::invalid_argument("CrossCorrelator: empty template");
  }
  std::reverse(ref.begin(), ref.end());
  return ref;
}

}  // namespace

template <typename T>
BasicCrossCorrelator<T>::BasicCrossCorrelator(std::vector<T> ref)
    : ref_size_(ref.size()),
      ref_energy_(energy(std::span<const T>(ref))),
      conv_(reversed_template(std::move(ref))) {}

template <typename T>
void BasicCrossCorrelator<T>::correlate_into(std::span<const T> x,
                                             std::span<T> out,
                                             Workspace& ws) const {
  if (out.size() != output_length(x.size())) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("CrossCorrelator: output size mismatch");
  }
  if (out.empty()) return;
  // Correlation == convolution with the time-reversed template; the valid
  // region of the full convolution starts at ref_size - 1.
  Scratch<T> full_s(ws, x.size() + ref_size_ - 1);
  conv_.convolve_into(x, full_s.span(), ws);
  std::copy_n(full_s->begin() + static_cast<std::ptrdiff_t>(ref_size_ - 1),
              out.size(), out.begin());
}

template <typename T>
void BasicCrossCorrelator<T>::normalized_into(std::span<const T> x,
                                              std::span<T> out,
                                              Workspace& ws) const {
  correlate_into(x, out, ws);
  if (out.empty()) return;
  Scratch<T> energy_s(ws, out.size());
  sliding_energy_into<T>(x, ref_size_, energy_s.span());
  const std::vector<T>& win_energy = *energy_s;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double denom =
        std::sqrt(ref_energy_ * static_cast<double>(win_energy[i]));
    out[i] = denom > 1e-12 ? static_cast<T>(out[i] / denom) : T(0.0);
  }
}

template <typename T>
std::vector<T> BasicCrossCorrelator<T>::normalized(std::span<const T> x,
                                                   Workspace& ws) const {
  // lint: alloc-ok(allocating convenience wrapper; hot paths use normalized_into)
  std::vector<T> out(output_length(x.size()));
  normalized_into(x, out, ws);
  return out;
}

template class BasicCrossCorrelator<double>;
template class BasicCrossCorrelator<float>;

}  // namespace aqua::dsp
