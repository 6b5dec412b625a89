#include "dsp/fft_filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/simd.h"

namespace aqua::dsp {

namespace {

// Estimated cost per valid output sample of one overlap-save block of FFT
// size m for an M-tap kernel: two m-point transforms amortized over
// m - M + 1 outputs. Always evaluated in double — the block choice must not
// depend on the engine's sample type.
double block_cost(std::size_t m, std::size_t taps) {
  const double logm = std::log2(static_cast<double>(m));
  return 2.0 * static_cast<double>(m) * logm /
         static_cast<double>(m - taps + 1);
}

// Cost-minimizing power-of-two block size for an M-tap kernel, subject to
// the block's valid-output count (m - taps + 1) not exceeding `max_step`.
// The smallest candidate is always allowed: a kernel longer than max_step
// has no conforming block at all, so latency degrades gracefully instead
// of construction failing.
std::size_t choose_block(std::size_t taps, std::size_t max_step) {
  std::size_t best = std::max<std::size_t>(next_pow2(2 * taps), 64);
  double best_cost = block_cost(best, taps);
  for (std::size_t m = best * 2; m <= best * 16; m *= 2) {
    if (m - taps + 1 > max_step) break;
    const double c = block_cost(m, taps);
    if (c < best_cost) {
      best_cost = c;
      best = m;
    }
  }
  return best;
}

}  // namespace

std::size_t overlap_save_step(std::size_t taps, std::size_t max_step) {
  return choose_block(taps, max_step) - taps + 1;
}

template <typename T>
BasicFftFilter<T>::BasicFftFilter(std::vector<T> kernel, std::size_t max_step)
    : kernel_(std::move(kernel)) {
  if (kernel_.empty()) {
    throw std::invalid_argument("FftFilter: empty kernel");
  }
  const std::size_t taps = kernel_.size();
  m_ = choose_block(taps, max_step);
  step_ = m_ - taps + 1;
  plan_ = &rplan_of<T>(m_);

  std::vector<T> k(m_, T(0.0));
  std::copy(kernel_.begin(), kernel_.end(), k.begin());
  kernel_fft_.resize(plan_->spectrum_size());
  Workspace ws;
  plan_->forward(k, kernel_fft_, ws);
}

template <typename T>
void BasicFftFilter<T>::convolve_into(std::span<const T> x, std::span<T> out,
                                      Workspace& ws) const {
  const std::size_t taps = kernel_.size();
  if (x.empty()) {
    // Convolving nothing yields nothing (matching convolve()); a non-empty
    // out here means the caller sized its buffer for a different signal.
    if (!out.empty()) {
      // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
      throw std::invalid_argument("FftFilter: output size mismatch");
    }
    return;
  }
  const std::size_t out_len = x.size() + taps - 1;
  if (out.size() != out_len) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("FftFilter: output size mismatch");
  }

  if (x.size() * taps <= kDirectConvOpsThreshold) {
    std::fill(out.begin(), out.end(), T(0.0));
    for (std::size_t i = 0; i < x.size(); ++i) {
      const T xi = x[i];
      if (xi == T(0.0)) continue;
      for (std::size_t j = 0; j < taps; ++j) out[i + j] += xi * kernel_[j];
    }
    return;
  }

  // Overlap-save over the zero-extended input: block b produces outputs
  // [b*step, b*step + step) of the full convolution from the input segment
  // starting at b*step - (taps - 1). Real signal, real kernel: each block
  // is one packed forward transform, a half-spectrum product through the
  // dispatched SIMD kernel, and one packed inverse.
  Scratch<T> seg_s(ws, m_);
  Scratch<C> spec_s(ws, plan_->spectrum_size());
  std::span<T> seg = seg_s.span();
  std::span<C> spec = spec_s.span();
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x.size());
  for (std::size_t base = 0; base < out_len; base += step_) {
    const std::ptrdiff_t seg_start = static_cast<std::ptrdiff_t>(base) -
                                     static_cast<std::ptrdiff_t>(taps - 1);
    for (std::size_t j = 0; j < m_; ++j) {
      const std::ptrdiff_t idx = seg_start + static_cast<std::ptrdiff_t>(j);
      seg[j] =
          (idx >= 0 && idx < nx) ? x[static_cast<std::size_t>(idx)] : T(0.0);
    }
    plan_->forward(seg, spec, ws);
    simd::cmul_inplace(simd::active(), spec.data(), kernel_fft_.data(),
                       spec.size());
    plan_->inverse(spec, seg, ws);
    const std::size_t count = std::min(step_, out_len - base);
    for (std::size_t j = 0; j < count; ++j) {
      out[base + j] = seg[taps - 1 + j];
    }
  }
}

template <typename T>
std::vector<T> BasicFftFilter<T>::convolve(std::span<const T> x,
                                           Workspace& ws) const {
  // lint: alloc-ok(allocating convenience wrapper; hot paths use convolve_into)
  std::vector<T> out(output_length(x.size()));
  if (!out.empty()) convolve_into(x, out, ws);
  return out;
}

template <typename T>
void BasicFftFilter<T>::filter_same_into(std::span<const T> x,
                                         std::span<T> out,
                                         Workspace& ws) const {
  if (out.size() != x.size()) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("FftFilter: filter_same size mismatch");
  }
  if (x.empty()) return;
  const std::size_t delay = (kernel_.size() - 1) / 2;
  Scratch<T> full_s(ws, x.size() + kernel_.size() - 1);
  convolve_into(x, full_s.span(), ws);
  std::copy_n(full_s->begin() + static_cast<std::ptrdiff_t>(delay), x.size(),
              out.begin());
}

template <typename T>
std::vector<T> BasicFftFilter<T>::filter_same(std::span<const T> x,
                                              Workspace& ws) const {
  // lint: alloc-ok(allocating convenience wrapper; hot paths use filter_same_into)
  std::vector<T> out(x.size());
  filter_same_into(x, out, ws);
  return out;
}

template <typename T>
BasicFftFilter<T>::Stream::Stream(const BasicFftFilter& filter,
                                  std::size_t max_step)
    : filter_(&filter) {
  const std::size_t taps = filter.kernel_size();
  m_ = filter.fft_size() - taps + 1 <= max_step
           ? filter.fft_size()
           : choose_block(taps, max_step);
  step_ = m_ - taps + 1;
  plan_ = &rplan_of<T>(m_);
  if (m_ != filter.fft_size()) {
    std::vector<T> k(m_, T(0.0));
    std::copy(filter.kernel().begin(), filter.kernel().end(), k.begin());
    own_kernel_fft_.resize(plan_->spectrum_size());
    Workspace ws;
    plan_->forward(k, own_kernel_fft_, ws);
  }
  pending_.assign(taps - 1, T(0.0));  // zero prehistory: causal convolution
}

template <typename T>
void BasicFftFilter<T>::Stream::reset() {
  pending_.assign(filter_->kernel_size() - 1, T(0.0));
  consumed_ = 0;
  produced_ = 0;
}

template <typename T>
std::size_t BasicFftFilter<T>::Stream::push(std::span<const T> x,
                                            std::vector<T>& out,
                                            Workspace& ws) {
  const std::size_t taps = filter_->kernel_size();
  consumed_ += x.size();
  // lint: alloc-ok(stream ring append; erase() retains capacity, so growth stops after warm-up)
  pending_.insert(pending_.end(), x.begin(), x.end());
  if (pending_.size() < m_) return 0;

  const std::span<const C> kfft =
      own_kernel_fft_.empty() ? std::span<const C>(filter_->kernel_fft_)
                              : std::span<const C>(own_kernel_fft_);
  Scratch<T> seg_s(ws, m_);
  Scratch<C> spec_s(ws, plan_->spectrum_size());
  std::span<T> seg = seg_s.span();
  std::span<C> spec = spec_s.span();
  std::size_t emitted = 0;
  std::size_t head = 0;
  // One overlap-save block per `step_` buffered samples: block b transforms
  // the absolute input window [b*step - (taps-1), b*step + step) and emits
  // outputs [b*step, (b+1)*step) of the causal convolution. The window is a
  // pure function of the absolute position, which is what makes the output
  // chunking-invariant. An all-zero window convolves to exact zeros, so it
  // skips the transforms (emitting +0.0 where the FFT may give -0.0).
  while (pending_.size() - head >= m_) {
    const std::span<const T> window(pending_.data() + head, m_);
    if (std::all_of(window.begin(), window.end(),
                    [](T v) { return v == T(0.0); })) {
      std::fill_n(seg.begin() + static_cast<std::ptrdiff_t>(taps - 1), step_,
                  T(0.0));
    } else {
      // The forward transform reads the window in place (at any element
      // offset); only the inverse needs the scratch block.
      plan_->forward(window, spec, ws);
      simd::cmul_inplace(simd::active(), spec.data(), kfft.data(),
                         spec.size());
      plan_->inverse(spec, seg, ws);
    }
    const auto valid = seg.begin() + static_cast<std::ptrdiff_t>(taps - 1);
    out.insert(out.end(), valid, valid + static_cast<std::ptrdiff_t>(step_));  // lint: alloc-ok(caller-owned output; capacity amortizes across pushes)
    emitted += step_;
    head += step_;
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(head));
  produced_ += emitted;
  return emitted;
}

template class BasicFftFilter<double>;
template class BasicFftFilter<float>;

}  // namespace aqua::dsp
