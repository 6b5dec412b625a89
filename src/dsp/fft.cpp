#include "dsp/fft.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "dsp/plan_cache.h"
#include "dsp/simd.h"

namespace aqua::dsp {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Rounds a double-precision table value once into the plan's precision.
// Twiddles/chirps are always generated in double so the float plan's tables
// are the correctly-rounded narrowing of the double plan's (setup-time,
// explicit — not part of the sanctioned mic-boundary narrowing).
template <typename T>
std::complex<T> round_to(const cplx& v) {
  return {static_cast<T>(v.real()), static_cast<T>(v.imag())};
}

// A complex buffer viewed as its interleaved (re, im) pairs: the
// array-oriented access std::complex guarantees. The transforms run on
// pairs so the packed real FFT can hand them real buffers directly.
template <typename T>
std::span<const T> pairs(std::span<const std::complex<T>> c) {
  return {reinterpret_cast<const T*>(c.data()), 2 * c.size()};
}
template <typename T>
std::span<T> pairs(std::span<std::complex<T>> c) {
  return {reinterpret_cast<T*>(c.data()), 2 * c.size()};
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
BasicFftPlan<T>::BasicFftPlan(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("FftPlan: size must be >= 1");
  pow2_ = is_pow2(n);
  m_ = pow2_ ? n : next_pow2(2 * n - 1);

  // Bit-reversal permutation for the radix-2 work size.
  bitrev_.assign(m_, 0);
  std::size_t log2m = 0;
  while ((std::size_t{1} << log2m) < m_) ++log2m;
  for (std::size_t i = 0; i < m_; ++i) {
    std::uint32_t r = 0;
    for (std::size_t b = 0; b < log2m; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::uint32_t{1} << (log2m - 1 - b);
    }
    bitrev_[i] = r;
  }
  // Forward twiddles w_m^k = e^{-j 2 pi k / m} for k <= m/2, generated in
  // double, then flattened per stage so the butterfly kernel reads each
  // stage's factors contiguously: the stage with half-block h owns entries
  // [h-1, 2h-1) holding w_m^{k * (m/2h)} for k < h.
  std::vector<cplx> tw(m_ / 2 + 1);
  for (std::size_t k = 0; k <= m_ / 2; ++k) {
    const double a = -kTwoPi * static_cast<double>(k) / static_cast<double>(m_);
    tw[k] = {std::cos(a), std::sin(a)};
  }
  stage_tw_.resize(m_ - 1);
  for (std::size_t half = 1; half < m_; half <<= 1) {
    const std::size_t stride = m_ / (2 * half);
    for (std::size_t k = 0; k < half; ++k) {
      stage_tw_[half - 1 + k] = round_to<T>(tw[k * stride]);
    }
  }

  if (!pow2_) {
    // Bluestein chirp c[k] = e^{-j pi k^2 / n}. k^2 mod 2n keeps the argument
    // bounded and exact for large k.
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      const std::size_t k2 = (k * k) % (2 * n_);
      const double a = -kPi * static_cast<double>(k2) / static_cast<double>(n_);
      chirp_[k] = round_to<T>({std::cos(a), std::sin(a)});
    }
    // b[k] = conj(chirp[k]) arranged circularly, then FFT'd once.
    std::vector<C> b(m_, C{});
    b[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n_; ++k) {
      b[k] = std::conj(chirp_[k]);
      b[m_ - k] = std::conj(chirp_[k]);
    }
    radix2(pairs<T>(std::span<const C>(b)), pairs<T>(std::span<C>(b)),
           /*invert=*/false);
    chirp_fft_ = std::move(b);
  }
}

template <typename T>
void BasicFftPlan<T>::radix2(std::span<const T> in, std::span<T> out,
                             bool invert) const {
  // Must fail loudly in release builds too: transforming with a mismatched
  // plan would silently produce garbage spectra.
  if (in.size() != 2 * m_ || out.size() != 2 * m_) {
    // lint: throw-ok(caller-bug guard before the butterfly pass; never fires on well-formed input)
    throw std::invalid_argument("FftPlan: radix-2 work size mismatch");
  }
  // The bit-reversal permutation and every butterfly stage in one SIMD
  // kernel call: each stage's twiddles are contiguous in stage_tw_, and the
  // kernel's unfused multiply tree reproduces the historical std::complex
  // product bit for bit.
  simd::fft_pass(simd::active(), in.data(), out.data(), m_, bitrev_.data(),
                 stage_tw_.data(), invert);
}

template <typename T>
void BasicFftPlan<T>::transform(std::span<const T> in, std::span<T> out,
                                bool invert, Workspace& ws) const {
  if (in.size() != 2 * n_ || out.size() != 2 * n_) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  }
  if (pow2_) {
    radix2(in, out, invert);  // n_ == m_ here
    return;
  }
  // Bluestein: X[k] = conj-chirp convolution. For the inverse transform we
  // conjugate input and output of the forward machinery. The two work
  // buffers let both radix-2 passes gather out of place.
  Scratch<C> a_s(ws, m_);
  Scratch<C> b_s(ws, m_);
  std::span<C> a = a_s.span();
  std::span<C> b = b_s.span();
  for (std::size_t k = 0; k < n_; ++k) {
    const C x{in[2 * k], in[2 * k + 1]};
    a[k] = (invert ? std::conj(x) : x) * chirp_[k];
  }
  std::fill(a.begin() + static_cast<std::ptrdiff_t>(n_), a.end(), C{});
  radix2(pairs<T>(std::span<const C>(a)), pairs<T>(b), /*invert=*/false);
  simd::cmul_inplace(simd::active(), b.data(), chirp_fft_.data(), m_);
  radix2(pairs<T>(std::span<const C>(b)), pairs<T>(a), /*invert=*/true);
  const T scale = T(1.0) / static_cast<T>(m_);
  for (std::size_t k = 0; k < n_; ++k) {
    C y = a[k] * scale * chirp_[k];
    if (invert) y = std::conj(y);
    out[2 * k] = y.real();
    out[2 * k + 1] = y.imag();
  }
}

template <typename T>
void BasicFftPlan<T>::inverse_pairs(std::span<const T> in, std::span<T> out,
                                    Workspace& ws) const {
  transform(in, out, /*invert=*/true, ws);
  simd::scale(simd::active(), out.data(), out.size(),
              T(1.0) / static_cast<T>(n_));
}

template <typename T>
void BasicFftPlan<T>::forward(std::span<const C> in, std::span<C> out,
                              Workspace& ws) const {
  transform(pairs(in), pairs(out), /*invert=*/false, ws);
}

template <typename T>
void BasicFftPlan<T>::inverse(std::span<const C> in, std::span<C> out,
                              Workspace& ws) const {
  inverse_pairs(pairs(in), pairs(out), ws);
}

template <typename T>
BasicRfftPlan<T>::BasicRfftPlan(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("RfftPlan: size must be >= 1");
  if (n % 2 == 0 && n >= 2) {
    h_ = n / 2;
    half_ = &plan_of<T>(h_);
    // Untwiddle factors e^{-j 2 pi k / n} for k <= n/2.
    twiddle_.resize(h_ + 1);
    for (std::size_t k = 0; k <= h_; ++k) {
      const double a =
          -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      twiddle_[k] = round_to<T>({std::cos(a), std::sin(a)});
    }
  } else {
    // Odd sizes (and n == 1): the even/odd interleave does not apply; run
    // the full complex transform and keep only the packed bins.
    full_ = &plan_of<T>(n);
  }
}

template <typename T>
void BasicRfftPlan<T>::forward(std::span<const T> in, std::span<C> out,
                               Workspace& ws) const {
  if (in.size() != n_ || out.size() != spectrum_size()) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("RfftPlan: buffer size mismatch");
  }
  if (full_ != nullptr) {
    Scratch<C> spec_s(ws, n_);
    std::span<C> spec = spec_s.span();
    for (std::size_t i = 0; i < n_; ++i) spec[i] = {in[i], T(0.0)};
    full_->forward(spec, spec, ws);
    std::copy_n(spec.begin(), out.size(), out.begin());
    return;
  }
  // The real samples ARE the half-size complex signal z[k] = (x[2k],
  // x[2k+1]): the transform reads them as pairs, straight into its
  // bit-reversal gather. Then the untwiddle kernel splits Z into the
  // spectra of the even/odd sample streams (E = (Z_k + conj(Z_{h-k}))/2,
  // O = -j (Z_k - conj(Z_{h-k}))/2) and recombines X_k = E + W^k O with
  // W = e^{-j 2 pi / n}, in the exact tree of the inline std::complex
  // product without its NaN recovery branch (non-finite mic input is
  // zeroed at Modem::push).
  Scratch<C> zf_s(ws, h_);
  half_->transform(in, pairs(zf_s.span()), /*invert=*/false, ws);
  simd::rfft_untwiddle(simd::active(), zf_s->data(), out.data(),
                       twiddle_.data(), h_);
}

template <typename T>
void BasicRfftPlan<T>::inverse(std::span<const C> in, std::span<T> out,
                               Workspace& ws) const {
  if (in.size() != spectrum_size() || out.size() != n_) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("RfftPlan: buffer size mismatch");
  }
  if (full_ != nullptr) {
    Scratch<C> spec_s(ws, n_);
    std::span<C> spec = spec_s.span();
    spec[0] = in[0];
    for (std::size_t k = 1; k <= n_ / 2; ++k) {
      spec[k] = in[k];
      spec[n_ - k] = std::conj(in[k]);
    }
    full_->inverse(spec, spec, ws);
    for (std::size_t i = 0; i < n_; ++i) out[i] = spec[i].real();
    return;
  }
  // Exact inverse of the forward untwiddle (E = (X_k + conj(X_{h-k}))/2,
  // W^k O = (X_k - conj(X_{h-k}))/2, Z_k = E + j conj(W^k) (W^k O)); the
  // half-size inverse then writes its pairs straight into the real output,
  // which un-interleaves the samples.
  Scratch<C> zf_s(ws, h_);
  simd::irfft_untwiddle(simd::active(), in.data(), zf_s->data(),
                        twiddle_.data(), h_);
  half_->inverse_pairs(pairs(std::span<const C>(zf_s.span())), out, ws);
}

template class BasicFftPlan<double>;
template class BasicFftPlan<float>;
template class BasicRfftPlan<double>;
template class BasicRfftPlan<float>;

template <typename T>
const BasicFftPlan<T>& plan_of(std::size_t n) {
  return cached_plan_of<BasicFftPlan<T>>(n);
}

template <typename T>
const BasicRfftPlan<T>& rplan_of(std::size_t n) {
  return cached_plan_of<BasicRfftPlan<T>>(n);
}

template const BasicFftPlan<double>& plan_of<double>(std::size_t);
template const BasicFftPlan<float>& plan_of<float>(std::size_t);
template const BasicRfftPlan<double>& rplan_of<double>(std::size_t);
template const BasicRfftPlan<float>& rplan_of<float>(std::size_t);

std::vector<cplx> fft(std::span<const cplx> x) {
  std::vector<cplx> out(x.size());
  Workspace ws;
  plan_of(x.size()).forward(x, out, ws);
  return out;
}

std::vector<cplx> ifft(std::span<const cplx> x) {
  std::vector<cplx> out(x.size());
  Workspace ws;
  plan_of(x.size()).inverse(x, out, ws);
  return out;
}

void fft_into(std::span<const cplx> x, std::span<cplx> out, Workspace& ws) {
  plan_of(x.size()).forward(x, out, ws);
}

void ifft_into(std::span<const cplx> x, std::span<cplx> out, Workspace& ws) {
  plan_of(x.size()).inverse(x, out, ws);
}

std::vector<cplx> rfft(std::span<const double> x) {
  const RfftPlan& plan = rplan_of(x.size());
  std::vector<cplx> out(plan.spectrum_size());
  Workspace ws;
  plan.forward(x, out, ws);
  return out;
}

void rfft_into(std::span<const double> x, std::span<cplx> out, Workspace& ws) {
  rplan_of(x.size()).forward(x, out, ws);
}

void rfft_into(std::span<const float> x, std::span<cplxf> out, Workspace& ws) {
  rplan_of<float>(x.size()).forward(x, out, ws);
}

std::vector<double> irfft(std::span<const cplx> spec, std::size_t n) {
  std::vector<double> out(n);
  Workspace ws;
  rplan_of(n).inverse(spec, out, ws);
  return out;
}

void irfft_into(std::span<const cplx> spec, std::span<double> out,
                Workspace& ws) {
  rplan_of(out.size()).inverse(spec, out, ws);
}

void irfft_into(std::span<const cplxf> spec, std::span<float> out,
                Workspace& ws) {
  rplan_of<float>(out.size()).inverse(spec, out, ws);
}

std::vector<cplx> fft_real(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  const RfftPlan& plan = rplan_of(n);
  Workspace ws;
  plan.forward(x, std::span<cplx>(out).first(plan.spectrum_size()), ws);
  // Mirror the packed bins into the redundant upper half.
  for (std::size_t k = n / 2 + 1; k < n; ++k) out[k] = std::conj(out[n - k]);
  return out;
}

std::vector<double> ifft_real(std::span<const cplx> x) {
  const std::size_t n = x.size();
  std::vector<double> out(n);
  // The legacy contract takes the real part of the full inverse, which
  // silently drops any imaginary residue on the DC/Nyquist bins (their
  // phasors are real, so imaginary parts contribute nothing real). The
  // packed inverse instead ASSUMES those bins are real, so force them —
  // design_from_magnitude's linear-phase Nyquist bin is purely imaginary
  // and relies on being dropped.
  std::vector<cplx> half(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(
                                        n / 2 + 1));
  half[0] = {half[0].real(), 0.0};
  if (n % 2 == 0 && n >= 2) half[n / 2] = {half[n / 2].real(), 0.0};
  Workspace ws;
  rplan_of(n).inverse(half, out, ws);
  return out;
}

}  // namespace aqua::dsp
