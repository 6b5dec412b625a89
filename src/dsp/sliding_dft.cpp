#include "dsp/sliding_dft.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/plan_cache.h"
#include "dsp/simd.h"
#include "dsp/types.h"

namespace aqua::dsp {

namespace {

// Re-accumulate the running sums from scratch at every multiple of this
// many window starts. Bounds the rounding drift of the O(1) update at
// ~interval * eps * |x|max while adding less than one flop per output
// sample.
constexpr std::size_t kReaccumulateInterval = 4096;

constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();

}  // namespace

void moving_dft_power(std::span<const float> x, std::size_t window,
                      std::size_t first_bin, std::size_t num_bins,
                      const PowerGrid& grid, std::span<float> out,
                      Workspace& ws) {
  if (window == 0 || x.size() < window) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: window exceeds signal");
  }
  if (first_bin + num_bins > window) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: bins exceed window");
  }
  if (grid.step == 0 || grid.repeats == 0) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: empty grid step");
  }
  if (out.size() != grid.starts * grid.repeats * num_bins) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: output size mismatch");
  }
  if (grid.starts == 0 || num_bins == 0) return;
  const std::size_t count = x.size() - window + 1;
  if ((grid.starts - 1) * grid.step + (grid.repeats - 1) * grid.hop >=
      count) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: grid exceeds signal");
  }

  const SdftPhasors& tab = sdft_phasors(window, first_bin, num_bins);
  // Running sums S_b(s), split-complex: real parts, then imaginary parts.
  const std::size_t width = 2 * num_bins;
  Scratch<float> acc_s(ws, width);
  float* acc = acc_s->data();

  // Seed every bin at window start `s` from ONE packed real transform of
  // the window (bins above window/2 are the conjugate mirror), rotated by
  // the window-start phase e^{-j 2 pi b s / window} the running sum
  // carries — row s mod window of the table.
  Scratch<cplxf> spec_s(ws, window / 2 + 1);
  std::span<cplxf> spec = spec_s.span();
  const auto seed = [&](std::size_t s) {
    rfft_into(x.subspan(s, window), spec, ws);
    const float* rot = tab.row(s % window);
    for (std::size_t k = 0; k < num_bins; ++k) {
      const std::size_t b = first_bin + k;
      const cplxf z =
          b <= window / 2 ? spec[b] : std::conj(spec[window - b]);
      const cplxf w{rot[k], rot[num_bins + k]};
      const cplxf a = z * w;
      acc[k] = a.real();
      acc[num_bins + k] = a.imag();
    }
  };
  // Slides the sums from start `at` to start `to`. The step to start s
  // removes x[s-1] and appends x[s-1+window]; both terms share phasor row
  // (s-1) mod window, so a run of steps streams consecutive rows and is cut
  // only where the row index `phase` (at mod window) wraps.
  const simd::Kernels& kern = simd::active();
  std::size_t at = kNoRow;  // the start the sums currently hold
  std::size_t phase = 0;
  const auto slide = [&](std::size_t to) {
    while (at < to) {
      const std::size_t run = std::min(to - at, window - phase);
      kern.sdft_update_f(acc, tab.row(phase), x.data() + at,
                         x.data() + at + window, run, width);
      at += run;
      phase += run;
      if (phase == window) phase = 0;
    }
  };

  // The grid's rows in start order: a merge of the repeats' progressions
  // r * hop + j * step, each with a cursor at its next search position j.
  if (grid.starts > std::numeric_limits<std::uint32_t>::max()) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: grid too long");
  }
  ScratchU32 next_s(ws, grid.repeats);
  std::span<std::uint32_t> next = next_s.span();
  std::fill(next.begin(), next.end(), 0u);
  for (;;) {
    std::size_t s = kNoRow;
    for (std::size_t r = 0; r < grid.repeats; ++r) {
      if (next[r] < grid.starts) {
        s = std::min(s, r * grid.hop + next[r] * grid.step);
      }
    }
    if (s == kNoRow) break;
    // The sums are re-seeded at every multiple of the interval, so their
    // value at s depends only on the last such multiple: slides that no
    // row reads before it are skipped.
    const std::size_t anchor = s - s % kReaccumulateInterval;
    if (at == kNoRow || at < anchor) {
      seed(anchor);
      at = anchor;
      phase = anchor % window;
    }
    slide(s);
    // Every (j, r) whose start is s gets the same row.
    const float* written = nullptr;
    for (std::size_t r = 0; r < grid.repeats; ++r) {
      if (next[r] >= grid.starts || r * grid.hop + next[r] * grid.step != s) {
        continue;
      }
      float* row = out.data() + (next[r] * grid.repeats + r) * num_bins;
      ++next[r];
      if (written != nullptr) {
        std::copy(written, written + num_bins, row);
        continue;
      }
      for (std::size_t k = 0; k < num_bins; ++k) {
        row[k] = acc[k] * acc[k] + acc[num_bins + k] * acc[num_bins + k];
      }
      written = row;
    }
  }
}

std::size_t SdftPhasors::KeyHash::operator()(const Key& k) const {
  std::size_t h = k.window;
  h = h * 1000003u ^ k.first_bin;
  return h * 1000003u ^ k.num_bins;
}

SdftPhasors::SdftPhasors(const Key& k)
    : key(k), values(k.window * 2 * k.num_bins) {
  // Each entry comes from its integer phase p = (b * m) mod window, so
  // phase never drifts; evaluated in double, rounded once to float.
  std::vector<double> cos_p(k.window), sin_p(k.window);
  for (std::size_t p = 0; p < k.window; ++p) {
    const double a =
        -kTwoPi * static_cast<double>(p) / static_cast<double>(k.window);
    cos_p[p] = std::cos(a);
    sin_p[p] = std::sin(a);
  }
  for (std::size_t m = 0; m < k.window; ++m) {
    float* r = values.data() + m * 2 * k.num_bins;
    for (std::size_t i = 0; i < k.num_bins; ++i) {
      const std::size_t p = ((k.first_bin + i) * m) % k.window;
      r[i] = static_cast<float>(cos_p[p]);
      r[k.num_bins + i] = static_cast<float>(sin_p[p]);
    }
  }
}

const SdftPhasors& sdft_phasors(std::size_t window, std::size_t first_bin,
                                std::size_t num_bins) {
  return cached_plan_of<SdftPhasors, SdftPhasors::Key, SdftPhasors::KeyHash>(
      SdftPhasors::Key{window, first_bin, num_bins});
}

}  // namespace aqua::dsp
