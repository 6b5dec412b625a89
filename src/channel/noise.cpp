#include "channel/noise.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fir.h"

namespace aqua::channel {

namespace {

// Bound on the shaping stream's block: the 512-tap filter then runs
// 2048-point transforms (1537 outputs each), which cost the same per
// output as 4096 points and hold under half the memory per generator.
constexpr std::size_t kShapingMaxStep = 2048;

}  // namespace

NoiseRng::NoiseRng(std::uint64_t seed) {
  // std::mersenne_twister_engine::seed with mt19937_64's initialization
  // multiplier.
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

// One full twist of the state (libstdc++'s _M_gen_rand with the branch on
// the low bit spelled as a mask), then every word tempered for hand-out.
void NoiseRng::refill() {
  constexpr std::size_t kShift = 156;  // mt19937_64's m
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
  const auto twist = [](std::uint64_t cur, std::uint64_t next,
                        std::uint64_t far) {
    const std::uint64_t y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  };
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kStateWords - kShift; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift]);
  }
  for (std::size_t k = kStateWords - kShift; k < kStateWords - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift - kStateWords]);
  }
  x[kStateWords - 1] =
      twist(x[kStateWords - 1], x[0], x[kShift - 1]);
  for (std::size_t k = 0; k < kStateWords; ++k) {
    std::uint64_t z = x[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    words_[k] = z;
  }
  pos_ = 0;
}

double NoiseRng::uniform_of(std::uint64_t word) {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(word >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(word));
  const double u = (hi * 0x1p32 + lo) * 0x1p-64;
  return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
}

std::uint64_t NoiseRng::uniform_threshold(double p) {
  // Binary search for the first word at or above p; the last word's
  // uniform_of() is nextafter(1, 0), which no p < 1 exceeds.
  std::uint64_t lo = 0;
  std::uint64_t hi = ~std::uint64_t{0};
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (uniform_of(mid) >= p) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

double NoiseRng::normal() {
  if (has_saved_normal_) {
    has_saved_normal_ = false;
    return saved_normal_;
  }
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * uniform() - 1.0;
    y = 2.0 * uniform() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
  saved_normal_ = x * mult;
  has_saved_normal_ = true;
  return y * mult;
}

double noise_floor_rms(const NoiseParams& p) {
  return p.reference_rms * dsp::db_to_amplitude(p.level_db);
}

std::vector<double> NoiseGenerator::design_shaping_filter(
    const NoiseParams& p, double fs) {
  // Frequency-sampled magnitude: low-frequency bump below the knee,
  // gentle decay to the tail cutoff, near-zero above.
  const std::size_t n = 512;
  std::vector<double> mag(n / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double f = static_cast<double>(k) * fs / static_cast<double>(n);
    const double knee = p.knee_hz;
    // Smooth low-frequency boost that fades across the knee.
    const double bump_db =
        p.low_freq_boost_db / (1.0 + std::pow(f / knee, 3.0));
    // Tail roll-off toward the cutoff.
    double tail_db = 0.0;
    if (f > knee) {
      tail_db = -10.0 * (f - knee) / std::max(p.tail_cutoff_hz - knee, 1.0);
    }
    if (f > p.tail_cutoff_hz) {
      tail_db -= 30.0 * (f - p.tail_cutoff_hz) / 1000.0;
    }
    mag[k] = std::pow(10.0, (bump_db + tail_db) / 20.0);
  }
  mag[0] *= 0.2;  // keep DC bounded
  return dsp::design_from_magnitude(mag, n);
}

NoiseGenerator::NoiseGenerator(const NoiseParams& params,
                               double sample_rate_hz, std::uint64_t seed)
    : params_(params),
      sample_rate_hz_(sample_rate_hz),
      rng_(seed),
      burst_rng_(seed * 0x9E3779B97F4A7C15ULL + 0x6A09E667F3BCC909ULL),
      shaping_(std::make_unique<const dsp::FftFilter>(
          design_shaping_filter(params, sample_rate_hz), kShapingMaxStep)),
      stream_(*shaping_),
      wander_(0.13 / sample_rate_hz, 0.0) {
  if (params_.bubble_rate_hz > 0.0) {
    const double p_burst = params_.bubble_rate_hz * (1.0 / sample_rate_hz_);
    if (!(p_burst < 1.0)) {
      throw std::invalid_argument(
          "NoiseGenerator: bubble_rate_hz must be below the sample rate");
    }
    burst_threshold_ = NoiseRng::uniform_threshold(p_burst);
  }
  for (std::size_t j = 0; j < params_.boat_tones_hz.size(); ++j) {
    tones_.emplace_back(params_.boat_tones_hz[j] / sample_rate_hz_,
                        0.7 * static_cast<double>(j));
  }
  // Calibrate the shaped floor RMS empirically once (deterministic warmup
  // with a private RNG so the stream itself is unaffected).
  NoiseRng warm_rng(seed ^ 0xABCDEF);
  std::vector<double> white(8192);
  for (double& v : white) v = warm_rng.normal();
  dsp::Workspace ws;
  const std::vector<double> shaped = shaping_->convolve(white, ws);
  const double raw_rms =
      dsp::rms(std::span<const double>(shaped).first(white.size()));
  const double target = noise_floor_rms(params_);
  floor_rms_ = target;
  gain_ = raw_rms > 0.0 ? target / raw_rms : 0.0;
}

double NoiseGenerator::psd_one_sided(double freq_hz) const {
  const double mag =
      std::abs(dsp::fir_response(shaping_taps(), freq_hz, sample_rate_hz_));
  return 2.0 / sample_rate_hz_ * gain_ * gain_ * mag * mag;
}

std::vector<double> NoiseGenerator::generate(std::size_t n) {
  std::vector<double> out(n);
  dsp::Workspace ws;
  generate(out, ws);
  return out;
}

void NoiseGenerator::generate(std::span<double> out, dsp::Workspace& ws) {
  std::size_t i = 0;
  while (i < out.size()) {
    if (served_ == shaped_.size()) {
      // Shape the next block: one push of step() normals completes
      // exactly one overlap-save block.
      dsp::ScratchReal white(ws, stream_.step());
      for (double& v : white.span()) v = rng_.normal();
      shaped_.clear();
      stream_.push(white.span(), shaped_, ws);
      served_ = 0;
    }
    const std::size_t take =
        std::min(out.size() - i, shaped_.size() - served_);
    for (std::size_t j = 0; j < take; ++j) {
      out[i + j] = gain_ * shaped_[served_ + j];
    }
    served_ += take;
    i += take;
  }
  if (params_.bubble_rate_hz > 0.0) add_bursts(out);
  if (!tones_.empty()) add_tones(out);
  sample_ += out.size();
}

void NoiseGenerator::add_bursts(std::span<double> out) {
  // Impulsive bubble bursts: Poisson arrivals, exponentially decaying
  // envelopes of white noise (spiky, which is what stresses plain
  // cross-correlation detection in the paper). An arrival is one uniform
  // draw below bubble_rate_hz * dt, decided on its word.
  const double dt = 1.0 / sample_rate_hz_;
  const double burst_decay = std::exp(-dt / 0.008);  // per-sample envelope
  for (double& v : out) {
    if (burst_rng_.next() < burst_threshold_) {
      burst_remaining_ = 0.02 + 0.03 * burst_rng_.uniform();
      burst_env_ = params_.bubble_gain * floor_rms_;
    }
    if (burst_remaining_ > 0.0) {
      v += burst_env_ * burst_rng_.normal();
      burst_env_ *= burst_decay;
      burst_remaining_ -= dt;
    }
  }
}

NoiseGenerator::Rotor::Rotor(double cycles, double phase0)
    : cycles_per_sample(cycles),
      phase(phase0),
      step_re(std::cos(dsp::kTwoPi * cycles)),
      step_im(std::sin(dsp::kTwoPi * cycles)) {}

void NoiseGenerator::Rotor::anchor(std::uint64_t k) {
  // The exact phase at k, reduced to whole cycles before it meets sin/cos.
  const double cycles = cycles_per_sample * static_cast<double>(k);
  const double theta = dsp::kTwoPi * (cycles - std::floor(cycles)) + phase;
  re = std::cos(theta);
  im = std::sin(theta);
}

void NoiseGenerator::add_tones(std::span<double> out) {
  // Boat machinery tones with slow random amplitude wander.
  const double scale = params_.boat_tone_gain * floor_rms_ /
                       static_cast<double>(tones_.size());
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t k = sample_ + i;
    const std::uint64_t into = k % kToneAnchorSamples;
    if (into == 0) {
      for (Rotor& r : tones_) r.anchor(k);
      wander_.anchor(k);
    }
    const std::size_t end = std::min<std::size_t>(
        out.size(), i + static_cast<std::size_t>(kToneAnchorSamples - into));
    for (; i < end; ++i) {
      double tone_sum = 0.0;
      for (Rotor& r : tones_) {
        tone_sum += r.im;
        r.advance();
      }
      const double wander = 0.75 + 0.25 * wander_.im;
      wander_.advance();
      out[i] += scale * wander * tone_sum;
    }
  }
}

}  // namespace aqua::channel
