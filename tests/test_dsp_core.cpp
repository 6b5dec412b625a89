// Zero-allocation DSP core: Workspace arenas, the overlap-save FftFilter
// engine, the moving-window DFT bank, template-cached correlation, and the
// running-sum regression (sliding_energy drift).
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <thread>
#include <utility>

#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/fft_filter.h"
#include "dsp/fir.h"
#include "dsp/sliding_dft.h"
#include "dsp/workspace.h"
#include "phy/ofdm.h"
#include "phy/params.h"

namespace aqua::dsp {
namespace {

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = g(rng);
  return x;
}

std::vector<double> direct_convolve(std::span<const double> x,
                                    std::span<const double> h) {
  std::vector<double> y(x.size() + h.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = 0; j < h.size(); ++j) y[i + j] += x[i] * h[j];
  }
  return y;
}

// --- Overlap-save equivalence across awkward size combinations. ---------

struct ConvCase {
  std::size_t signal;
  std::size_t kernel;
};

class OverlapSaveTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(OverlapSaveTest, MatchesDirectConvolution) {
  const auto [nx, nh] = GetParam();
  Workspace ws;
  const std::vector<double> x = random_real(nx, 1000 + nx);
  const std::vector<double> h = random_real(nh, 2000 + nh);
  const FftFilter filt{std::vector<double>(h)};
  const std::vector<double> got = filt.convolve(x, ws);
  const std::vector<double> expect = direct_convolve(x, h);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-9) << "sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OverlapSaveTest,
    ::testing::Values(
        // Kernel exactly as long as the signal (odd length).
        ConvCase{257, 257},
        // Kernel longer than the signal.
        ConvCase{129, 501},
        // Odd everything, several full blocks plus a partial one.
        ConvCase{4999, 129},
        // The paper's receive bandpass and preamble-template shapes.
        ConvCase{9973, 129},
        ConvCase{1501, 961}));

TEST(OverlapSave, BlockBoundaryStraddlingLengths) {
  // Signal lengths placed exactly at, one before, and one past multiples of
  // the engine's per-block step must all agree with direct convolution.
  Workspace ws;
  const std::vector<double> h = random_real(129, 7);
  const FftFilter filt{std::vector<double>(h)};
  const std::size_t step = filt.step();
  ASSERT_GT(step, 2u);
  for (const std::size_t nx :
       {step - 1, step, step + 1, 2 * step - 1, 2 * step + 1, 3 * step}) {
    const std::vector<double> x = random_real(nx, 31 + nx);
    const std::vector<double> got = filt.convolve(x, ws);
    const std::vector<double> expect = direct_convolve(x, h);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expect[i], 1e-9) << "nx " << nx << " sample " << i;
    }
  }
}

TEST(OverlapSave, FilterSameMatchesFreeFunction) {
  Workspace ws;
  const std::vector<double> h = design_bandpass(1000.0, 4000.0, 48000.0, 129);
  const std::vector<double> x = random_real(3000, 17);
  const FftFilter filt{std::vector<double>(h)};
  const std::vector<double> a = filt.filter_same(x, ws);
  const std::vector<double> b = filter_same(x, h);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(OverlapSave, RejectsEmptyKernelAndWrongSizes) {
  EXPECT_THROW(FftFilter{std::vector<double>{}}, std::invalid_argument);
  Workspace ws;
  const FftFilter filt{std::vector<double>{1.0, 2.0}};
  std::vector<double> x(10), out(5);
  EXPECT_THROW(filt.convolve_into(x, out, ws), std::invalid_argument);
  // An empty signal convolves to nothing; a non-empty out is a sizing bug
  // and must not be silently zero-filled.
  EXPECT_THROW(filt.convolve_into({}, out, ws), std::invalid_argument);
  EXPECT_NO_THROW(filt.convolve_into({}, {}, ws));
}

TEST(FftFilterStream, MatchesBatchCausalConvolution) {
  std::mt19937_64 rng(11);
  std::normal_distribution<double> gauss;
  std::vector<double> kernel(129);
  std::vector<double> x(20000);
  for (double& v : kernel) v = gauss(rng);
  for (double& v : x) v = gauss(rng);
  FftFilter filter(kernel);
  Workspace ws;
  const std::vector<double> batch = filter.convolve(x, ws);

  FftFilter::Stream stream(filter);
  std::vector<double> out;
  for (std::size_t base = 0; base < x.size(); base += 700) {
    const std::size_t len = std::min<std::size_t>(700, x.size() - base);
    stream.push(std::span<const double>(x).subspan(base, len), out, ws);
  }
  // Whole step-blocks only: the stream holds back at most step-1 samples.
  EXPECT_GE(out.size() + stream.step() - 1, x.size());
  ASSERT_LE(out.size(), batch.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], batch[i]) << "sample " << i;
  }
  EXPECT_EQ(stream.consumed(), x.size());
  EXPECT_EQ(stream.produced(), out.size());
}

TEST(FftFilterStream, ZeroWindowsMatchBatchConvolution) {
  // Bursts separated by silence several blocks long: the all-zero
  // overlap-save windows in the gaps skip their transforms and must still
  // emit exactly what the batch convolution computes (zeros compare equal
  // whatever their sign).
  std::mt19937_64 rng(14);
  std::normal_distribution<double> gauss;
  std::vector<double> kernel(129);
  for (double& v : kernel) v = gauss(rng);
  std::vector<double> x(31000, 0.0);
  for (std::size_t i = 0; i < 3000; ++i) x[i] = gauss(rng);
  for (std::size_t i = 23000; i < 26000; ++i) x[i] = gauss(rng);
  FftFilter filter(kernel);
  Workspace ws;
  const std::vector<double> batch = filter.convolve(x, ws);

  FftFilter::Stream stream(filter);
  ASSERT_LT(2 * stream.fft_size(), 20000u);  // the gap spans whole windows
  std::vector<double> out;
  for (std::size_t base = 0; base < x.size(); base += 700) {
    const std::size_t len = std::min<std::size_t>(700, x.size() - base);
    stream.push(std::span<const double>(x).subspan(base, len), out, ws);
  }
  EXPECT_GE(out.size() + stream.step() - 1, x.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], batch[i]) << "sample " << i;
  }
  // A block whose whole window lies in the gap emits exact zeros (blocks
  // whose window reaches a burst carry the transforms' rounding residue).
  for (std::size_t i = 3000 + stream.fft_size() + kernel.size();
       i < 23000 - stream.fft_size(); ++i) {
    ASSERT_EQ(out[i], 0.0) << "sample " << i;
  }
}

TEST(FftFilterStream, ChunkingNeverChangesTheOutput) {
  std::mt19937_64 rng(12);
  std::normal_distribution<double> gauss;
  std::vector<double> kernel(57);
  std::vector<double> x(12000);
  for (double& v : kernel) v = gauss(rng);
  for (double& v : x) v = gauss(rng);
  FftFilter filter(kernel);
  Workspace ws;

  const auto run = [&](std::size_t chunk) {
    FftFilter::Stream stream(filter);
    std::vector<double> out;
    for (std::size_t base = 0; base < x.size(); base += chunk) {
      const std::size_t len = std::min(chunk, x.size() - base);
      stream.push(std::span<const double>(x).subspan(base, len), out, ws);
    }
    return out;
  };
  const std::vector<double> o1 = run(1);
  const std::vector<double> o160 = run(160);
  const std::vector<double> o4800 = run(4800);
  // Bit-identical, not approximately equal: every block transforms the
  // same absolute input window through the same FFT.
  EXPECT_EQ(o1, o160);
  EXPECT_EQ(o1, o4800);
}

TEST(FftFilterStream, LongKernelLatencyIsBounded) {
  // A preamble-template-sized kernel: the batch engine is free to pick a
  // huge block, but a stream must bound its hold-back.
  std::mt19937_64 rng(13);
  std::normal_distribution<double> gauss;
  std::vector<double> kernel(7680);
  for (double& v : kernel) v = gauss(rng);
  FftFilter filter(kernel);
  FftFilter::Stream stream(filter);
  EXPECT_LE(stream.step(), kMaxStreamStep);

  // And it still computes the same convolution prefix.
  std::vector<double> x(40000);
  for (double& v : x) v = gauss(rng);
  Workspace ws;
  const std::vector<double> batch = filter.convolve(x, ws);
  std::vector<double> out;
  stream.push(x, out, ws);
  ASSERT_GT(out.size(), 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out[i], batch[i], 1e-9 * kernel.size()) << "sample " << i;
  }
}

TEST(FftFilterStream, ResetRestartsTheTimeline) {
  std::vector<double> kernel{0.5, -0.25, 0.125};
  FftFilter filter(kernel);
  FftFilter::Stream stream(filter);
  Workspace ws;
  std::vector<double> x(512, 1.0);
  std::vector<double> first;
  stream.push(x, first, ws);
  stream.reset();
  EXPECT_EQ(stream.consumed(), 0u);
  std::vector<double> second;
  stream.push(x, second, ws);
  EXPECT_EQ(first, second);
}

TEST(FftPlanCache, SizeZeroThrowsEveryTime) {
  // A throwing FftPlan constructor must leave the shared plan cache
  // unchanged: the second lookup used to find a null cache entry and
  // crash instead of throwing again.
  EXPECT_THROW(fft(std::vector<cplx>{}), std::invalid_argument);
  EXPECT_THROW(fft(std::vector<cplx>{}), std::invalid_argument);
  EXPECT_THROW(plan_of(0), std::invalid_argument);
}

// --- Template-cached correlation. ---------------------------------------

TEST(CrossCorrelator, MatchesFreeFunctions) {
  Workspace ws;
  const std::vector<double> ref = random_real(200, 3);
  std::vector<double> x(4000, 0.0);
  for (std::size_t i = 0; i < ref.size(); ++i) x[700 + i] = 0.5 * ref[i];
  const CrossCorrelator corr{std::vector<double>(ref)};
  const std::vector<double> got = corr.normalized(x, ws);
  const std::vector<double> expect = normalized_cross_correlate(x, ref);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-9);
  }
  EXPECT_EQ(argmax(got), 700u);
  EXPECT_NEAR(got[700], 1.0, 1e-9);
}

// --- Moving-window DFT bank vs per-window FFT demodulation. --------------

// fp32 white-noise capture: the moving-DFT bank's input.
std::vector<float> random_realf(std::size_t n, std::uint64_t seed) {
  return convert_samples<float>(random_real(n, seed));
}

// |DFT bin b| of the window x[s..s+n), evaluated in double on the float
// samples (exact up to double rounding), and the window's energy.
double window_amplitude(std::span<const float> x, std::size_t s,
                        std::size_t n, std::size_t b) {
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double a = -kTwoPi * static_cast<double>(b) *
                     static_cast<double>((s + i) % n) / static_cast<double>(n);
    acc += static_cast<double>(x[s + i]) * cplx{std::cos(a), std::sin(a)};
  }
  return std::abs(acc);
}

double window_energy(std::span<const float> x, std::size_t s, std::size_t n) {
  double e = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    e += static_cast<double>(x[s + i]) * static_cast<double>(x[s + i]);
  }
  return e;
}

// Amplitude error bound of the fp32 bank against the exact DFT of the same
// float samples, for a window of energy `energy` on white input whose
// slide since the last re-seed ran over windows of like energy.
//
// Between re-seeds a running sum S takes at most K = 4096 updates (the
// re-seed interval, kReaccumulateInterval in sliding_dft.cpp). Each update
// rounds both components of S once (one fmaf each) and the sample
// difference once: errors of at most u * |S| and u * |d| * |phasor|, with
// u = 2^-24 the fp32 unit roundoff. The phasor table's own rounding cancels:
// every sample enters and leaves the sum through the same table row. On
// white input |S| and |d| are of order sqrt(energy), and the roundings are
// independent, so they add as a random walk: sqrt(K) * u * sqrt(energy)
// = 64 u sqrt(energy) at the end of an interval. The seed (one fp32 real
// FFT of the window, rotated by a table row) adds a few u * log2(n) *
// sqrt(energy). The bound allows 4x the random walk, 256 u sqrt(energy),
// about 1.5e-5 sqrt(energy).
double sdft_amplitude_bound(double energy) {
  constexpr double kUnitRoundoff = 0x1p-24;
  constexpr double kReseedInterval = 4096.0;
  return 4.0 * std::sqrt(kReseedInterval) * kUnitRoundoff * std::sqrt(energy);
}

TEST(MovingDftPower, MatchesPerWindowFft) {
  const phy::OfdmParams params;
  const phy::Ofdm ofdm(params);
  const std::size_t n = params.symbol_samples();
  const std::size_t bins = params.num_bins();
  Workspace ws;
  const std::vector<float> x = random_realf(3 * n + 137, 23);
  const std::size_t count = x.size() - n + 1;
  std::vector<float> powers(count * bins);
  moving_dft_power(x, n, params.first_bin(), bins, PowerGrid{1, 0, 1, count},
                   powers, ws);
  // Spot-check starts across the capture, including both edges, against
  // the per-window FFT demodulation of the same float samples.
  for (const std::size_t s :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, n - 1, n, 2 * n + 41,
        count - 1}) {
    const std::vector<double> window(x.begin() + static_cast<std::ptrdiff_t>(s),
                                     x.begin() + static_cast<std::ptrdiff_t>(s + n));
    const std::vector<cplx> spec = ofdm.demodulate(window);
    const double bound = sdft_amplitude_bound(window_energy(x, s, n));
    for (std::size_t k = 0; k < bins; ++k) {
      EXPECT_NEAR(std::sqrt(static_cast<double>(powers[s * bins + k])),
                  std::abs(spec[k]), bound)
          << "start " << s << " bin " << k;
    }
  }
}

TEST(MovingDftPower, SurvivesLongCapturesWithoutDrift) {
  // 60k samples cross many re-seed intervals, and the first 8192 are 1000x
  // louder (a nearby transmitter, then a distant one). The rounding residue
  // the loud windows leave in the running sums is ~sqrt(8192) * u * 1000x
  // the quiet windows' sqrt(energy) -- far above the bound -- so every
  // quiet row must come from a re-seed past the loud head, and must still
  // match a direct window evaluation after its slide.
  const std::size_t n = 960, loud = 8192;
  const std::size_t first_bin = 20, bins = 3;
  Workspace ws;
  std::vector<float> x = random_realf(60000, 29);
  for (std::size_t i = 0; i < loud; ++i) x[i] *= 1000.0f;
  const std::size_t count = x.size() - n + 1;
  std::vector<float> powers(count * bins);
  moving_dft_power(x, n, first_bin, bins, PowerGrid{1, 0, 1, count}, powers,
                   ws);
  std::vector<std::size_t> starts;
  for (std::size_t s = loud; s < count; s += 997) starts.push_back(s);
  starts.push_back(count - 1);
  for (const std::size_t s : starts) {
    const double bound = sdft_amplitude_bound(window_energy(x, s, n));
    for (std::size_t k = 0; k < bins; ++k) {
      EXPECT_NEAR(std::sqrt(static_cast<double>(powers[s * bins + k])),
                  window_amplitude(x, s, n, first_bin + k), bound)
          << "start " << s << " bin " << k;
    }
  }
}

// Every row of the widest grid (step, hop, repeats) that fits the capture
// must equal, bit for bit, the dense pass's row at the same start.
void expect_grid_rows_match_dense(std::size_t step, std::size_t hop,
                                  std::size_t repeats) {
  const std::size_t n = 960;
  const std::size_t bins = 7;
  Workspace ws;
  const std::vector<float> x = random_realf(3 * 4096 + 2100, 41);
  const std::size_t count = x.size() - n + 1;
  std::vector<float> dense(count * bins);
  moving_dft_power(x, n, 20, bins, PowerGrid{1, 0, 1, count}, dense, ws);
  const PowerGrid grid{step, hop, repeats,
                       (count - 1 - (repeats - 1) * hop) / step + 1};
  std::vector<float> rows(grid.starts * repeats * bins);
  moving_dft_power(x, n, 20, bins, grid, rows, ws);
  for (std::size_t j = 0; j < grid.starts; ++j) {
    for (std::size_t r = 0; r < repeats; ++r) {
      const std::size_t s = j * step + r * hop;
      for (std::size_t k = 0; k < bins; ++k) {
        ASSERT_EQ(rows[(j * repeats + r) * bins + k], dense[s * bins + k])
            << "step " << step << " hop " << hop << " start " << s
            << " bin " << k;
      }
    }
  }
}

TEST(MovingDftPower, GridRowsMatchDenseRows) {
  // The decoders' grids at 50, 25 and 10 Hz spacing (hop = one symbol with
  // its prefix), a grid whose repeats collide (hop a multiple of step), and
  // a grid sparser than the re-seed interval, so whole slides are skipped.
  for (const auto& [step, hop] :
       {std::pair<std::size_t, std::size_t>{8, 1027}, {8, 2054}, {8, 5135},
        {8, 1024}, {5000, 1027}}) {
    expect_grid_rows_match_dense(step, hop, 2);
  }
}

TEST(MovingDftPower, RejectsBadArguments) {
  Workspace ws;
  std::vector<float> x(100), out(100);
  const PowerGrid one{1, 0, 1, 1};
  EXPECT_THROW(moving_dft_power(x, 0, 0, 1, one, out, ws),
               std::invalid_argument);
  EXPECT_THROW(moving_dft_power(x, 200, 0, 1, one, out, ws),
               std::invalid_argument);
  EXPECT_THROW(moving_dft_power(x, 50, 40, 20, one, out, ws),
               std::invalid_argument);
  std::vector<float> row(1);
  EXPECT_THROW(moving_dft_power(x, 50, 0, 1, PowerGrid{0, 0, 1, 1}, row, ws),
               std::invalid_argument);
  // 51 window starts: a row at start 51 lies past the signal.
  std::vector<float> two(2);
  EXPECT_THROW(moving_dft_power(x, 50, 0, 1, PowerGrid{51, 0, 1, 2}, two, ws),
               std::invalid_argument);
  EXPECT_NO_THROW(
      moving_dft_power(x, 50, 0, 1, PowerGrid{50, 0, 1, 2}, two, ws));
}

TEST(SdftPhasors, ConcurrentFetchesShareOneTable) {
  // A key no other test uses, so the threads race to build it.
  constexpr std::size_t kWindow = 1000, kFirst = 3, kBins = 17;
  std::vector<const SdftPhasors*> seen(4, nullptr);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
      threads.emplace_back([&seen, t] {
        seen[t] = &sdft_phasors(kWindow, kFirst, kBins);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (const SdftPhasors* p : seen) EXPECT_EQ(p, seen[0]);
  EXPECT_EQ(&sdft_phasors(kWindow, kFirst, kBins), seen[0]);
  // Row m holds e^{-j 2 pi ((b m) mod window) / window}, rounded once.
  const std::size_t m = 777, k = 5;
  const std::size_t p = ((kFirst + k) * m) % kWindow;
  const double a = -kTwoPi * static_cast<double>(p) / kWindow;
  EXPECT_EQ(seen[0]->row(m)[k], static_cast<float>(std::cos(a)));
  EXPECT_EQ(seen[0]->row(m)[kBins + k], static_cast<float>(std::sin(a)));
}

// --- sliding_energy running-sum drift regression. ------------------------

TEST(SlidingEnergy, LoudThenSilentCaptureHasNoResidue) {
  // A large-DC leading segment used to leave catastrophic-cancellation
  // residue in the running sum, so windows deep inside the silent tail
  // reported garbage energy. With periodic re-accumulation they are clean.
  const std::size_t win = 64;
  std::vector<double> x(20000, 0.0);
  for (std::size_t i = 0; i < 6000; ++i) x[i] = 1e8 + std::sin(0.1 * i);
  const std::vector<double> e = sliding_energy(x, win);
  ASSERT_EQ(e.size(), x.size() - win + 1);
  // Everywhere: accurate relative to the loudest window the running sum has
  // carried (the best any streaming sum can promise through a 1e16-scale
  // cancellation).
  const double peak = 64.0 * 1e16;  // win * DC^2
  for (std::size_t i = 0; i < e.size(); i += 97) {
    double direct = 0.0;
    for (std::size_t j = 0; j < win; ++j) direct += x[i + j] * x[i + j];
    ASSERT_NEAR(e[i], direct, 1e-10 * peak) << "window " << i;
  }
  // The regression: windows past the next re-accumulation boundary must be
  // ~exactly zero. Without periodic re-accumulation the cancellation
  // residue (~1e3 here) survives to the end of the capture.
  for (std::size_t i = 12000; i < e.size(); i += 501) {
    ASSERT_LT(e[i], 1e-6) << "window " << i;
  }
}

// --- Workspace reuse and the zero-allocation FFT paths. ------------------

TEST(Workspace, BuffersReturnToThePoolAndGetReused) {
  Workspace ws;
  EXPECT_EQ(ws.pooled_real(), 0u);
  {
    ScratchReal a(ws, 100);
    ScratchReal b(ws, 200);
    EXPECT_EQ(ws.pooled_real(), 0u);  // both leased out
  }
  EXPECT_EQ(ws.pooled_real(), 2u);  // returned
  {
    ScratchReal c(ws, 150);  // reuses a pooled buffer
    EXPECT_EQ(ws.pooled_real(), 1u);
    EXPECT_EQ(c->size(), 150u);
  }
  EXPECT_EQ(ws.pooled_real(), 2u);  // steady state: no growth
}

TEST(Workspace, SteadyStateDspPipelineStopsAllocatingBuffers) {
  // After one warm-up pass, repeating the same filtering pipeline must not
  // grow the arena's buffer pool.
  Workspace ws;
  const std::vector<double> x = random_real(5000, 5);
  const FftFilter filt(design_bandpass(1000.0, 4000.0, 48000.0, 129));
  std::vector<double> out(x.size());
  filt.filter_same_into(x, out, ws);
  const std::size_t real_after_warmup = ws.pooled_real();
  const std::size_t cplx_after_warmup = ws.pooled_cplx();
  for (int pass = 0; pass < 3; ++pass) {
    filt.filter_same_into(x, out, ws);
    EXPECT_EQ(ws.pooled_real(), real_after_warmup);
    EXPECT_EQ(ws.pooled_cplx(), cplx_after_warmup);
  }
}

TEST(FftInto, MatchesAllocatingWrappers) {
  Workspace ws;
  std::mt19937_64 rng(9);
  std::normal_distribution<double> g(0.0, 1.0);
  for (const std::size_t n : {8u, 60u, 960u, 1027u}) {
    std::vector<cplx> x(n);
    for (auto& v : x) v = {g(rng), g(rng)};
    std::vector<cplx> out(n), back(n);
    fft_into(x, out, ws);
    const std::vector<cplx> expect = fft(x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(out[i] - expect[i]), 0.0, 1e-9);
    }
    ifft_into(out, back, ws);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace aqua::dsp
