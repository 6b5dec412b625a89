// Section 3 / 5 reproduction via google-benchmark: component runtimes
// (channel estimation, band selection, feedback decode, per-symbol
// equalization + Viterbi — the paper reports 1-2 ms each on a Galaxy S9
// and <20 ms per symbol for decoding) and end-to-end messaging airtime.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "channel/environment.h"
#include "channel/noise.h"
#include "dsp/fft.h"
#include "dsp/fft_filter.h"
#include "dsp/fir.h"
#include "phy/bandselect.h"
#include "phy/chanest.h"
#include "phy/datamodem.h"
#include "phy/equalizer.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

using namespace aqua;

namespace {

std::vector<double> noisy_preamble(const phy::Preamble& pre, double sigma) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> g(0.0, sigma);
  std::vector<double> rx(
      pre.waveform().begin() + 67, pre.waveform().end());
  for (auto& v : rx) v += g(rng);
  return rx;
}

void BM_ChannelEstimation(benchmark::State& state) {
  const phy::OfdmParams p;
  phy::Ofdm ofdm(p);
  phy::Preamble pre(p);
  const std::vector<double> rx = noisy_preamble(pre, 0.01);
  dsp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phy::estimate_channel(ofdm, rx, pre.cazac_bins(), ws));
  }
}
BENCHMARK(BM_ChannelEstimation);

void BM_BandSelection(benchmark::State& state) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> g(9.0, 6.0);
  std::vector<double> snr(60);
  for (auto& s : snr) s = g(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::select_band(snr));
  }
}
BENCHMARK(BM_BandSelection);

void BM_FeedbackDecode(benchmark::State& state) {
  const phy::OfdmParams p;
  phy::FeedbackCodec fb(p);
  std::vector<double> signal(3000, 0.0);
  const std::vector<double> sym = fb.encode_band({10, 40, false});
  signal.insert(signal.end(), sym.begin(), sym.end());
  signal.resize(signal.size() + 3000, 0.0);
  // The modem's decoders read the mic window narrowed once to fp32.
  const std::vector<float> signal_f = dsp::convert_samples<float>(signal);
  dsp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fb.decode_band(signal_f, ws));
  }
}
BENCHMARK(BM_FeedbackDecode);

void BM_PreambleDetect(benchmark::State& state) {
  const phy::OfdmParams p;
  phy::Preamble pre(p);
  std::vector<double> signal(24000, 0.0);
  const std::vector<double>& w = pre.waveform();
  for (std::size_t i = 0; i < w.size(); ++i) signal[8000 + i] = w[i];
  dsp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.detect(signal, ws));
  }
}
BENCHMARK(BM_PreambleDetect);

void BM_EqualizerTrain(benchmark::State& state) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> tx(1027), h = {1.0, 0.0, 0.0, 0.4, 0.0, -0.2};
  for (auto& v : tx) v = g(rng);
  std::vector<double> rx = dsp::convolve(tx, h);
  rx.resize(tx.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::MmseEqualizer::train(rx, tx, 480, 240));
  }
}
BENCHMARK(BM_EqualizerTrain);

void BM_DecodeOneSymbolPacket(benchmark::State& state) {
  // Paper: equalization + Viterbi per symbol in <20 ms (real-time bound).
  const phy::OfdmParams p;
  phy::DataModem dm(p);
  const phy::BandSelection band{0, 59, false};
  std::mt19937_64 rng(6);
  std::vector<std::uint8_t> info(16);
  for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1);
  std::vector<double> signal(500, 0.0);
  const std::vector<double> wave = dm.encode(info, band);
  signal.insert(signal.end(), wave.begin(), wave.end());
  signal.resize(signal.size() + 500, 0.0);
  phy::DecodeOptions opts;
  opts.search_window = 1000;
  dsp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dm.decode(signal, band, 16, opts, ws));
  }
}
BENCHMARK(BM_DecodeOneSymbolPacket);

void BM_MessageAirtime(benchmark::State& state) {
  // Messaging latency (section 5): airtime of a 16-bit (two hand signal)
  // packet at the band width given by state.range(0).
  const phy::OfdmParams p;
  phy::DataModem dm(p);
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const phy::BandSelection band{0, width - 1, false};
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> info(16);
  for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1);
  double airtime_ms = 0.0;
  for (auto _ : state) {
    const std::vector<double> wave = dm.encode(info, band);
    airtime_ms = 1000.0 * static_cast<double>(wave.size()) / 48000.0;
    benchmark::DoNotOptimize(wave);
  }
  state.counters["airtime_ms"] = airtime_ms;
  state.counters["info_bitrate_bps"] = p.reported_bitrate_bps(width);
}
BENCHMARK(BM_MessageAirtime)->Arg(4)->Arg(19)->Arg(60);

// One packed real-FFT round trip (forward, then inverse) at the sizes the
// receive front end (fp32 overlap-save blocks) and the estimation path
// (fp64) run.
template <typename T>
void BM_RfftRoundTrip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(8);
  std::normal_distribution<T> g(T(0), T(1));
  std::vector<T> x(n);
  for (auto& v : x) v = g(rng);
  const dsp::BasicRfftPlan<T>& plan = dsp::rplan_of<T>(n);
  std::vector<std::complex<T>> spec(plan.spectrum_size());
  std::vector<T> back(n);
  dsp::Workspace ws;
  for (auto _ : state) {
    plan.forward(x, spec, ws);
    plan.inverse(spec, back, ws);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RfftRoundTrip<float>)->Arg(2048)->Arg(16384);
BENCHMARK(BM_RfftRoundTrip<double>)->Arg(2048)->Arg(4096);

// The preamble scanner's correlation stream: 480-sample (10 ms) pushes
// through the fp32 overlap-save engine holding the reversed 7680-tap core
// template, as PreambleScanner builds it.
void BM_FftFilterStreamPush(benchmark::State& state) {
  const phy::OfdmParams p;
  const phy::Preamble pre(p);
  std::vector<double> core = pre.core_template();
  std::reverse(core.begin(), core.end());
  const dsp::BasicFftFilter<float> engine(dsp::convert_samples<float>(core),
                                          dsp::kMaxStreamStep);
  dsp::BasicFftFilter<float>::Stream stream(engine);
  std::mt19937_64 rng(9);
  std::normal_distribution<float> g(0.0f, 1.0f);
  std::vector<float> chunk(480);
  for (auto& v : chunk) v = g(rng);
  std::vector<float> out;
  dsp::Workspace ws;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(stream.push(chunk, out, ws));
  }
  state.counters["taps"] = static_cast<double>(engine.kernel_size());
  state.counters["block"] = static_cast<double>(stream.fft_size());
}
BENCHMARK(BM_FftFilterStreamPush);

// One microphone's ambient noise per 10 ms medium block: 480 samples of
// a site's floor (normal draws shaped on the overlap-save stream), bursts
// and tones, as AcousticMedium::fill_mic renders it.
void BM_NoiseGenerate(benchmark::State& state) {
  const auto site = static_cast<channel::Site>(state.range(0));
  channel::NoiseGenerator gen(channel::site_preset(site).noise, 48000.0, 3);
  std::vector<double> block(480);
  dsp::Workspace ws;
  for (int i = 0; i < 100; ++i) gen.generate(block, ws);
  for (auto _ : state) {
    gen.generate(block, ws);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(channel::site_name(site));
}
BENCHMARK(BM_NoiseGenerate)
    ->Arg(static_cast<int>(channel::Site::kBridge))
    ->Arg(static_cast<int>(channel::Site::kLake));

}  // namespace

BENCHMARK_MAIN();
