// Fig. 8 reproduction: per-subcarrier BER vs estimated SNR at 5/10/20 m
// (bridge), full 1-4 kHz band, BPSK, compared with the theoretical BPSK
// curve. The paper sends 500 OFDM symbols per distance; we default to 120
// (AQUA_BENCH_PACKETS scales the batch size).
//
// Each (range, batch) pair is one self-seeding work item on the
// sim::SweepRunner pool; per-item tallies merge in item order, so the table
// is bit-identical for any --threads / AQUA_SWEEP_THREADS value.
#include <cmath>
#include <cstdio>
#include <map>
#include <random>

#include "bench_common.h"
#include "channel/channel.h"
#include "phy/chanest.h"
#include "phy/datamodem.h"
#include "phy/preamble.h"

using namespace aqua;

namespace {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

// Per-subcarrier error tallies from one 10-symbol batch.
struct BatchTally {
  std::map<int, std::pair<std::size_t, std::size_t>> buckets;  // SNR -> (e, n)
  std::size_t errors = 0;
  std::size_t bits = 0;
};

BatchTally run_symbol_batch(double range, int batch, std::mt19937_64& rng,
                            dsp::Workspace& ws) {
  BatchTally tally;
  const phy::OfdmParams p;
  phy::DataModem modem(p);
  phy::Preamble preamble(p);
  phy::Ofdm ofdm(p);

  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = range;
  lc.seed = static_cast<std::uint64_t>(range * 1000) + batch;
  channel::UnderwaterChannel ch(lc);

  // Preamble for SNR estimation, then 10 data symbols, full band.
  const phy::BandSelection full{0, 59, false};
  std::vector<std::uint8_t> coded(60 * 10);
  for (auto& v : coded) v = static_cast<std::uint8_t>(rng() & 1);
  std::vector<double> tx = preamble.waveform();
  const std::vector<double> data = modem.encode_coded(coded, full);
  tx.insert(tx.end(), data.begin(), data.end());
  const std::vector<double> rx = ch.transmit(tx);

  auto det = preamble.detect(rx, ws);
  if (!det) return tally;
  phy::ChannelEstimate est = phy::estimate_channel(
      ofdm, std::span<const double>(rx).subspan(det->start_index),
      preamble.cazac_bins(), ws);

  phy::DecodeOptions opts;
  const std::size_t region = 12 * p.symbol_total_samples();
  opts.search_window = rx.size() > region ? rx.size() - region : 0;
  phy::DataDecodeResult res =
      modem.decode_coded(rx, full, coded.size(), opts, ws);
  if (!res.found) return tally;

  // Attribute each coded bit to its subcarrier's estimated SNR.
  coding::SubcarrierInterleaver il(60);
  const auto& order = il.order();
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const std::size_t subcarrier = order[i % 60];
    const int snr_bucket = static_cast<int>(std::lround(est.snr_db[subcarrier]));
    auto& [e, n] = tally.buckets[snr_bucket];
    n += 1;
    tally.bits += 1;
    if (res.coded_hard[i] != coded[i]) {
      e += 1;
      tally.errors += 1;
    }
  }
  return tally;
}

}  // namespace

int main(int argc, char** argv) {
  const int symbols = bench::packets_per_config(12) * 10;
  const std::vector<double> ranges = {5.0, 10.0, 20.0};
  const int batches = std::max(1, symbols / 10);

  sim::RunnerOptions opts;
  opts.threads = bench::sweep_threads(argc, argv);
  const sim::SweepRunner runner(opts);

  // One work item per (range, batch); slot per item, merged in item order.
  const std::size_t items = ranges.size() * static_cast<std::size_t>(batches);
  std::vector<BatchTally> tallies(items);
  runner.parallel_for(
      items,
      [&](std::size_t i, std::mt19937_64& rng, dsp::Workspace& ws) {
        const double range = ranges[i / static_cast<std::size_t>(batches)];
        const int batch = static_cast<int>(i % static_cast<std::size_t>(batches));
        tallies[i] = run_symbol_batch(range, batch, rng, ws);
      },
      /*seed_base=*/97);

  // SNR-bin -> (errors, bits) accumulated across distances.
  std::map<int, std::pair<std::size_t, std::size_t>> buckets;
  for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
    std::size_t errors = 0, bits = 0;
    for (int b = 0; b < batches; ++b) {
      const BatchTally& t = tallies[ri * static_cast<std::size_t>(batches) +
                                   static_cast<std::size_t>(b)];
      errors += t.errors;
      bits += t.bits;
      for (const auto& [snr, counts] : t.buckets) {
        buckets[snr].first += counts.first;
        buckets[snr].second += counts.second;
      }
    }
    std::printf("range %4.0f m: overall uncoded BER %.4f over %zu bits\n",
                ranges[ri], bits ? static_cast<double>(errors) / bits : 0.0,
                bits);
  }

  std::printf("\n%8s %12s %12s %10s\n", "SNR(dB)", "measured BER",
              "theory BPSK", "bits");
  for (const auto& [snr, counts] : buckets) {
    const auto& [e, n] = counts;
    if (n < 50 || snr < -5 || snr > 25) continue;
    const double measured = static_cast<double>(e) / static_cast<double>(n);
    const double theory = q_function(std::sqrt(2.0 * dsp::db_to_power(snr)));
    std::printf("%8d %12.4f %12.4f %10zu\n", snr, measured, theory, n);
  }
  std::printf("\n(paper Fig. 8: measured curve follows the theoretical BPSK "
              "trend; differential BPSK sits slightly above coherent theory)\n");
  return 0;
}
