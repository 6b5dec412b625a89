// Dense-deployment harbor scenario: N nodes (default 1000) in anchorage
// groups of ~10 across the harbor approaches, streamed through one sharded
// AcousticMedium with at-the-floor audibility culling. Group heads
// transmit staggered 1-4 kHz chirp bursts; every microphone is mixed and
// checksummed on the shared clock.
//
// Everything on stdout AFTER the first line is a pure function of the
// scenario — bit-identical for any worker count — so CI diffs a 1-worker
// run against an 8-worker run (`tail -n +2`). Wall-clock timing goes to
// stderr, and `--json <path>` appends a {nodes, pairs, samples/s} point to
// the `harbor_series` array of the BENCH_sweep.json perf history.
//
// Knobs: --medium-workers N (default 1),
// AQUA_HARBOR_NODES, AQUA_HARBOR_SECONDS, AQUA_HARBOR_SPACING.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/utsname.h>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "channel/audibility.h"
#include "channel/medium.h"
#include "dsp/chirp.h"
#include "mac/netsim.h"

using namespace aqua;

namespace {

double seconds_env(const char* name, double fallback) {
  const char* v = std::getenv(name);  // lint: det-ok(bench knob: selects how much work to run, never what the DSP computes)
  if (!v) return fallback;
  const double parsed = std::atof(v);
  return parsed > 0.0 ? parsed : fallback;
}

int workers_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--medium-workers") {
      const int v = std::atoi(argv[i + 1]);
      if (v >= 1) return v;
    }
  }
  return 1;
}

std::string machine_label() {
  if (const char* m = std::getenv("AQUA_BENCH_MACHINE")) return m;  // lint: det-ok(bench knob: labels the perf-history entry, never what the DSP computes)
  struct utsname u {};
  std::string label =
      (uname(&u) == 0 && u.machine[0] != '\0') ? u.machine : "unknown";
  label += ", ";
  label += std::to_string(std::thread::hardware_concurrency());
  label += " cores";
  return label;
}

// Appends `entry` to the "harbor_series" array of the perf-history file.
// The array is created right before the "series" key when missing, so the
// sweep bench's structural append (which keys on the LAST ']' in the file)
// keeps working, as does the CI smoke that reads series[-1]/[-2].
void append_harbor_entry(const char* path, const std::string& entry) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  std::string out;
  if (existing.find_first_not_of(" \t\r\n") == std::string::npos) {
    out = "{\n  \"bench\": \"bench_sweep_all\",\n  \"harbor_series\": [\n";
    out += entry;
    out += "\n  ],\n  \"series\": [\n  ]\n}\n";
  } else if (const std::size_t harbor = existing.find("\"harbor_series\"");
             harbor != std::string::npos) {
    // Append inside the existing array: entries hold no nested arrays, so
    // the first ']' after the key closes it.
    const std::size_t close = existing.find(']', harbor);
    if (close == std::string::npos) {
      std::fprintf(stderr, "warning: %s has a malformed harbor_series\n",
                   path);
      return;
    }
    std::size_t end = close;
    while (end > harbor && std::isspace(static_cast<unsigned char>(
                               existing[end - 1]))) {
      --end;
    }
    const bool empty = existing[end - 1] == '[';
    out = existing.substr(0, end);
    out += empty ? "\n" : ",\n";
    out += entry;
    out += "\n  ";
    out += existing.substr(close);
  } else if (const std::size_t series = existing.find("\"series\"");
             series != std::string::npos) {
    // First harbor point in an existing sweep file: insert the array
    // BEFORE "series" so the sweep writer's last-']' anchor still finds
    // its own array.
    out = existing.substr(0, series);
    out += "\"harbor_series\": [\n";
    out += entry;
    out += "\n  ],\n  ";
    out += existing.substr(series);
  } else {
    std::fprintf(stderr,
                 "warning: %s is not a bench_sweep_all series file; "
                 "harbor entry not recorded\n",
                 path);
    return;
  }
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "warning: cannot open %s for writing\n", path);
    return;
  }
  f << out;
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = bench::detail::positive_int_env("AQUA_HARBOR_NODES", 1000);
  const double sim_s = seconds_env("AQUA_HARBOR_SECONDS", 0.25);
  const double spacing = seconds_env("AQUA_HARBOR_SPACING", 5.0);
  const std::uint64_t seed = 4242;
  const double fs = 48000.0;
  constexpr std::size_t kBlock = channel::kMultipathBlockSamples;

  channel::MediumConfig mc;
  mc.workers = workers_arg(argc, argv);
  mc.cull_enabled = true;
  // At-the-floor culling: validated against the unculled reference by the
  // medium-scale equivalence tests, exercised here at deployment scale.
  mc.cull.margin_db = 0.0;

  const auto t0 = std::chrono::steady_clock::now();  // lint: det-ok(benches measure wall time by definition; timing goes to stderr/JSON, never stdout)
  channel::AcousticMedium medium(fs, mc);
  std::printf("harbor: %d nodes, %d workers, %.2f s simulated\n", nodes,
              medium.workers(), sim_s);

  const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  const auto pos =
      mac::place_nodes(mac::Placement::kHarbor, nodes, spacing, seed);
  for (int i = 0; i < nodes; ++i) {
    medium.add_endpoint(site.noise, channel::mic_noise_seed(seed, i),
                        /*stable_id=*/i);
  }

  const auto make_link = [&](double range, std::uint64_t s) {
    channel::LinkConfig lc;
    lc.site = site;
    lc.range_m = range;
    lc.sample_rate_hz = fs;
    lc.seed = s;
    return lc;
  };
  const auto l1 = [](const std::vector<double>& fir) {
    double sum = 0.0;
    for (const double v : fir) sum += std::abs(v);
    return sum;
  };
  const channel::LinkConfig proto = make_link(1.0, seed);
  const double device_l1 = l1(channel::link_device_fir(proto, true)) *
                           l1(channel::link_device_fir(proto, false));
  // Connect with 1.5x slack past the audibility bound: the pairs in the
  // slack band (adjacent anchorage groups) are connected but provably
  // inaudible, so the medium's dynamic culler — not the static connect
  // cut — is what keeps them off the hot path. That is the subsystem this
  // bench prices.
  const double radius =
      1.5 * channel::audible_range_m(
                proto, device_l1, channel::noise_floor_rms(site.noise),
                mc.cull, 0.0);
  for (int a = 0; a < nodes; ++a) {
    for (int b = 0; b < nodes; ++b) {
      if (a == b) continue;
      const double dist = std::hypot(pos[static_cast<std::size_t>(a)].first -
                                         pos[static_cast<std::size_t>(b)].first,
                                     pos[static_cast<std::size_t>(a)].second -
                                         pos[static_cast<std::size_t>(b)].second);
      if (dist > radius) continue;
      medium.connect(
          a, b,
          make_link(std::max(dist, 0.1),
                    seed * 131 + static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(nodes) +
                        static_cast<std::uint64_t>(b)));
    }
  }
  std::printf("connect radius %.0f m, %zu directed pairs\n", radius,
              medium.connected_paths());

  // Group heads transmit staggered 1-4 kHz chirp bursts on a 0.3 s cycle.
  std::vector<double> burst = dsp::lfm_chirp(1000.0, 4000.0, 0.1, fs);
  for (double& v : burst) v *= 0.5;
  const std::size_t period = static_cast<std::size_t>(0.3 * fs);
  std::vector<std::vector<double>> tx(static_cast<std::size_t>(nodes),
                                      std::vector<double>(kBlock, 0.0));
  std::vector<std::span<const double>> tx_spans;
  for (const auto& t : tx) tx_spans.emplace_back(t);
  std::vector<std::vector<double>> rx;
  dsp::Workspace ws;

  const std::uint64_t blocks =
      static_cast<std::uint64_t>(sim_s * fs / static_cast<double>(kBlock));
  const auto t1 = std::chrono::steady_clock::now();  // lint: det-ok(benches measure wall time by definition)
  double checksum = 0.0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (int i = 0; i < nodes; i += 10) {
      const std::size_t phase_off =
          (static_cast<std::size_t>(i / 10) % 6) * 2400;
      auto& block = tx[static_cast<std::size_t>(i)];
      for (std::size_t k = 0; k < kBlock; ++k) {
        const std::size_t t = (b * kBlock + k + phase_off) % period;
        block[k] = t < burst.size() ? burst[t] : 0.0;
      }
    }
    medium.step(tx_spans, rx, ws);
    for (const auto& mic : rx) {
      for (const double v : mic) checksum += std::abs(v);
    }
  }
  const auto t2 = std::chrono::steady_clock::now();  // lint: det-ok(benches measure wall time by definition)

  const obs::Registry m = medium.metrics();
  std::printf("audible pairs %zu, rendered blocks %llu, dormant blocks %llu, "
              "culled convolutions %llu, cull evals %llu\n",
              medium.audible_paths(),
              static_cast<unsigned long long>(
                  m.counter("medium.rendered_blocks")),
              static_cast<unsigned long long>(
                  m.counter("medium.dormant_blocks")),
              static_cast<unsigned long long>(
                  m.counter("medium.culled_convolutions")),
              static_cast<unsigned long long>(m.counter("medium.cull_evals")));
  std::printf("mix checksum %a over %llu blocks\n", checksum,
              static_cast<unsigned long long>(blocks));

  const double build_s = std::chrono::duration<double>(t1 - t0).count();
  const double wall_s = std::chrono::duration<double>(t2 - t1).count();
  const double mic_samples = static_cast<double>(blocks) *
                             static_cast<double>(kBlock) *
                             static_cast<double>(nodes);
  const double rate = wall_s > 0.0 ? mic_samples / wall_s : 0.0;
  std::fprintf(stderr,
               "timing: build %.2f s, stream %.2f s, %.0f mic samples/s\n",
               build_s, wall_s, rate);

  if (const char* path = bench::json_path(argc, argv)) {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"machine\": \"%s\", \"nodes\": %d, \"workers\": %d, "
        "\"pairs\": %zu, \"audible\": %zu, \"sim_s\": %.2f, "
        "\"build_s\": %.2f, \"wall_s\": %.2f, \"samples_per_s\": %.0f}",
        machine_label().c_str(), nodes, medium.workers(),
        medium.connected_paths(), medium.audible_paths(), sim_s, build_s,
        wall_s, rate);
    append_harbor_entry(path, buf);
  }
  return 0;
}
