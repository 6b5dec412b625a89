// Runs every packet-level figure's points in one process on the
// sim::SweepRunner worker pool: the declarations of figs. 9, 10, 11,
// 12a-c, 14a,b, 14c, 15 and 17 in figures.h, one table per figure. These
// are the same points, seeds and payloads the figure benches run, so at
// equal packet counts each row matches its figure bench's stats.
//
// Output is a deterministic function of the grids and seeds alone:
// aggregate stats are bit-identical for any --threads N (or
// AQUA_SWEEP_THREADS). AQUA_BENCH_PACKETS scales the per-scenario batch.
//
// `--json <path>` additionally records per-grid wall-clock and throughput
// (packets/s, receiver samples/s). The file is a perf SERIES: each run
// APPENDS one `{machine, commit, …numbers}` entry to the `series` array
// (creating or migrating the file as needed), so BENCH_sweep.json grows
// into the per-PR perf trajectory — regressions show up as one diff line
// in review. The commit id comes from $AQUA_BENCH_COMMIT, `git describe`,
// or $GITHUB_SHA; the machine label from $AQUA_BENCH_MACHINE or
// "<arch>, N cores". Timing goes to the JSON file and stderr only, so
// stdout stays bit-identical across runs and thread counts. Session QoE
// (delivery ratio, latency percentiles, tx failures) is timeline-derived
// and therefore deterministic: it appears in both stdout and the JSON.
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "figures.h"

using namespace aqua;

namespace {

void print_results(const bench::Figure& fig,
                   const std::vector<sim::BatchStats>& stats) {
  std::printf("=== %s ===\n", fig.title.c_str());
  std::printf("%-52s %6s %6s %8s %9s %10s %8s %16s %4s\n", "point", "sent",
              "deliv", "PER", "codedBER", "median-bps", "detect",
              "lat p50/p95/p99", "rtx");
  for (std::size_t k = 0; k < stats.size(); ++k) {
    const sim::BatchStats& s = stats[k];
    std::printf(
        "%-52s %6d %6d %7.1f%% %9.4f %10.1f %7.0f%% %4.2f/%4.2f/%4.2fs %4llu\n",
        fig.points[k].label.c_str(), s.sent, s.delivered, 100.0 * s.per(),
        s.coded_ber(), s.median_bitrate(), 100.0 * s.detection_rate(),
        s.latency_percentile_s(50.0), s.latency_percentile_s(95.0),
        s.latency_percentile_s(99.0),
        static_cast<unsigned long long>(s.qoe.counter("tx_failed")));
  }
  std::printf("\n");
}

struct GridTiming {
  std::string name;
  std::size_t scenarios = 0;
  double wall_s = 0.0;
  // Grid-level aggregate (deterministic stats and QoE) + DSP stage timing
  // (wall-clock), both merged across the grid's points.
  sim::BatchStats agg;
};

double rate(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

// "<arch>, N cores" — stable across reboots and container hostnames (the
// nodename is a random hex string in most CI/container runs, and an empty
// one used to collapse the whole label to "unknown"). $AQUA_BENCH_MACHINE
// overrides for named lab machines.
std::string machine_label() {
  if (const char* m = std::getenv("AQUA_BENCH_MACHINE")) return m;  // lint: det-ok(bench knob: selects how much work to run, never what the DSP computes)
  struct utsname u {};
  std::string label =
      (uname(&u) == 0 && u.machine[0] != '\0') ? u.machine : "unknown";
  label += ", ";
  label += std::to_string(std::thread::hardware_concurrency());
  label += " cores";
  return label;
}

// $AQUA_BENCH_COMMIT wins (CI stamps the PR head there), then the actual
// `git describe` of the working tree, then $GITHUB_SHA.
std::string commit_label() {
  if (const char* c = std::getenv("AQUA_BENCH_COMMIT")) return c;  // lint: det-ok(bench knob: selects how much work to run, never what the DSP computes)
  if (FILE* p = popen("git describe --always --tags --dirty 2>/dev/null",
                      "r")) {
    char buf[128] = {};
    const std::size_t n = fread(buf, 1, sizeof buf - 1, p);
    const bool ok = pclose(p) == 0 && n > 0;
    std::string desc(buf, n);
    while (!desc.empty() && (desc.back() == '\n' || desc.back() == '\r')) {
      desc.pop_back();
    }
    if (ok && !desc.empty()) return desc;
  }
  if (const char* c = std::getenv("GITHUB_SHA")) return c;  // lint: det-ok(bench knob: selects how much work to run, never what the DSP computes)
  return "unknown";
}

// One series entry: this run's machine, commit and numbers.
std::string entry_json(int packets_per_scenario, int threads,
                       const std::vector<GridTiming>& grids,
                       const GridTiming& total) {
  std::ostringstream os;
  char buf[512];
  os << "    {\n";
  std::snprintf(buf, sizeof buf,
                "      \"machine\": \"%s\",\n      \"commit\": \"%s\",\n"
                "      \"packets_per_scenario\": %d,\n      \"threads\": %d,\n",
                machine_label().c_str(), commit_label().c_str(),
                packets_per_scenario, threads);
  os << buf << "      \"grids\": [\n";
  for (std::size_t i = 0; i < grids.size(); ++i) {
    const GridTiming& g = grids[i];
    std::snprintf(buf, sizeof buf,
                  "        {\"name\": \"%s\", \"scenarios\": %zu, "
                  "\"packets\": %d, \"samples\": %llu, \"wall_s\": %.3f, "
                  "\"packets_per_s\": %.2f, \"samples_per_s\": %.0f,\n"
                  "         \"delivery_ratio\": %.4f, "
                  "\"latency_p50_s\": %.4f, \"latency_p95_s\": %.4f, "
                  "\"latency_p99_s\": %.4f, \"tx_failed\": %llu,\n",
                  g.name.c_str(), g.scenarios, g.agg.sent,
                  static_cast<unsigned long long>(g.agg.samples), g.wall_s,
                  rate(g.agg.sent, g.wall_s),
                  rate(static_cast<double>(g.agg.samples), g.wall_s),
                  g.agg.delivery_ratio(), g.agg.latency_percentile_s(50.0),
                  g.agg.latency_percentile_s(95.0),
                  g.agg.latency_percentile_s(99.0),
                  static_cast<unsigned long long>(
                      g.agg.qoe.counter("tx_failed")));
    os << buf;
    // Per-stage DSP wall time: every "<stage>.ns" counter with its calls.
    os << "         \"dsp_stages\": {";
    bool first = true;
    for (const auto& [key, ns] : g.agg.pipeline.counters()) {
      if (key.size() < 3 || key.compare(key.size() - 3, 3, ".ns") != 0) {
        continue;
      }
      const std::string stage = key.substr(0, key.size() - 3);
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"wall_ms\": %.1f, \"calls\": %llu}",
                    first ? "" : ", ", stage.c_str(),
                    static_cast<double>(ns) / 1e6,
                    static_cast<unsigned long long>(
                        g.agg.pipeline.counter(stage + ".calls")));
      os << buf;
      first = false;
    }
    os << "}}" << (i + 1 < grids.size() ? "," : "") << "\n";
  }
  os << "      ],\n";
  std::snprintf(buf, sizeof buf,
                "      \"total\": {\"packets\": %d, \"samples\": %llu, "
                "\"wall_s\": %.3f, \"packets_per_s\": %.2f, "
                "\"samples_per_s\": %.0f}\n",
                total.agg.sent,
                static_cast<unsigned long long>(total.agg.samples),
                total.wall_s, rate(total.agg.sent, total.wall_s),
                rate(static_cast<double>(total.agg.samples), total.wall_s));
  os << buf << "    }";
  return os.str();
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Total samples_per_s of the LAST series entry recorded for `machine` over
// exactly `grids` (their names, in run order), or 0.0 when the series holds
// none. Totals over different grid sets measure different workloads, so
// they are never compared. String-level scan, matching how write_json
// treats the file: an entry runs from its "machine" key to the next one.
double last_total_samples_per_s(const std::string& series,
                                const std::string& machine,
                                const std::vector<std::string>& grids) {
  const std::string key = "\"machine\": \"" + machine + "\"";
  const std::string name_key = "{\"name\": \"";
  const std::string rate_key = "\"samples_per_s\": ";
  double last = 0.0;
  for (std::size_t pos = series.find(key, series.find("\"series\""));
       pos != std::string::npos; pos = series.find(key, pos + key.size())) {
    const std::size_t next = series.find("\"machine\": ", pos + key.size());
    const std::string entry = series.substr(pos, next - pos);
    std::vector<std::string> names;
    for (std::size_t g = entry.find(name_key); g != std::string::npos;
         g = entry.find(name_key, g)) {
      g += name_key.size();
      names.push_back(entry.substr(g, entry.find('"', g) - g));
    }
    const std::size_t rate = entry.find(rate_key, entry.find("\"total\": {"));
    if (names != grids || rate == std::string::npos) continue;
    last = std::strtod(entry.c_str() + rate + rate_key.size(), nullptr);
  }
  return last;
}

// The distinct machine labels in the series, in first-seen order, quoted
// and comma-separated ("none" for an empty series).
std::string series_labels(const std::string& series) {
  const std::string key = "\"machine\": \"";
  std::vector<std::string> labels;
  for (std::size_t pos = series.find(key); pos != std::string::npos;
       pos = series.find(key, pos)) {
    pos += key.size();
    const std::size_t end = series.find('"', pos);
    if (end == std::string::npos) break;
    std::string label = series.substr(pos, end - pos);
    if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
      labels.push_back(std::move(label));
    }
  }
  std::string out;
  for (const std::string& label : labels) {
    if (!out.empty()) out += ", ";
    out += '"';
    out += label;
    out += '"';
  }
  return out.empty() ? "none" : out;
}

// Appends this run to the series file. A missing or empty file starts a
// fresh series; an existing file must already be in the series format —
// anything unrecognized is left untouched (with a warning) rather than
// silently destroying the perf history it might hold.
void write_json(const char* path, int packets_per_scenario, int threads,
                const std::vector<GridTiming>& grids, const GridTiming& total) {
  const std::string existing = read_file(path);
  const std::string entry =
      entry_json(packets_per_scenario, threads, grids, total);
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  std::string out;
  bool blank = true;
  for (char c : existing) {
    if (!is_space(c)) {
      blank = false;
      break;
    }
  }
  if (blank) {
    out = "{\n  \"bench\": \"bench_sweep_all\",\n  \"series\": [\n";
    out += entry;
    out += "\n  ]\n}\n";
  } else {
    // Series format, structurally: a "series" array whose closing ']' is
    // the last bracket, followed only by the object's closing brace.
    const std::size_t series_pos = existing.find("\"series\"");
    const std::size_t open = series_pos == std::string::npos
                                 ? std::string::npos
                                 : existing.find('[', series_pos);
    const std::size_t close = existing.find_last_of(']');
    bool ok = open != std::string::npos && close != std::string::npos &&
              close > open;
    if (ok) {
      bool brace = false;
      for (std::size_t i = close + 1; i < existing.size(); ++i) {
        const char c = existing[i];
        if (is_space(c)) continue;
        if (c == '}' && !brace) {
          brace = true;
          continue;
        }
        ok = false;
        break;
      }
      ok = ok && brace;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "warning: %s is not a bench_sweep_all series file; "
                   "leaving it untouched (entry not recorded)\n",
                   path);
      return;
    }
    bool empty_series = true;
    for (std::size_t i = open + 1; i < close; ++i) {
      if (!is_space(existing[i])) {
        empty_series = false;
        break;
      }
    }
    out = existing.substr(0, close);
    while (!out.empty() && is_space(out.back())) out.pop_back();
    out += empty_series ? "\n" : ",\n";
    out += entry;
    out += "\n  ]\n}\n";
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
  const int n = bench::packets_per_config(4);
  sim::RunnerOptions opts;
  opts.threads = bench::sweep_threads(argc, argv);
  opts.chunk_packets = 2;
  const sim::SweepRunner runner(opts);
  std::printf("sweep: %d packets/scenario on %d worker thread(s)\n\n", n,
              runner.threads());

  std::vector<GridTiming> timings;
  for (const bench::Figure& fig : bench::packet_figures()) {
    const auto t0 = std::chrono::steady_clock::now();  // lint: det-ok(benches measure wall time by definition; results go to stderr, not into any signal)
    const std::vector<sim::BatchStats> stats =
        runner.run_points(fig.points, n, fig.payload_bits);
    const auto t1 = std::chrono::steady_clock::now();  // lint: det-ok(benches measure wall time by definition)
    print_results(fig, stats);

    GridTiming t;
    t.name = fig.title;
    t.scenarios = fig.points.size();
    t.wall_s = std::chrono::duration<double>(t1 - t0).count();
    for (const sim::BatchStats& s : stats) t.agg.merge(s);
    timings.push_back(std::move(t));
  }

  // Grid-level QoE summary (deterministic, so it may live on stdout).
  std::printf("=== session QoE per grid ===\n");
  for (const GridTiming& t : timings) {
    bench::print_qoe_line(t.name.c_str(), t.agg);
  }
  std::printf("\n");

  // Timing summary on stderr only: stdout must stay bit-identical across
  // runs and thread counts (the CI determinism check diffs it).
  const auto print_timing = [](const GridTiming& t) {
    std::fprintf(stderr, "timing: %-46s %7.2fs  %8.2f pkt/s  %12.0f samp/s\n",
                 t.name.c_str(), t.wall_s, rate(t.agg.sent, t.wall_s),
                 rate(static_cast<double>(t.agg.samples), t.wall_s));
  };
  GridTiming total;
  total.name = "TOTAL";
  for (const GridTiming& t : timings) {
    print_timing(t);
    total.wall_s += t.wall_s;
    total.agg.merge(t.agg);
  }
  bench::print_pipeline_timing("TOTAL", total.agg);
  print_timing(total);

  if (const char* path = bench::json_path(argc, argv)) {
    // Hard regression gate: compare this run's total samples/s against the
    // LAST entry already in the series (recorded before this run appends)
    // from the same machine over the same grids. A drop beyond the
    // tolerance fails the process, so CI turns red instead of quietly
    // recording the regression.
    // $AQUA_BENCH_TOLERANCE overrides the allowed fractional drop (default
    // 0.15); values >= 1 effectively disable the gate for noisy hosts.
    const std::string series = read_file(path);
    const std::string machine = machine_label();
    std::vector<std::string> grids;
    for (const GridTiming& t : timings) grids.push_back(t.name);
    const double baseline = last_total_samples_per_s(series, machine, grids);
    write_json(path, n, runner.threads(), timings, total);
    std::fprintf(stderr, "timing: wrote %s\n", path);

    double tolerance = 0.15;
    if (const char* t = std::getenv("AQUA_BENCH_TOLERANCE")) {  // lint: det-ok(bench knob: selects the output path for the report, not the measured signal)
      char* end = nullptr;
      const double v = std::strtod(t, &end);
      if (end != t && v >= 0.0) tolerance = v;
    }
    const double current =
        rate(static_cast<double>(total.agg.samples), total.wall_s);
    if (baseline > 0.0 && current < baseline * (1.0 - tolerance)) {
      std::fprintf(stderr,
                   "FAIL: total throughput %.0f samples/s is %.1f%% below "
                   "the previous %.0f samples/s on this machine "
                   "(tolerance %.0f%%; override with AQUA_BENCH_TOLERANCE)\n",
                   current, 100.0 * (1.0 - current / baseline), baseline,
                   100.0 * tolerance);
      return 1;
    }
    if (baseline > 0.0) {
      std::fprintf(stderr,
                   "timing: gate ok: %.0f samples/s vs previous %.0f "
                   "(tolerance %.0f%%)\n",
                   current, baseline, 100.0 * tolerance);
    } else {
      // Nothing to compare against: say so rather than pass in silence.
      std::fprintf(stderr,
                   "timing: gate OFF: no entry labelled \"%s\" ran this "
                   "run's grids (series labels: %s; set AQUA_BENCH_MACHINE "
                   "to compare against one)\n",
                   machine.c_str(), series_labels(series).c_str());
    }
  }
  return 0;
}
