// Per-worker metrics registry: named counters and exact-sample histograms
// whose merge semantics mirror sim::BatchStats, so session-QoE aggregation
// stays bit-identical for any sweep thread count.
//
// Concurrency model: there are no locks because there is no sharing. Each
// sweep worker (or each clocked pipeline) owns one Registry; partial
// registries merge on the aggregating thread in item order after the pool
// drains — the same contract that keeps BatchStats deterministic. A
// Histogram records raw samples (append on record, append on merge), so any
// chunking of a batch merges to the identical sample sequence and every
// derived statistic (percentiles included) is exact, not binned.
//
// This header depends only on the standard library; layers below core may
// hold a Registry* for near-zero-cost-when-disabled timing hooks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::obs {

/// Exact-sample distribution: stores every recorded value in order.
class Histogram {
 public:
  void record(double v) { samples_.push_back(v); }
  /// Appends `other`'s samples after this one's (order matters: merging
  /// partial batches in item order reproduces the single-batch sequence).
  void merge(const Histogram& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const;
  double mean() const;
  double min() const;  ///< 0.0 when empty
  double max() const;  ///< 0.0 when empty
  /// Nearest-rank percentile (p in [0, 100]) over a sorted copy; 0.0 when
  /// empty. Exact and merge-order-independent by construction.
  double percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Named counters + histograms owned by one worker/pipeline.
class Registry {
 public:
  /// Adds `v` to counter `name` (creating it at zero).
  void add(std::string_view name, std::uint64_t v = 1);
  /// Current counter value; 0 for a counter never touched.
  std::uint64_t counter(std::string_view name) const;

  /// Records one sample into histogram `name` (creating it empty).
  void record(std::string_view name, double v);
  /// Histogram by name, or nullptr if never recorded.
  const Histogram* histogram(std::string_view name) const;

  /// Counter-wise addition plus in-order histogram append. Call in item
  /// order on the aggregating thread.
  void merge(const Registry& other);

  bool empty() const { return counters_.empty() && histograms_.empty(); }
  /// Name-sorted views for deterministic reporting.
  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// RAII wall-clock stage timer: adds "<stage>.ns" / "<stage>.calls" to a
/// Registry on destruction; a nullptr registry reduces to two branch tests.
/// Timing counters are real elapsed time — report them next to wall_s
/// (JSON/stderr), never in deterministic stdout.
class StageTimer {
 public:
  StageTimer(Registry* registry, std::string_view stage)
      : registry_(registry), stage_(stage) {
    if (registry_) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() { stop(); }
  /// Records now instead of at scope exit (idempotent).
  void stop() {
    if (!registry_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    add_suffixed(".ns", static_cast<std::uint64_t>(ns));
    add_suffixed(".calls", 1);
    registry_ = nullptr;
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  // Adds to "<stage><suffix>", composed on the stack (the registry looks
  // string_views up heterogeneously), so a stop allocates only the first
  // time a counter appears. Stage names too long for the buffer fall back
  // to a heap string.
  void add_suffixed(std::string_view suffix, std::uint64_t v) {
    char key[64] = {};
    if (stage_.size() + suffix.size() > sizeof key) {
      std::string long_key(stage_);
      long_key += suffix;
      registry_->add(long_key, v);
      return;
    }
    stage_.copy(key, stage_.size());
    suffix.copy(key + stage_.size(), suffix.size());
    registry_->add(std::string_view(key, stage_.size() + suffix.size()), v);
  }

  Registry* registry_;
  std::string_view stage_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace aqua::obs
