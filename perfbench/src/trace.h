// In-memory span recorder for the traced runs.
//
// A span is (name, start, end, parent, id): spans of one packet share its
// id, and a span's parent is the span that caused it. Each lane is written
// by one thread only (lane 0 is the coordinating thread, lane w a medium
// pool worker), so recording takes no locks. Nothing is written until the
// run ends: write() dumps every span as CSV, and the analysis helpers give
// per-name totals, self time (duration minus the union of child spans) and
// the share of wall time covered by leaf spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Reference to a recorded span: lane and index within the lane.
struct SpanRef {
  int lane = -1;
  int index = -1;
  bool valid() const { return lane >= 0; }
};

class Tracer {
 public:
  explicit Tracer(int lanes = 1);

  /// Opens a span on `lane`. With no explicit parent, the parent is the
  /// innermost span still open on that lane (none for a root).
  SpanRef begin(const char* name, std::uint32_t id, int lane = 0,
                SpanRef parent = {});
  void end(SpanRef ref);

  /// RAII span on lane 0 (or an explicit lane/parent).
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint32_t id, int lane = 0,
          SpanRef parent = {})
        : t_(t), ref_(t.begin(name, id, lane, parent)) {}
    ~Scope() { t_.end(ref_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    SpanRef ref() const { return ref_; }

   private:
    Tracer& t_;
    SpanRef ref_;
  };

  struct Stat {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
    bool leaf = true;  ///< no span of this name ever had a child
  };
  /// Per-name aggregates over every lane.
  std::map<std::string, Stat> stats() const;
  /// Durations (microseconds) of every span named `name`, in record order.
  std::vector<double> durations_us(const std::string& name) const;
  /// Summed duration (ms) of every span named `name`.
  double total_ms(const std::string& name) const;
  /// Wall time (s) of the root spans (spans without a parent).
  double root_wall_s() const;
  /// Union of leaf-span intervals over all lanes / root wall time.
  double coverage() const;
  /// Span count over all lanes.
  std::size_t size() const;

  /// Writes "lane,index,parent_lane,parent_index,id,name,start_ns,end_ns".
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    SpanRef parent;
    std::uint32_t id;
  };
  std::int64_t now_ns() const;
  std::vector<std::vector<SpanRef>> children() const;  ///< flat, lane-major

  Clock::time_point epoch_;
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::vector<SpanRef>> open_;
};

}  // namespace perfbench
