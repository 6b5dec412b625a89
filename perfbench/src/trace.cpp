#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

// Total length of the union of `v` (sorted in place).
std::int64_t union_length(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  bool open = false;
  for (const Interval& iv : v) {
    if (!open || iv.first > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = iv.first;
      cur_end = iv.second;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.second);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

Tracer::Tracer(int lanes)
    : epoch_(Clock::now()),
      lanes_(static_cast<std::size_t>(std::max(lanes, 1))),
      open_(lanes_.size()) {
  lanes_[0].reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

SpanRef Tracer::begin(const char* name, std::uint32_t id, int lane,
                      SpanRef parent) {
  const auto l = static_cast<std::size_t>(lane);
  if (!parent.valid() && !open_[l].empty()) parent = open_[l].back();
  std::vector<Span>& spans = lanes_[l];
  spans.push_back({name, now_ns(), -1, parent, id});
  const SpanRef ref{lane, static_cast<int>(spans.size() - 1)};
  open_[l].push_back(ref);
  return ref;
}

void Tracer::end(SpanRef ref) {
  const auto l = static_cast<std::size_t>(ref.lane);
  lanes_[l][static_cast<std::size_t>(ref.index)].end_ns = now_ns();
  // Spans close in LIFO order on a lane.
  if (!open_[l].empty()) open_[l].pop_back();
}

std::size_t Tracer::size() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.size();
  return n;
}

std::vector<std::vector<SpanRef>> Tracer::children() const {
  std::vector<std::size_t> base(lanes_.size(), 0);
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    base[l] = base[l - 1] + lanes_[l - 1].size();
  }
  std::vector<std::vector<SpanRef>> kids(size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      const SpanRef p = lanes_[l][i].parent;
      if (!p.valid()) continue;
      kids[base[static_cast<std::size_t>(p.lane)] + static_cast<std::size_t>(p.index)]
          .push_back({static_cast<int>(l), static_cast<int>(i)});
    }
  }
  return kids;
}

std::map<std::string, Tracer::Stat> Tracer::stats() const {
  const auto kids = children();
  std::map<std::string, Stat> out;
  std::size_t k = 0;
  std::vector<Interval> iv;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      Stat& st = out[s.name];
      const std::int64_t dur = s.end_ns - s.start_ns;
      iv.clear();
      for (const SpanRef c : kids[k]) {
        const Span& cs = lanes_[static_cast<std::size_t>(c.lane)]
                               [static_cast<std::size_t>(c.index)];
        iv.emplace_back(std::max(cs.start_ns, s.start_ns),
                        std::min(cs.end_ns, s.end_ns));
      }
      const std::int64_t covered = union_length(iv);
      st.total_ms += static_cast<double>(dur) / 1e6;
      st.self_ms += static_cast<double>(dur - covered) / 1e6;
      st.count++;
      if (!kids[k].empty()) st.leaf = false;
      ++k;
    }
  }
  return out;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (const double us : durations_us(name)) sum += us;
  return sum / 1e3;
}

double Tracer::root_wall_s() const {
  std::int64_t total = 0;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (!s.parent.valid()) total += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(total) / 1e9;
}

double Tracer::coverage() const {
  const auto kids = children();
  std::vector<Interval> leaves;
  std::size_t k = 0;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (kids[k].empty() && s.parent.valid()) leaves.emplace_back(s.start_ns, s.end_ns);
      ++k;
    }
  }
  const double wall = root_wall_s();
  return wall > 0.0 ? static_cast<double>(union_length(leaves)) / 1e9 / wall : 0.0;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "lane,index,parent_lane,parent_index,id,name,start_ns,end_ns\n");
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      const Span& s = lanes_[l][i];
      std::fprintf(f, "%zu,%zu,%d,%d,%u,%s,%lld,%lld\n", l, i, s.parent.lane,
                   s.parent.index, s.id, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
