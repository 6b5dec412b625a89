// The packet-level figures, each declared once: every point (label,
// session configuration, seed) of figs. 9, 10, 11, 12a-c, 14, 15 and 17.
// Each figure bench prints its tables from its declaration's stats, and
// bench_sweep_all runs every declaration in one process. Both go through
// sim::SweepRunner::run_points, so at equal packet counts a point's stats
// are the same whichever binary runs it. Every point keeps the seed its
// figure has always used.
//
// Figures 9, 10, 12 and 15 are tables of band scheme x one axis: row r of
// band_schemes() and column c of the axis is point r * columns + c.
#pragma once

#include <iterator>
#include <utility>

#include "bench_common.h"

namespace aqua::bench {

/// One figure's packet batches, in the order its tables read them.
struct Figure {
  std::string title;  ///< table title in bench_sweep_all
  std::vector<sim::SweepPoint> points;
  std::size_t payload_bits = 16;
};

/// A table row's band scheme: the adaptive system, or one of the paper's
/// fixed-bandwidth baselines.
struct BandScheme {
  const char* name;                        ///< table row name
  std::optional<phy::BandSelection> band;  ///< nullopt = adaptive
};

inline const BandScheme kAdaptive{"adaptive (ours)", std::nullopt};

/// Adaptive first, then 1-4 kHz (60 bins), 1-2.5 kHz (30), 1-1.5 kHz (10).
inline std::vector<BandScheme> band_schemes() {
  return {kAdaptive,
          {"fixed 3.0 kHz (1-4 kHz)", phy::BandSelection{0, 59, false}},
          {"fixed 1.5 kHz (1-2.5 kHz)", phy::BandSelection{0, 29, false}},
          {"fixed 0.5 kHz (1-1.5 kHz)", phy::BandSelection{0, 9, false}}};
}

/// A point label, printf-formatted, tagged " [<scheme>]" on a fixed band.
template <typename... Args>
std::string label(const BandScheme& scheme, const char* fmt, Args... args) {
  char buf[128];
  std::snprintf(buf, sizeof buf, fmt, args...);
  std::string out = buf;
  if (scheme.band) {
    out += " [";
    out += scheme.name;
    out += ']';
  }
  return out;
}

/// The site's preset link at `range_m` on `scheme`'s band.
inline core::SessionConfig link_at(channel::Site site, double range_m,
                                   const BandScheme& scheme = kAdaptive) {
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(site);
  cfg.forward.range_m = range_m;
  cfg.fixed_band = scheme.band;
  return cfg;
}

inline core::SessionConfig lake_in_motion(channel::MotionKind kind) {
  core::SessionConfig cfg = link_at(channel::Site::kLake, 5.0);
  cfg.forward.motion = kind;
  return cfg;
}

/// Fig. 9: three environments at 5 m.
inline constexpr channel::Site kFig09Sites[] = {
    channel::Site::kBridge, channel::Site::kPark, channel::Site::kLake};

inline Figure fig09_environments() {
  Figure f{"fig09: band scheme x environment at 5 m", {}};
  const std::vector<BandScheme> schemes = band_schemes();
  for (std::size_t r = 0; r < schemes.size(); ++r) {
    for (std::size_t c = 0; c < std::size(kFig09Sites); ++c) {
      const channel::Site site = kFig09Sites[c];
      // Seeds count points site-major, the order fig. 9 first ran them in.
      f.points.push_back(
          {label(schemes[r], "%s 5m", channel::site_name(site).c_str()),
           link_at(site, 5.0, schemes[r]),
           9000 + (c * schemes.size() + r) * 7919});
    }
  }
  return f;
}

/// Fig. 10: museum (9 m of water), 5 m apart, both phones at each depth.
inline constexpr double kFig10Depths[] = {2.0, 5.0, 7.0};

inline Figure fig10_depth() {
  Figure f{"fig10: band scheme x depth, museum 5 m", {}};
  for (const BandScheme& s : band_schemes()) {
    for (double depth : kFig10Depths) {
      core::SessionConfig cfg = link_at(channel::Site::kMuseum, 5.0, s);
      cfg.forward.tx_depth_m = depth;
      cfg.forward.rx_depth_m = depth;
      const std::uint64_t seed = s.band ? 11500 + static_cast<int>(depth) * 29
                                        : 11000 + static_cast<int>(depth) * 23;
      f.points.push_back({label(s, "Museum 5m depth %.0fm", depth), cfg, seed});
    }
  }
  return f;
}

/// Fig. 11: bay, 3.5 m apart at 12 m depth; point 0 in the hard case, point
/// 1 the soft-pouch ablation.
inline Figure fig11_deep() {
  Figure f{"fig11: bay 12 m deep, hard case vs soft pouch", {}};
  core::SessionConfig cfg = link_at(channel::Site::kBay, 3.5);
  cfg.forward.tx_depth_m = 12.0;
  cfg.forward.rx_depth_m = 12.0;
  for (const channel::CaseType casing :
       {channel::CaseType::kHardCase, channel::CaseType::kSoftPouch}) {
    const bool hard = casing == channel::CaseType::kHardCase;
    cfg.forward.tx_device =
        channel::DeviceProfile(channel::DeviceModel::kGalaxyS9, 1, casing);
    cfg.forward.rx_device =
        channel::DeviceProfile(channel::DeviceModel::kGalaxyS9, 2, casing);
    f.points.push_back({hard ? "Bay 3.5m depth 12m hard case"
                             : "Bay 3.5m depth 12m soft pouch",
                        cfg, hard ? 12000u : 12100u});
  }
  return f;
}

/// Fig. 12a-c: lake, 5-30 m.
inline constexpr double kFig12Ranges[] = {5.0, 10.0, 20.0, 30.0};

inline Figure fig12_range() {
  Figure f{"fig12: band scheme x range, lake", {}};
  for (const BandScheme& s : band_schemes()) {
    for (double r : kFig12Ranges) {
      const std::uint64_t seed = s.band ? 13500 + static_cast<int>(r) * 41
                                        : 13000 + static_cast<int>(r) * 37;
      f.points.push_back({label(s, "Lake %.0fm", r),
                          link_at(channel::Site::kLake, r, s), seed});
    }
  }
  return f;
}

/// Fig. 14: lake, 5 m, static and the two measured motion regimes.
inline constexpr std::pair<channel::MotionKind, const char*> kFig14Motions[] = {
    {channel::MotionKind::kStatic, "static"},
    {channel::MotionKind::kSlow, "slow (2.5 m/s^2)"},
    {channel::MotionKind::kFast, "fast (5.1 m/s^2)"},
};

/// Fig. 14a,b: one point per motion regime.
inline Figure fig14_mobility() {
  Figure f{"fig14a,b: lake 5 m, mobility", {}};
  for (const auto& motion : kFig14Motions) {
    const channel::MotionKind kind = motion.first;
    f.points.push_back(
        {label(kAdaptive, "Lake 5m %s", sim::motion_name(kind).c_str()),
         lake_in_motion(kind), 15000u + 7 * static_cast<unsigned>(kind)});
  }
  return f;
}

/// Fig. 14c: per motion regime, with then without differential coding, on
/// a 128-bit payload so within-packet channel drift matters (the paper's
/// point: the channel changes between the first and last symbol).
inline Figure fig14c_differential() {
  Figure f{"fig14c: lake 5 m, mobility x differential coding", {}, 128};
  for (const auto& motion : kFig14Motions) {
    const channel::MotionKind kind = motion.first;
    for (bool diff : {true, false}) {
      core::SessionConfig cfg = lake_in_motion(kind);
      cfg.decode.use_differential = diff;
      f.points.push_back(
          {label(kAdaptive, "Lake 5m %s %s", sim::motion_name(kind).c_str(),
                 diff ? "differential" : "no differential"),
           cfg, 15500u + 11 * static_cast<unsigned>(kind) + (diff ? 0 : 1)});
    }
  }
  return f;
}

/// Fig. 15: bridge, 5 m, transmitter azimuth 0-180 degrees.
inline constexpr double kFig15Angles[] = {0.0, 45.0, 90.0, 135.0, 180.0};

inline Figure fig15_orientation() {
  Figure f{"fig15: band scheme x azimuth, bridge 5 m", {}};
  for (const BandScheme& s : band_schemes()) {
    for (double a : kFig15Angles) {
      core::SessionConfig cfg = link_at(channel::Site::kBridge, 5.0, s);
      cfg.forward.tx_azimuth_deg = a;
      const std::uint64_t seed = s.band ? 16500 + static_cast<int>(a) * 7
                                        : 16000 + static_cast<int>(a) * 3;
      f.points.push_back({label(s, "Bridge 5m azimuth %.0fdeg", a), cfg, seed});
    }
  }
  return f;
}

/// Fig. 17: lake, OFDM subcarrier spacing x range.
inline constexpr double kFig17Spacings[] = {50.0, 25.0, 10.0};
inline constexpr double kFig17Ranges[] = {5.0, 20.0};

inline Figure fig17_spacing() {
  Figure f{"fig17: subcarrier spacing x range, lake", {}};
  for (double spacing : kFig17Spacings) {
    for (double range : kFig17Ranges) {
      core::SessionConfig cfg = link_at(channel::Site::kLake, range);
      cfg.params = phy::OfdmParams::with_spacing(spacing);
      f.points.push_back(
          {label(kAdaptive, "Lake %.0fm spacing %.0fHz", range, spacing), cfg,
           18000u + static_cast<unsigned>(spacing) * 13 +
               static_cast<unsigned>(range)});
    }
  }
  return f;
}

/// Every declaration above, in figure order.
inline std::vector<Figure> packet_figures() {
  return {fig09_environments(), fig10_depth(),    fig11_deep(),
          fig12_range(),        fig14_mobility(), fig14c_differential(),
          fig15_orientation(),  fig17_spacing()};
}

/// Runs `packets` packets of every point of `fig` on a sweep pool of
/// `threads` workers (0 = auto); result k belongs to fig.points[k].
inline std::vector<BatchStats> run_figure(const Figure& fig, int packets,
                                          int threads) {
  sim::RunnerOptions opts;
  opts.threads = threads;
  return sim::SweepRunner(opts).run_points(fig.points, packets,
                                           fig.payload_bits);
}

/// Prints one row per band scheme of a scheme x axis figure with `columns`
/// axis values: the scheme's name, then cell(stats) for each column.
template <typename Cell>
void print_scheme_rows(const std::vector<BatchStats>& stats,
                       std::size_t columns, Cell cell) {
  const std::vector<BandScheme> schemes = band_schemes();
  for (std::size_t r = 0; r < schemes.size(); ++r) {
    std::printf("%-28s", schemes[r].name);
    for (std::size_t c = 0; c < columns; ++c) cell(stats[r * columns + c]);
    std::printf("\n");
  }
}

}  // namespace aqua::bench
