// Multi-node MAC simulation for the Fig. 19 experiment.
//
// Nodes share a half-duplex acoustic medium with propagation delay and
// distance attenuation. Each transmitter repeatedly sends fixed-duration
// packets after random idle gaps; with carrier sense enabled it follows the
// paper's protocol: listen, defer with a random backoff counted in packet
// durations, extend the backoff by one packet whenever the channel is heard
// busy during the countdown, transmit when the remaining backoff elapses on
// an idle channel. Collisions are scored exactly as the paper scores them:
// two packets whose transmit times fall within one packet duration of each
// other.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "channel/medium.h"
#include "core/modem.h"

namespace aqua::mac {

/// Node placement patterns shared by both simulators. kLine is the paper's
/// Fig. 19 transect; kGrid is a square lattice (MAC scaling curves);
/// kHarbor is the dense-deployment scenario — anchorage groups of ~10
/// nodes a few meters apart, groups on a kilometers-pitch grid beyond the
/// 1-4 kHz audibility horizon, so culling keeps the live pair set near
/// O(group size * N).
enum class Placement { kLine, kGrid, kHarbor };

/// Deterministic 2-D positions (meters) for `n` nodes under `placement`.
/// A pure function of (placement, n, spacing_m, seed) — never of the order
/// anything gets attached in.
std::vector<std::pair<double, double>> place_nodes(Placement placement, int n,
                                                   double spacing_m,
                                                   std::uint64_t seed);

/// Per-run MAC simulation parameters.
struct MacSimConfig {
  int num_transmitters = 3;
  int packets_per_transmitter = 120;  ///< paper: up to 120
  double packet_duration_s = 0.6;     ///< preamble+header+feedback+data
  double cs_interval_s = 0.08;        ///< energy measurement cadence
  bool carrier_sense = true;
  double min_gap_s = 1.0;             ///< idle gap between a node's packets
  double max_gap_s = 5.0;
  int max_backoff_packets = 8;        ///< random backoff upper bound
  double range_m = 7.5;               ///< tx-to-tx distance scale (5-10 m)
  double sound_speed_mps = 1500.0;
  /// kLine keeps the paper's exact transect spacing (range_m-scaled);
  /// kGrid/kHarbor use place_nodes with range_m as the lattice spacing.
  Placement placement = Placement::kLine;
  std::uint64_t seed = 1;
};

/// One transmitted packet record.
struct PacketRecord {
  int node = 0;
  double tx_time_s = 0.0;
  bool collided = false;
};

/// Aggregate result of a MAC simulation run.
struct MacSimResult {
  std::vector<PacketRecord> packets;
  int total_packets = 0;
  int collided_packets = 0;
  double collision_fraction = 0.0;
  double duration_s = 0.0;
  /// Per-transmitter collision fractions (Fig. 19 bars).
  std::vector<double> per_node_fraction;
  /// Fraction of packets delivered collision-free — the scaling-curve
  /// metric the fig19 bench plots against network size.
  double delivery_ratio() const { return 1.0 - collision_fraction; }
};

/// Runs the time-stepped MAC simulation.
MacSimResult run_mac_simulation(const MacSimConfig& config);

/// Waveform-level multi-node network: N duplex core::Modem endpoints
/// attached to one shared channel::AcousticMedium, in the Fig. 19 line
/// deployment (nodes spaced along a transect at one site). Where
/// run_mac_simulation() abstracts packets into intervals, this runs the
/// actual modem pipeline — preambles collide as audio, feedback symbols
/// mix, and third parties overhear real preambles they are not addressed
/// by.
struct ModemNetworkConfig {
  int nodes = 3;
  channel::Site site = channel::Site::kBridge;
  Placement placement = Placement::kLine;
  double spacing_m = 5.0;   ///< distance between adjacent nodes
  double depth_m = 1.0;
  bool noise_enabled = true;
  std::uint8_t id_base = 20;  ///< node i answers to active bin id_base + i
  std::uint64_t seed = 1;
  core::ModemConfig modem;    ///< shared protocol config (my_id overridden)
  /// Medium worker-pool size (values below 1 mean 1). The per-modem DSP
  /// shards over the same pool; every worker count produces bit-identical
  /// events.
  int medium_workers = 1;
  /// Audibility culling on the shared medium (dense deployments).
  bool cull = false;
  channel::AudibilityParams cull_params;
  /// Pairs whose center distance exceeds this never even connect
  /// (meters). Negative = connect every ordered pair (legacy). 0 = derive
  /// automatically from the audibility bound (requires cull = true); the
  /// auto cut adds 10 minutes of site drift as mobility slack, so runs
  /// longer than that should set an explicit radius.
  double connect_radius_m = -1.0;
};

class ModemNetwork {
 public:
  /// Node i's DSP (scanners, tone/band/data decodes) leases scratch from
  /// the medium pool's arena i % workers, the worker that runs it.
  explicit ModemNetwork(const ModemNetworkConfig& config);

  int nodes() const { return static_cast<int>(modems_.size()); }
  core::Modem& node(int i) { return *modems_[static_cast<std::size_t>(i)]; }
  std::uint8_t node_id(int i) const {
    return static_cast<std::uint8_t>(config_.id_base + i);
  }

  /// Queues `info_bits` at node `from`, addressed to node `to`.
  void send(int from, std::span<const std::uint8_t> info_bits, int to);

  /// Clocks all modems through the medium for `seconds`; returns the
  /// events each node emitted (indexed by node). Each modem's DSP runs on
  /// its shard's worker (through the medium's pool) — the event sequences
  /// are bit-identical for any worker count.
  std::vector<std::vector<core::ModemEvent>> run(double seconds);

  /// Join/leave churn: an inactive node transmits silence, receives
  /// nothing (its modem state freezes), and its medium paths are culled.
  void set_node_active(int i, bool active);
  bool node_active(int i) const {
    return node_active_[static_cast<std::size_t>(i)];
  }

  /// Node position on the deployment plane (meters).
  std::pair<double, double> position(int i) const {
    return positions_[static_cast<std::size_t>(i)];
  }

  /// The connect radius actually applied (1e9 when connecting all pairs).
  double connect_radius_m() const { return connect_radius_m_; }

  channel::AcousticMedium& medium() { return *medium_; }

 private:
  ModemNetworkConfig config_;
  std::unique_ptr<channel::AcousticMedium> medium_;
  std::vector<std::unique_ptr<core::Modem>> modems_;
  std::vector<std::pair<double, double>> positions_;
  std::vector<bool> node_active_;
  double connect_radius_m_ = 1e9;
};

}  // namespace aqua::mac
