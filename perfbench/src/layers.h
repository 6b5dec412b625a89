// Per-layer reporting shared by the three workloads. Every workload's traced
// run emits the same per-layer metric names in the same order; a layer a
// workload does not exercise reports what it measured (a zero count), never
// an invented time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "channel/noise.h"
#include "common.h"
#include "obs/registry.h"
#include "trace.h"

namespace perfbench {

namespace channel = aqua::channel;
namespace dsp = aqua::dsp;
namespace obs = aqua::obs;

inline constexpr double kFs = 48000.0;
inline constexpr std::size_t kBlock = 480;  ///< samples per clocked block

/// A microphone of the workload: its ambient process and noise seed.
struct MicSpec {
  channel::NoiseParams noise;
  std::uint64_t seed = 0;
};

/// Component pass: mean microseconds per 480-sample block of
/// NoiseGenerator::generate over `mics` and of UnderwaterChannel::Stream::push
/// over `paths` (the workload's own configurations; at most 8 of each). The
/// mean, because overlap-save streams do their transforms on some pushes only.
struct ComponentCost {
  double noise_us_per_block = 0.0;
  double render_us_per_block = 0.0;
};
ComponentCost component_pass(const std::vector<MicSpec>& mics,
                             const std::vector<channel::LinkConfig>& paths);

/// Channel-layer inputs gathered by a traced run.
struct ChannelLayer {
  double build_ms = 0.0;           ///< medium construction + endpoints/paths
  std::vector<double> step_us;     ///< every AcousticMedium::step
  std::uint64_t mic_blocks = 0;    ///< microphone blocks produced
  std::uint64_t rendered_blocks = 0;
  std::uint64_t culled_convolutions = 0;
  std::uint64_t audible_pairs = 0;
  double pool_efficiency = 0.0;    ///< rtf(W=2) / (2 * rtf(W=1))
  ComponentCost component;
};
void add_channel_layers(Result& r, const ChannelLayer& c);

/// Modem-layer inputs gathered by a traced run.
struct CoreLayer {
  double modem_build_ms = 0.0;
  std::vector<double> push_us;     ///< every Modem::push of one block
  double pull_ms = 0.0;            ///< all Modem::pull_tx calls
  double audio_s = 0.0;            ///< audio pushed, summed over modems
  obs::Registry stages;            ///< registry passed to Modem::set_metrics
};
/// Protocol outcome counts (ground truth against what endpoints reported).
struct ProtocolCounts {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t decoded = 0;          ///< kPacketDecoded events
  std::uint64_t decoded_wrong = 0;    ///< ... whose bits were wrong
  std::uint64_t tx_failed = 0;        ///< kTxFailed events
  std::uint64_t ack_truthful = 0;     ///< sender ACK belief == delivered
  std::uint64_t detected_addressed = 0;  ///< preambles confirmed at the addressee
  std::uint64_t overheard = 0;        ///< preambles confirmed elsewhere
};
void add_core_layers(Result& r, const CoreLayer& c, const ProtocolCounts& p);

/// sim.run_ms (the untraced workload loop), sim.coverage (leaf spans
/// over root-span wall) and trace.overhead (the "sim.run" spans over the
/// same work untraced); prints the span table and writes the spans to `path`.
void add_sim_layers(Result& r, const Tracer& t, double run_ms,
                    double untraced_wall_s, const std::string& path);

/// Prints one ratio with its base, e.g. "delivery_ratio 0.8 (96/120)".
void print_ratio(const char* name, std::uint64_t num, std::uint64_t den);

}  // namespace perfbench
