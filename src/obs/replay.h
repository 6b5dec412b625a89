// Trace replay: re-drives freshly constructed core::Modem endpoints from a
// recorded .aqt operation log and bit-compares the events they emit against
// the recorded event stream.
//
// Replay works because the trace is an op log on the absolute sample
// timeline: every push carries its start position and full-rate samples,
// every pull its requested length (pulls advance the transmit clock even
// when the queue is silent, so queue-end positions depend on pull history),
// and sends/payload-size changes sit in op order between them. Re-executing
// the per-endpoint op sequence against a Modem rebuilt from the recorded
// ModemConfig must reproduce the recorded ModemEvent sequence byte for byte
// — doubles compared as IEEE-754 bit patterns, not with a tolerance.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dsp/workspace.h"
#include "obs/trace.h"

namespace aqua::obs {

/// Outcome of replaying one endpoint.
struct EndpointReplay {
  int endpoint = -1;
  std::size_t recorded_events = 0;
  std::size_t replayed_events = 0;
  bool match = false;
  /// Human-readable description of the first divergence (empty on match).
  std::string mismatch;
};

struct ReplayResult {
  bool ok = false;  ///< every endpoint replayed and matched bit-exactly
  std::vector<EndpointReplay> endpoints;
  /// One-line summary (counts on success, first failure otherwise).
  std::string summary() const;
};

/// Replays `trace` and verifies event-sequence bit-identity. Throws
/// std::runtime_error when the trace is not replayable at all (no endpoint
/// records, decimated mic samples); divergence during replay is reported in
/// the result, not thrown. `ws` is the DSP scratch arena to lease from.
ReplayResult replay_trace(const Trace& trace, dsp::Workspace& ws);

}  // namespace aqua::obs
