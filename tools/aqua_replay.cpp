// aqua_replay — re-drives recorded .aqt traces through freshly built
// core::Modem endpoints and verifies that the replayed ModemEvent sequences
// are bit-identical to the recorded ones.
//
//   aqua_replay trace.aqt [more.aqt ...]
//
// Exit status 0 iff every trace replays and matches. This is the CI
// regression gate over tests/traces/: a divergence means a protocol or DSP
// change broke the absolute-timeline determinism contract (or genuinely
// changed behavior, in which case the corpus is regenerated with
// aqua_capture and the diff reviewed).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "obs/replay.h"
#include "obs/trace.h"

namespace {

void print_usage() {
  std::fprintf(stderr,
               "usage: aqua_replay [-v] trace.aqt [more.aqt ...]\n"
               "  -v  also list per-endpoint metadata and event counts\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "-h") == 0 ||
               std::strcmp(argv[i], "--help") == 0) {
      print_usage();
      return 0;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) {
    print_usage();
    return 2;
  }

  int failures = 0;
  aqua::dsp::Workspace ws;
  for (const std::string& path : paths) {
    try {
      const aqua::obs::Trace trace = aqua::obs::read_trace(path);
      if (verbose) {
        const std::string name = trace.meta("name");
        const std::string scenario = trace.meta("scenario");
        std::printf("%s:%s%s\n", path.c_str(),
                    name.empty() ? "" : (" " + name).c_str(),
                    scenario.empty() ? "" : (" [" + scenario + "]").c_str());
        for (int ep : trace.endpoints()) {
          std::printf("  endpoint %d: %zu pushes, %zu events\n", ep,
                      trace.push_count(ep), trace.event_count(ep));
        }
      }
      const aqua::obs::ReplayResult result = aqua::obs::replay_trace(trace, ws);
      if (result.ok) {
        std::printf("PASS %s (%s)\n", path.c_str(), result.summary().c_str());
      } else {
        std::printf("FAIL %s: %s\n", path.c_str(), result.summary().c_str());
        failures++;
      }
    } catch (const std::exception& e) {
      std::printf("FAIL %s: %s\n", path.c_str(), e.what());
      failures++;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d of %zu trace(s) failed\n", failures,
                 paths.size());
  }
  return failures == 0 ? 0 : 1;
}
