// lint-as: src/phy/fixture.cpp
// Every construct here allocates on a steady-state path.
#include <cstddef>
#include <memory>
#include <vector>

namespace dsp {
struct Workspace {};
}  // namespace dsp

int* leak_anywhere() {
  return new int(7);
}

std::unique_ptr<int> boxed_anywhere() {
  return std::make_unique<int>(7);
}

double hot_path(const std::vector<double>& in, dsp::Workspace& ws) {
  (void)ws;
  dsp::Workspace local;
  (void)local;
  std::vector<double> scratch(in.size());
  scratch.resize(in.size() * 2);
  scratch.push_back(0.0);
  return scratch.empty() ? 0.0 : scratch[0];
}
