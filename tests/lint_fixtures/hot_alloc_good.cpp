// lint-as: src/phy/fixture.cpp
// Steady-state code leases scratch from the Workspace it was handed; cold
// (non-Workspace) paths may use owning containers and arenas of their own.
#include <cstddef>
#include <vector>

namespace dsp {
struct Workspace {
  double* lease_real(std::size_t n);
};
}  // namespace dsp

double hot_path(const std::vector<double>& in, dsp::Workspace& ws) {
  double* scratch = ws.lease_real(in.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    scratch[i] = in[i] * in[i];
    acc += scratch[i];
  }
  return acc;
}

std::vector<double> cold_path(std::size_t n) {
  std::vector<double> out(n, 0.0);
  out.push_back(1.0);
  dsp::Workspace local;  // a one-shot builder's own arena
  out[0] = *local.lease_real(1);
  return out;
}
