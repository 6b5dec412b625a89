// lint-as: src/phy/fixture.cpp
// The hot seed calls `reset()` on fields of a project type, its own and
// another object's, whose `reset` allocates: a real chain, reported with
// its witness.
#include <cstddef>
#include <span>
#include <vector>

namespace dsp {
struct Workspace {};
}  // namespace dsp

class History {
 public:
  void reset() { buf_.assign(8, 0.0); }

 private:
  std::vector<double> buf_;
};

struct Slot {
  History live;
};

class Scanner {
 public:
  double scan(std::span<const double> x, dsp::Workspace& ws) {
    (void)ws;
    history_.reset();
    slot_.live.reset();
    return x.empty() ? 0.0 : x[0];
  }

 private:
  History history_;
  Slot slot_;
};
