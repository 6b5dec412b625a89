// lint-as: src/phy/fixture.cpp
// Same shape as std_receiver_bad.cpp, but the fields the hot seed resets
// have `std::` types, its own and another object's: their `reset()` is the
// library's, so the allocating `History::reset` of the same name is not
// reached.
#include <cstddef>
#include <memory>
#include <optional>
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
  std::unique_ptr<History> live;
};

class Scanner {
 public:
  double scan(std::span<const double> x, dsp::Workspace& ws) {
    (void)ws;
    pending_.reset();
    slot_.live.reset();
    return x.empty() ? 0.0 : x[0];
  }

 private:
  std::optional<double> pending_;
  Slot slot_;
};
