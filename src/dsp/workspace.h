// Reusable scratch-buffer arena for the zero-allocation DSP core.
//
// Every hot-path primitive (FFT transforms, overlap-save filtering,
// correlation, the modem decode chain) takes a Workspace& and leases its
// scratch buffers from it instead of constructing fresh std::vectors. A
// lease keeps the vector's capacity when it returns to the pool, so after
// one warm-up pass a steady-state pipeline performs no heap allocation in
// its inner loops.
//
// The arena pools five element types: double / cplx for the double-precision
// estimation tail, float / cplxf for the single-precision receive front end,
// and uint32 for SIMD index lanes. The generic acquire<V>/release<V>/
// Scratch<V> interface picks the pool by element type so code templated on
// the sample type leases without branching; ScratchReal/ScratchCplx/
// ScratchU32 are aliases kept for the existing double call sites.
//
// Threading contract: a Workspace is single-threaded state. Whoever drives
// a pipeline owns its arena and passes it down: each ShardPool worker owns one, a Modem built without
// one owns its own, and one-shot builders that return a fresh vector
// declare a local one. Buffer contents are always fully overwritten by the
// primitive that leases them, so results never depend on which arena a
// call leased from or what a previous lease left behind — that is what
// keeps sweep output bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsp/types.h"

namespace aqua::dsp {

/// Pool of reusable scratch vectors (double, float, cplx, cplxf, uint32).
/// Lease via Scratch<V> below (RAII), or acquire/release directly for
/// members.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Takes a buffer from the pool (or a fresh one) resized to `n`.
  /// Contents are unspecified; callers must overwrite what they read.
  template <typename V>
  std::vector<V> acquire(std::size_t n) {
    std::vector<V> buf = pop(pool<V>());
    buf.resize(n);
    return buf;
  }

  /// Returns a buffer (keeping its capacity) for the next acquire.
  template <typename V>
  void release(std::vector<V>&& buf) {
    pool<V>().push_back(std::move(buf));
  }

  /// Pool sizes (buffers currently at rest) — used by tests.
  std::size_t pooled_real() const { return real_pool_.size(); }
  std::size_t pooled_cplx() const { return cplx_pool_.size(); }
  std::size_t pooled_realf() const { return realf_pool_.size(); }
  std::size_t pooled_cplxf() const { return cplxf_pool_.size(); }

 private:
  template <typename V>
  std::vector<std::vector<V>>& pool() {
    if constexpr (std::is_same_v<V, double>) {
      return real_pool_;
    } else if constexpr (std::is_same_v<V, float>) {
      return realf_pool_;
    } else if constexpr (std::is_same_v<V, cplx>) {
      return cplx_pool_;
    } else if constexpr (std::is_same_v<V, cplxf>) {
      return cplxf_pool_;
    } else {
      static_assert(std::is_same_v<V, std::uint32_t>,
                    "Workspace pools double/float/cplx/cplxf/uint32 only");
      return u32_pool_;
    }
  }

  template <typename V>
  static V pop(std::vector<V>& pool) {
    if (pool.empty()) return V{};
    V buf = std::move(pool.back());
    pool.pop_back();
    return buf;
  }

  std::vector<std::vector<double>> real_pool_;
  std::vector<std::vector<float>> realf_pool_;
  std::vector<std::vector<cplx>> cplx_pool_;
  std::vector<std::vector<cplxf>> cplxf_pool_;
  std::vector<std::vector<std::uint32_t>> u32_pool_;
};

/// RAII lease of a scratch vector of `V` sized to `n`.
template <typename V>
class Scratch {
 public:
  Scratch(Workspace& ws, std::size_t n)
      : ws_(ws), buf_(ws.acquire<V>(n)) {}
  ~Scratch() { ws_.release(std::move(buf_)); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::vector<V>& operator*() { return buf_; }
  std::vector<V>* operator->() { return &buf_; }
  std::span<V> span() { return buf_; }

 private:
  Workspace& ws_;
  std::vector<V> buf_;
};

/// Aliases kept for the existing double-precision call sites.
using ScratchReal = Scratch<double>;
using ScratchCplx = Scratch<cplx>;
using ScratchU32 = Scratch<std::uint32_t>;
using ScratchRealF = Scratch<float>;
using ScratchCplxF = Scratch<cplxf>;

}  // namespace aqua::dsp
