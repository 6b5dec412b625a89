// Single-producer/single-consumer sample ring for the sharded medium.
//
// One ring sits at each per-microphone mix point: the worker that owns a
// directed path renders its block into the ring (producer), and the mixing
// thread drains it in the canonical accumulation order (consumer). The
// producer publishes with a release store of the write index and the
// consumer observes it with an acquire load, so the sample memory itself
// needs no atomics; neither side ever blocks the other. Capacity is fixed
// between steps — the coordinator sizes the ring for the largest block
// while no worker is running, so a push can never overrun a well-sized
// ring (overrun is a programming error and asserts in debug builds).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace aqua::channel {

/// Lock-free SPSC ring of doubles with acquire/release publication.
class SpscRing {
 public:
  /// Grows the ring to hold at least `n` samples. Must only be called
  /// while no producer or consumer is active (between medium steps).
  void ensure_capacity(std::size_t n) {
    std::size_t cap = buf_.size();
    if (cap >= n + 1) return;  // one slot is kept empty (full != empty)
    if (cap == 0) cap = 16;
    while (cap < n + 1) cap *= 2;
    assert(head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_relaxed));
    buf_.assign(cap, 0.0);
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  /// Samples currently readable (consumer side).
  std::size_t available() const {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    return (t + buf_.size() - h) % buf_.size();
  }

  /// Free slots (producer side).
  std::size_t free_space() const {
    const std::size_t h = head_.load(std::memory_order_acquire);
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    return buf_.size() - 1 - (t + buf_.size() - h) % buf_.size();
  }

  /// Producer: appends `src`; requires free_space() >= src.size().
  void push(std::span<const double> src) {
    assert(free_space() >= src.size());
    const std::size_t cap = buf_.size();
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    // At most two contiguous runs: up to the end of the buffer, then from
    // its start.
    const std::size_t first = std::min(src.size(), cap - t);
    std::copy_n(src.begin(), first, buf_.begin() + static_cast<std::ptrdiff_t>(t));
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(first), src.end(),
              buf_.begin());
    tail_.store((t + src.size()) % cap, std::memory_order_release);
  }

  /// Consumer: adds the next `n` samples into `dst[0..n)` and consumes
  /// them; requires available() >= n.
  void consume_add(std::span<double> dst, std::size_t n) {
    assert(available() >= n && dst.size() >= n);
    const std::size_t cap = buf_.size();
    const std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t first = std::min(n, cap - h);
    for (std::size_t i = 0; i < first; ++i) dst[i] += buf_[h + i];
    for (std::size_t i = first; i < n; ++i) dst[i] += buf_[i - first];
    head_.store((h + n) % cap, std::memory_order_release);
  }

 private:
  std::vector<double> buf_;  ///< cap - 1 usable slots
  std::atomic<std::size_t> head_{0};  ///< consumer read index
  std::atomic<std::size_t> tail_{0};  ///< producer write index
};

}  // namespace aqua::channel
