// Steady-state allocation checks: this binary replaces the global
// operator new with a counting one, so a test can assert that a warmed-up
// streaming path performs no heap allocation at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "channel/environment.h"
#include "channel/noise.h"
#include "dsp/workspace.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t size = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size == 0 ? a : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aqua::channel {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Alloc, CounterSeesAnAllocation) {
  const std::uint64_t before = allocations();
  auto* v = new std::vector<double>(16);
  delete v;
  EXPECT_GE(allocations() - before, 2u);
}

TEST(Alloc, NoiseGenerateAllocatesNothingAfterWarmUp) {
  // One second of 480-sample blocks warms the generator and the arena;
  // after that neither 200 more blocks nor a ragged run (chunks shorter
  // than, across and much longer than the 1537-sample shaping block)
  // may allocate. Every preset runs, so the bursts and tones are covered.
  const std::size_t ragged[] = {1, 479, 7, 1537, 1538, 333, 5000, 2};
  for (const Site site : all_sites()) {
    NoiseGenerator gen(site_preset(site).noise, 48000.0, 29);
    dsp::Workspace ws;
    std::vector<double> buf(5000);
    const std::span<double> block = std::span<double>(buf).first(480);
    for (int i = 0; i < 100; ++i) gen.generate(block, ws);
    const std::uint64_t before = allocations();
    for (int i = 0; i < 200; ++i) gen.generate(block, ws);
    const std::uint64_t after_blocks = allocations();
    for (const std::size_t n : ragged) {
      gen.generate(std::span<double>(buf).first(n), ws);
    }
    const std::uint64_t after_ragged = allocations();
    EXPECT_EQ(after_blocks - before, 0u) << site_name(site);
    EXPECT_EQ(after_ragged - after_blocks, 0u) << site_name(site);
  }
}

}  // namespace
}  // namespace aqua::channel
