// Fixed worker pool: the one place the project starts threads.
//
// The acoustic medium, the modem network and the scenario sweep all run
// on it. The worker count is fixed at construction, every worker owns a
// private dsp::Workspace arena, and all cross-thread aggregation happens
// on the coordinating thread in a fixed order — the pool itself only
// provides the "run this job on every worker index and wait" barrier.
// One worker (index 0) is always the calling thread, so a single-worker
// pool spawns no threads at all and run() is a plain function call;
// callers keep one code path for every worker count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dsp/workspace.h"

namespace aqua::channel {

/// Epoch-barrier worker pool: run(job) invokes job(w) once per worker
/// index w in [0, workers()), with worker 0 on the calling thread, and
/// returns when every invocation finished. An exception thrown by a job
/// is rethrown after the barrier (the caller's own first, else the first
/// one a worker recorded), and the pool stays usable.
class ShardPool {
 public:
  /// `workers` below 1 means 1.
  explicit ShardPool(int workers);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  int workers() const { return static_cast<int>(workspaces_.size()); }

  /// Per-worker scratch arena (stable addresses for the pool's lifetime).
  dsp::Workspace& workspace(int w) {
    return *workspaces_[static_cast<std::size_t>(w)];
  }

  void run(const std::function<void(int)>& job);

 private:
  void worker_main(int w);

  std::vector<std::unique_ptr<dsp::Workspace>> workspaces_;
  std::vector<std::thread> threads_;  ///< workers 1..W-1 (0 is the caller)

  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace aqua::channel
