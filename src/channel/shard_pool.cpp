#include "channel/shard_pool.h"

#include <algorithm>

namespace aqua::channel {

ShardPool::ShardPool(int workers) {
  const int w = std::max(1, workers);
  workspaces_.reserve(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    workspaces_.push_back(std::make_unique<dsp::Workspace>());
  }
  threads_.reserve(static_cast<std::size_t>(w - 1));
  for (int i = 1; i < w; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardPool::worker_main(int w) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_start_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }
    try {
      (*job)(w);
    } catch (...) {
      std::lock_guard<std::mutex> lk(m_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(m_);
    if (--pending_ == 0) cv_done_.notify_all();
  }
}

void ShardPool::run(const std::function<void(int)>& job) {
  if (threads_.empty()) {
    job(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    job_ = &job;
    first_error_ = nullptr;
    pending_ = static_cast<int>(threads_.size());
    ++epoch_;
  }
  cv_start_.notify_all();
  std::exception_ptr own_error;
  try {
    job(0);
  } catch (...) {
    own_error = std::current_exception();
  }
  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
  job_ = nullptr;
  if (own_error) std::rethrow_exception(own_error);
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace aqua::channel
