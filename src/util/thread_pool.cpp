#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace mrtpl::util {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t, int)>& fn) {
  for_each_overlapped(count, fn, [] {});
}

void ThreadPool::for_each_overlapped(std::size_t count,
                                     const std::function<void(std::size_t, int)>& fn,
                                     const std::function<void()>& caller) {
  if (count > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &fn;
      next_ = 0;
      count_ = count;
      remaining_ = count;
      first_error_ = nullptr;
    }
    work_cv_.notify_all();
  }
  std::exception_ptr caller_error;
  try {
    caller();
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr worker_error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
    worker_error = std::exchange(first_error_, nullptr);
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

void ThreadPool::worker_loop(int id) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || (job_ != nullptr && next_ < count_); });
    if (stop_) return;
    while (job_ != nullptr && next_ < count_) {
      const std::size_t item = next_++;
      const auto* fn = job_;
      lock.unlock();
      std::exception_ptr err;
      try {
        (*fn)(item, id);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err && !first_error_) first_error_ = err;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace mrtpl::util
