#pragma once
/// \file thread_pool.hpp
/// Fixed-size worker pool for the tiled executor. One pool lives for a
/// whole routing run; each tiled pass is one for_each_overlapped call, so
/// workers (and their per-worker search arenas) are reused instead of
/// being spawned per pass. Determinism does not depend on the pool:
/// callers only hand it tasks whose effects are order-independent (tile
/// computes writing distinct result slots) and sequence all shared-state
/// mutation themselves, on the calling thread.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mrtpl::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` (>= 1) workers immediately.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Run fn(item, worker) for every item in [0, count), distributing
  /// items dynamically over the workers in index order; blocks until all
  /// complete. `worker` is a stable index in [0, size()) identifying the
  /// executing thread, for per-worker scratch state. If any invocation
  /// throws, the first captured exception is rethrown here after the
  /// batch drains. Not reentrant: one call at a time, from one
  /// controlling thread.
  void for_each(std::size_t count, const std::function<void(std::size_t, int)>& fn);

  /// for_each with the calling thread put to work: posts the batch, runs
  /// `caller()` on the calling thread while the workers drain it, and
  /// returns once both have finished. The batch always drains before this
  /// returns or throws, so `fn` never outlives what it captures. A
  /// `caller` exception is rethrown after the drain and wins over worker
  /// exceptions; otherwise the first worker exception is rethrown. The
  /// pool stays usable either way. `caller` may wait on items, and items
  /// on `caller`, as long as neither side waits forever (a caller that
  /// can throw must first release any item waiting on it).
  void for_each_overlapped(std::size_t count,
                           const std::function<void(std::size_t, int)>& fn,
                           const std::function<void()>& caller);

 private:
  void worker_loop(int id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< signals workers: job posted / stop
  std::condition_variable done_cv_;   ///< signals controller: batch drained
  const std::function<void(std::size_t, int)>* job_ = nullptr;
  std::size_t next_ = 0;       ///< next unclaimed item
  std::size_t count_ = 0;      ///< items in the current job
  std::size_t remaining_ = 0;  ///< items not yet finished
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace mrtpl::util
