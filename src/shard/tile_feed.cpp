#include "shard/tile_feed.hpp"

#include "util/timer.hpp"

namespace mrtpl::shard {

TileFeed::TileFeed(std::size_t slots)
    : state_(std::make_unique<std::atomic<std::uint8_t>[]>(slots)),
      first_(std::make_unique<std::uint8_t[]>(slots)) {}

bool TileFeed::await(std::size_t k) {
  if (first_[k] != 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      walk_at_ = k;
    }
    cut_cv_.notify_all();
  }
  std::uint8_t s = state_[k].load(std::memory_order_acquire);
  if (s == kPending) {
    const util::Timer timer;
    std::unique_lock<std::mutex> lock(mutex_);
    published_cv_.wait(lock, [&] {
      s = state_[k].load(std::memory_order_acquire);
      return s != kPending;
    });
    waited_s_ += timer.elapsed_s();
  }
  return s == kReady;
}

void TileFeed::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_.store(true, std::memory_order_release);
  }
  cut_cv_.notify_all();
}

bool TileFeed::wait_for_cut(std::size_t first) {
  std::unique_lock<std::mutex> lock(mutex_);
  cut_cv_.wait(lock, [&] { return closed() || walk_at_ >= first; });
  return !closed();
}

void TileFeed::publish(std::size_t k, bool ready) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_[k].store(ready ? kReady : kAbandoned, std::memory_order_release);
  }
  published_cv_.notify_one();
}

}  // namespace mrtpl::shard
