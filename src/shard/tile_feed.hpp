#pragma once
/// \file tile_feed.hpp
/// The hand-off between a tiled pass's tile tasks and its commit walk
/// (core/sharded_router.cpp). The walk runs on the calling thread while
/// the pool routes the tiles, so both sides meet here:
///
///  * Slots. A pass's nets sit in slots 0..n-1, in ripped order. A tile
///    task publishes each interior slot's outcome as soon as it has it;
///    the walk consumes slot k only after its publication (release /
///    acquire on a per-slot state), so it never waits for a whole tile.
///  * View cut. A tile task may copy its grid view only once the walk has
///    arrived at the tile's first slot. The walk mutates nothing from then
///    until that slot is published, so every view is exactly the serial
///    prefix at its tile's first slot, whatever the thread count.
///  * Close. The walk closes the feed when it stops, normally or by an
///    exception or a budget skip. Closing releases every tile task still
///    waiting for its cut; tasks stop routing and publish the rest of
///    their slots as abandoned, so no side can wait forever.
///
/// Tiles must be dispatched in first-slot order: a worker holding a tile
/// whose first slot the walk cannot reach, while the walk waits on a tile
/// nobody has claimed, would deadlock the pass.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace mrtpl::shard {

class TileFeed {
 public:
  /// A feed over `slots` slots, all pending.
  explicit TileFeed(std::size_t slots);

  /// Mark slot k as the first slot of a dispatched tile (before dispatch).
  void mark_first(std::size_t k) { first_[k] = 1; }

  // ---- walk side (one thread) -----------------------------------------
  /// Block until slot k is published. True when it carries an outcome,
  /// false when its tile abandoned it (the walk recomputes it). When k is
  /// a tile's first slot, arriving here lets that tile cut its view.
  bool await(std::size_t k);
  /// The walk has stopped: release every tile task. Idempotent.
  void close();
  /// Wall time await() spent blocked.
  [[nodiscard]] double waited_s() const { return waited_s_; }

  // ---- tile side (pool workers) ---------------------------------------
  /// Block until the walk arrives at `first` (true) or closes (false).
  bool wait_for_cut(std::size_t first);
  /// Publish slot k: `ready` when its outcome is written, false to
  /// abandon it. Every slot of a dispatched tile must be published.
  void publish(std::size_t k, bool ready);
  [[nodiscard]] bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// After the pass has drained: whether slot k carries an outcome.
  [[nodiscard]] bool ready(std::size_t k) const {
    return state_[k].load(std::memory_order_acquire) == kReady;
  }

 private:
  enum : std::uint8_t { kPending = 0, kReady = 1, kAbandoned = 2 };

  std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
  std::unique_ptr<std::uint8_t[]> first_;
  std::mutex mutex_;
  std::condition_variable published_cv_;  ///< signals the walk
  std::condition_variable cut_cv_;        ///< signals waiting tile tasks
  std::size_t walk_at_ = 0;  ///< last first slot the walk arrived at
  std::atomic<bool> closed_{false};
  double waited_s_ = 0.0;
};

}  // namespace mrtpl::shard
