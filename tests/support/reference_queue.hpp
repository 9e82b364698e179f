#pragma once
/// \file reference_queue.hpp
/// Reference priority queue for the search hot path's queue oracle: a
/// binary heap ordered by (quantized key, push sequence), the legacy
/// engine core::BucketQueue replaced. test_search_arena compares the two
/// element for element; the router itself only ever uses BucketQueue.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/search_arena.hpp"

namespace mrtpl::test {

/// A binary heap over the (qkey, seq) order. Implemented on a plain
/// vector (std::push_heap/pop_heap) so clear() keeps the allocation, like
/// the queue it checks.
class HeapQueue {
 public:
  void clear() { items_.clear(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  void push(std::uint64_t qkey, const core::QueueItem& item, std::uint32_t seq) {
    items_.push_back({qkey, seq, item});
    std::push_heap(items_.begin(), items_.end(), After{});
  }

  core::QueueItem pop() {
    std::pop_heap(items_.begin(), items_.end(), After{});
    const core::QueueItem item = items_.back().item;
    items_.pop_back();
    return item;
  }

 private:
  struct HeapItem {
    std::uint64_t qkey = 0;
    std::uint32_t seq = 0;
    core::QueueItem item;
  };
  struct After {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return a.qkey != b.qkey ? a.qkey > b.qkey : a.seq > b.seq;
    }
  };
  std::vector<HeapItem> items_;
};

}  // namespace mrtpl::test
