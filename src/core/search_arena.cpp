#include "core/search_arena.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>

#include "util/fault_injector.hpp"

namespace mrtpl::core {

void BucketQueue::clear() {
  for (const std::uint32_t b : touched_) {
    buckets_[b].items.clear();
    buckets_[b].head = 0;
    words_[b / 64] = 0;
    summary_[b / 4096] = 0;
  }
  touched_.clear();
  overflow_.clear();
  in_buckets_ = 0;
  cursor_ = 0;
}

void BucketQueue::mark_nonempty(std::uint32_t b) {
  words_[b / 64] |= 1ull << (b % 64);
  summary_[b / 4096] |= 1ull << ((b / 64) % 64);
}

void BucketQueue::mark_empty(std::uint32_t b) {
  words_[b / 64] &= ~(1ull << (b % 64));
  if (words_[b / 64] == 0) summary_[b / 4096] &= ~(1ull << ((b / 64) % 64));
}

void BucketQueue::push(std::uint64_t qkey, const QueueItem& item, std::uint32_t seq) {
  if (qkey >= kNumBuckets) {
    overflow_.push_back({qkey, seq, item});
    std::push_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
    return;
  }
  const auto b = static_cast<std::uint32_t>(qkey);
  Bucket& bucket = buckets_[b];
  if (bucket.head == bucket.items.size()) {  // was empty
    touched_.push_back(b);
    mark_nonempty(b);
    if (b < cursor_) cursor_ = b;  // A* re-key rewind; never hit by Dijkstra
  }
  bucket.items.push_back(item);
  ++in_buckets_;
}

QueueItem BucketQueue::pop() {
  assert(!empty());
  if (in_buckets_ == 0) {
    // Everything below the bucket range drained: overflow keys are all
    // >= kNumBuckets, so the overflow minimum is the global minimum.
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
    const QueueItem item = overflow_.back().item;
    overflow_.pop_back();
    return item;
  }
  // Lowest non-empty bucket via the two-level bitmap. Invariant: every
  // non-empty bucket lies at or above cursor_ (pop moves it to the bucket
  // it drained from; a lower push rewinds it), so the first set bit from
  // the cursor's summary word onward is the global minimum.
  std::uint32_t sw = cursor_ / 4096;
  while (summary_[sw] == 0) ++sw;
  const std::uint32_t w = sw * 64 + static_cast<std::uint32_t>(std::countr_zero(summary_[sw]));
  const std::uint32_t b = w * 64 + static_cast<std::uint32_t>(std::countr_zero(words_[w]));
  cursor_ = b;

  Bucket& bucket = buckets_[b];
  const QueueItem item = bucket.items[bucket.head++];
  --in_buckets_;
  if (bucket.head == bucket.items.size()) {
    bucket.items.clear();
    bucket.head = 0;
    mark_empty(b);
  }
  return item;
}

void SearchArena::ensure(std::uint32_t num_vertices) {
  // Fault site kArenaGrow: simulate label-array allocation failure. The
  // check runs on every ensure call (not only growing ones) so the site
  // can fire mid-run; callers recover by marking the net failed.
  if (util::FaultInjector::enabled() &&
      util::FaultInjector::instance().should_fail(util::FaultSite::kArenaGrow))
    throw std::bad_alloc();
  if (cost.size() >= num_vertices) return;
  cost.resize(num_vertices);
  prev.resize(num_vertices);
  state.resize(num_vertices);
  closed.resize(num_vertices);
  stamp.resize(num_vertices, 0);
  target_pin.resize(num_vertices, -1);
  target_stamp.resize(num_vertices, 0);
}

void SearchArena::begin_session() {
  ++epoch;
  if (epoch == 0) {
    // Epoch wrap (once per 2^32 sessions): old stamps could alias the new
    // epoch, so pay one full clear and restart from 1.
    std::fill(stamp.begin(), stamp.end(), 0u);
    std::fill(target_stamp.begin(), target_stamp.end(), 0u);
    epoch = 1;
  }
  bucket_queue.clear();
  seq = 0;
  target_list.clear();
  any_touched = false;
  any_tpl_touched = false;
}

}  // namespace mrtpl::core
