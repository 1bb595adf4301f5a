#include "sim/event.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/io.hpp"

namespace sv::sim {

void EventQueue::sift_up(std::size_t i, const Key& k) {
  // Parents later than `k` move down into the hole; `k` is written once.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(k, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::pop_front() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  // Bottom-up: walk the root's hole down to a leaf along the smallest
  // children, then sift `last` up from there. `last` came from the bottom
  // of the heap, so it rarely rises far, and the descent needs no
  // comparison against it.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    unsigned __int128 best_key = order(heap_[first]);
    for (std::size_t c = first + 1; c < end; ++c) {
      const unsigned __int128 k = order(heap_[c]);
      const bool lt = k < best_key;
      best = lt ? c : best;
      best_key = lt ? k : best_key;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  sift_up(i, last);
}

EventQueue::Popped EventQueue::pop() { return try_pop(kTickInvalid); }

EventQueue::Popped EventQueue::try_pop(Tick bound) {
  if (heap_.empty() || heap_.front().when > bound) {
    return Popped{kTickInvalid, 0, {}};
  }
  const Key k = heap_.front();
  Popped p{k.when, k.seq, std::move(slab_[k.slot])};
  free_.push_back(k.slot);
  floor_ = k.when;
  pop_front();
  return p;
}

void EventQueue::ckpt_save(ckpt::Writer& w) const {
  w.tick(floor_);
  w.u64(next_seq_);
  // The heap's layout is an implementation detail, so keys are emitted in
  // (when, seq) dispatch order — the canonical form a replayed queue must
  // reproduce exactly.
  std::vector<Key> keys = heap_;
  std::sort(keys.begin(), keys.end(), before);
  w.u64(keys.size());
  for (const Key& k : keys) {
    w.tick(k.when);
    w.u64(k.seq);
  }
}

}  // namespace sv::sim
