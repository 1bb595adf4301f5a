// Event queue for the discrete-event kernel.
//
// Events are arbitrary callables scheduled at an absolute Tick. Ties are
// broken by insertion sequence number, which makes every simulation run
// fully deterministic for a given program.
//
// One 4-ary min-heap of 24-byte (tick, seq, slot) keys (see DESIGN.md
// §11.2). The callbacks live in a slab indexed by slot and recycled
// through a free list, so sifting moves keys, never callbacks, and the
// queue's memory is proportional to the peak number of pending events.
// (tick, seq) is unique among live events, so dispatch order — and
// therefore every stat, trace span and fault draw — does not depend on
// the heap's layout.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_func.hpp"
#include "sim/types.hpp"

namespace sv::ckpt {
class Writer;
}  // namespace sv::ckpt

namespace sv::sim {

class EventQueue {
 public:
  using Callback = InlineFunc;

  /// Schedule `fn` to run at absolute time `when`. `when` must be >= the
  /// current floor (the last popped/advanced time) — the kernel's
  /// no-events-in-the-past rule.
  template <typename F>
  void push(Tick when, F&& fn) {
    push_at_seq(when, next_seq_++, std::forward<F>(fn));
  }

  /// Reserve `n` consecutive sequence numbers and return the first. The
  /// fast-path layer (DESIGN.md §12) reserves an operation's tie-break
  /// keys up front — identically in fast and slow mode — so that events
  /// later pushed with push_at_seq() occupy the same position in dispatch
  /// order regardless of when the push itself happens. Reserved numbers
  /// that end up unused are simply holes; only relative order matters.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t base = next_seq_;
    next_seq_ += n;
    return base;
  }

  /// Schedule `fn` at `when` under a previously reserved sequence number
  /// instead of a fresh one. The (when, seq) pair must be unique among
  /// live events (a dead — revoked — event may share it; see MemBus).
  /// The callback is built directly in its slab slot.
  template <typename F>
  void push_at_seq(Tick when, std::uint64_t seq, F&& fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back(std::forward<F>(fn));
    } else {
      slot = free_.back();
      free_.pop_back();
      // A free slot holds the empty husk pop() moved its callback out of.
      std::destroy_at(&slab_[slot]);
      std::construct_at(&slab_[slot], std::forward<F>(fn));
    }
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{when, seq, slot});
  }

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Tick next_time() const { return heap_.front().when; }

  /// Remove and return the earliest event. Precondition: !empty().
  /// seq is the dispatch tie-break key the fast-path revocation protocol
  /// compares phase keys against.
  struct Popped {
    Tick when;
    std::uint64_t seq;
    Callback fn;
  };
  Popped pop();

  /// pop(), but only if the earliest event is at or before `bound`;
  /// otherwise returns {kTickInvalid, empty} and leaves the queue intact.
  Popped try_pop(Tick bound);

  /// Raise the queue's notion of "no event can be scheduled before this".
  /// Called by the kernel whenever simulated time advances, so the floor
  /// tracks now() even across idle jumps (run_until past the last event);
  /// ckpt_save() records it. Never un-advances.
  void advance(Tick now) {
    if (now > floor_) {
      floor_ = now;
    }
  }

  /// Total number of sequence numbers ever issued: events scheduled plus
  /// keys reserved via reserve_seqs(). Unlike the executed-event count,
  /// this is identical between fast-path and slow-path runs (reservations
  /// happen at the same program points in both), which is why the stats
  /// dump reports it (DESIGN.md §12).
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_; }

  /// Append the queue's snapshot state to `w`: floor, next sequence number
  /// (which encodes reserved-sequence holes — a reserved-but-unused key
  /// advances next_seq_ with no matching pending event), and every pending
  /// (when, seq) key in dispatch order. The callbacks themselves are
  /// closures and are not serialized; restore re-creates them by replaying
  /// the run, then byte-compares this chunk (DESIGN.md §14).
  void ckpt_save(ckpt::Writer& w) const;

 private:
  /// Heap entry: the ordering key plus the index of its callback in
  /// slab_. A sift step moves these 24 bytes, not the 64-byte callback.
  struct Key {
    Tick when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// (when, seq) as one 128-bit integer, so comparisons compile to a
  /// branch-free compare-and-borrow.
  [[nodiscard]] static unsigned __int128 order(const Key& k) {
    return (static_cast<unsigned __int128>(k.when) << 64) | k.seq;
  }
  [[nodiscard]] static bool before(const Key& a, const Key& b) {
    return order(a) < order(b);
  }

  /// Write `k` into the hole at heap_[i], moving it up past later parents.
  void sift_up(std::size_t i, const Key& k);
  /// Remove heap_[0] and restore the heap property.
  void pop_front();

  /// 4-ary min-heap by (when, seq): the children of i are 4i+1 .. 4i+4.
  std::vector<Key> heap_;
  /// Callback storage, recycled through free_ so the steady state
  /// allocates nothing (tests/alloc_hook_test.cpp).
  std::vector<Callback> slab_;
  std::vector<std::uint32_t> free_;
  Tick floor_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sv::sim
